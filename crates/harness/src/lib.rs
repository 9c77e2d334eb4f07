//! # mcs-harness — deterministic chaos campaigns for the auction platform
//!
//! The paper's whole premise is *execution uncertainty*: users fail
//! probabilistically and the mechanism must stay feasible, individually
//! rational, and truthful anyway. This crate attacks the *platform* the
//! same way the world would — malformed bids, worker panics, delayed
//! round closes, flipped execution reports, mid-stream crashes — and
//! checks after every surviving round that the paper's economic
//! guarantees still hold.
//!
//! The moving parts:
//!
//! * [`plan`] — the fault taxonomy ([`Fault`](plan::Fault)) and per-round
//!   schedules ([`FaultPlan`](plan::FaultPlan)), derivable from a seed.
//! * [`stream`] — deterministic bid-stream synthesis with faults woven
//!   in; every round draws from its own seed-derived stream.
//! * [`inject`] — the [`FaultInjector`](mcs_platform::fault::FaultInjector)
//!   implementation that arms shard panics, report flips, and queue
//!   reorders onto concrete engine round ids.
//! * [`oracle`] — the economic-invariant checks: coverage feasibility,
//!   allocation fidelity, quote structure, ex-post IR, critical-bid
//!   monotonicity, and settlement/ledger conservation.
//! * `mirror` (crate-private) — `MirroredEngine`, the one
//!   engine-vs-mirror drive loop under both the campaign runner and the
//!   scenario driver: mirror batcher and admission controller, shed /
//!   reject / desync classification, per-round oracle absorption, and
//!   the next-id, silent-drop and ledger checks.
//! * [`campaign`] — the runner tying it together; a campaign is a pure
//!   function of `(CampaignConfig, FaultPlan)` whose
//!   [`fingerprint`](campaign::CampaignOutcome::fingerprint) is identical
//!   for any worker or payment-thread count.
//! * [`closed_loop`] — oracles over the *auction* campaigns run by
//!   `mcs-campaign` (residual monotonicity, termination, calibration
//!   sanity, payout conservation); `mcs-fuzz --campaign` drives those
//!   loops under the same fault flavors.
//! * [`cluster`] — chaos at the deployment layer: a fault-injecting
//!   [`NodeTransport`](mcs_cluster::transport::NodeTransport) wrapper
//!   (node loss, partition, duplicate delivery), the scenario→cluster
//!   bridge, and the [`scenario_ground_truth`](cluster::scenario_ground_truth)
//!   oracle; `mcs-fuzz --cluster` drives it.
//!
//! The `mcs-fuzz` binary drives campaigns from the command line; see
//! `scripts/ci.sh` (smoke) and `scripts/fuzz.sh` (long campaigns).
//!
//! ## Reproducing a failure
//!
//! Every campaign is identified by `(seed, rounds, intensity, tasks)`.
//! Re-run `mcs-fuzz --seed S --rounds N --faults F --tasks T` with the
//! reported values and the identical campaign — same bids, same faults,
//! same round ids, same fingerprint — replays.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod closed_loop;
pub mod cluster;
pub mod inject;
mod mirror;
pub mod oracle;
pub mod plan;
pub mod scenario;
pub mod stream;

/// Convenient glob import: `use mcs_harness::prelude::*;`.
pub mod prelude {
    pub use crate::campaign::{
        run_campaign, silence_injected_panics, CampaignConfig, CampaignOutcome,
    };
    pub use crate::closed_loop::{check_campaign, ClosedLoopViolation};
    pub use crate::cluster::{
        run_cluster_scenario, run_cluster_scenario_tcp, scenario_ground_truth, scenario_params,
        scenario_rounds, scenario_topology, ClusterRun, FaultyTransport,
    };
    pub use crate::inject::{PlanInjector, CHAOS_PREFIX};
    pub use crate::oracle::{check_round, OracleConfig, OracleViolation};
    pub use crate::plan::{Fault, FaultPlan};
    pub use crate::scenario::{
        check_online_sp, replay_scenario, run_scenario, run_scenario_with, RunOptions, Scenario,
        ScenarioError, ScenarioOutcome, SpReport,
    };
    pub use crate::stream::{round_actions, splitmix64, Action};
}
