//! Campaign execution: drive a faulted bid stream through a real
//! [`Engine`](mcs_platform::engine::Engine), mirror every accepted bid,
//! and oracle-check every surviving round.
//!
//! ## The mirror
//!
//! The campaign drives the engine through a `MirroredEngine` (the
//! crate-private `mirror` module), the harness's one engine-vs-mirror
//! loop: a mirror batcher and admission controller fed the same
//! submissions and ticks close bitwise-identical rounds, so every
//! cleared round has a declared profile to oracle-check and every shed
//! or rejection is predicted independently. On top of it the
//! campaign arms each logical round's shard/settle/batch faults onto the
//! concrete engine round the mirror closed, runs the scheduled
//! checkpoint/drop/rebuild cycles, and checks that the injector observed
//! exactly the quarantines the engine recorded.
//!
//! ## Reproducibility
//!
//! A campaign is a pure function of `(CampaignConfig, FaultPlan)`: the
//! bid stream derives from the seed per round, faults arm by round id,
//! and the engine is bitwise deterministic across worker counts — so
//! [`CampaignOutcome::fingerprint`] must match for any `workers` /
//! `payment_threads` combination. The CI smoke test asserts exactly that.

use std::collections::BTreeMap;
use std::sync::{Arc, Once};

use mcs_core::types::{Task, TaskId, UserId};
use mcs_obs::{Fnv, PostMortem};
use mcs_platform::batch::RoundId;
use mcs_platform::config::{AdmissionConfig, EngineConfig, TraceConfig};
use mcs_platform::degrade::QuarantinedRound;
use mcs_platform::settle::RoundSettlement;
use mcs_platform::shard::ClearedRound;

use crate::inject::{PlanInjector, CHAOS_PREFIX};
use crate::mirror::{hash_rounds, MirroredEngine, Submitted};
use crate::oracle::{OracleConfig, OracleViolation};
use crate::plan::{Fault, FaultPlan};
use crate::stream::{round_actions, Action};

/// Everything that parameterises one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed: drives the bid stream and the engine's execution
    /// draws.
    pub seed: u64,
    /// Number of logical rounds to synthesise.
    pub rounds: u64,
    /// Well-formed bids per logical round (also the batcher's bid
    /// capacity).
    pub bids_per_round: usize,
    /// Published tasks per round: 1 exercises the single-task FPTAS
    /// mechanism, more the multi-task greedy mechanism.
    pub task_count: usize,
    /// Shard worker count. Outcomes must not depend on it.
    pub workers: usize,
    /// Per-round payment fan-out. Outcomes must not depend on it.
    pub payment_threads: usize,
    /// Drain (clear + settle + oracle-check) every this many logical
    /// rounds.
    pub drain_every: u64,
    /// Admission control for the engine under test. The campaign runs a
    /// *mirror* [`AdmissionController`](mcs_platform::admission::AdmissionController)
    /// with the same configuration, fed the same backlog, so every shed
    /// decision is independently predicted — a divergence is an
    /// [`OracleViolation::ShedUnaccounted`].
    pub admission: AdmissionConfig,
    /// Multiplies the computed trace-ring capacity. Leave at 1 for
    /// normal campaigns; overload soaks push ~10× the bids per logical
    /// round and need the headroom to keep the trace oracle armed.
    pub trace_headroom: usize,
    /// Oracle tuning.
    pub oracle: OracleConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            rounds: 20,
            bids_per_round: 8,
            task_count: 1,
            workers: 4,
            payment_threads: 1,
            drain_every: 4,
            admission: AdmissionConfig::default(),
            trace_headroom: 1,
            oracle: OracleConfig::default(),
        }
    }
}

impl CampaignConfig {
    /// The engine configuration this campaign runs under. Tracing runs in
    /// logical-clock mode — timestamps are sequence numbers, so traces
    /// and post-mortems are bitwise deterministic and the campaign
    /// fingerprint stays independent of worker count.
    pub fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::default()
            .with_seed(self.seed)
            .with_workers(self.workers)
            .with_payment_threads(self.payment_threads);
        config.batch.max_bids = self.bids_per_round;
        config.admission = self.admission;
        config.trace = TraceConfig {
            capacity: self.trace_capacity(),
            logical_clock: true,
        };
        config
    }

    /// Ring capacity sized so the recorder never wraps mid-campaign: the
    /// trace-completeness oracle needs every round's events to survive
    /// until the final drain. Each logical round emits one event per
    /// admitted bid plus one per declared task, a handful of rejections,
    /// and a fixed budget of span/milestone events; doubled for headroom
    /// (delayed ticks split rounds) and clamped to keep the upfront
    /// allocation bounded.
    fn trace_capacity(&self) -> usize {
        let per_round = self.bids_per_round * (self.task_count + 2) + 32;
        ((self.rounds as usize + 2) * per_round * 2 * self.trace_headroom.max(1))
            .clamp(1024, 1 << 20)
    }

    /// The tasks every round publishes: requirement 0.8 for the
    /// single-task setting, 0.6 each for multi-task (so the synthetic
    /// streams stay feasible).
    pub fn published_tasks(&self) -> Vec<Task> {
        let requirement = if self.task_count <= 1 { 0.8 } else { 0.6 };
        (0..self.task_count.max(1) as u32)
            .map(|i| {
                Task::with_requirement(TaskId::new(i), requirement)
                    .expect("campaign requirements are valid probabilities")
            })
            .collect()
    }
}

/// Everything a finished campaign produced, accumulated across
/// mid-campaign engine rebuilds.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Every cleared round, keyed by engine round id.
    pub results: BTreeMap<RoundId, ClearedRound>,
    /// Every settlement, keyed by engine round id.
    pub settlements: BTreeMap<RoundId, RoundSettlement>,
    /// Every quarantined round, in settlement order.
    pub quarantine: Vec<QuarantinedRound>,
    /// One JSON-ready post-mortem per quarantined round, rebuilt from the
    /// flight recorder's trace (deliberately excluded from
    /// [`fingerprint`](CampaignOutcome::fingerprint): the quarantine
    /// records above already pin the observable outcome).
    pub post_mortems: Vec<PostMortem>,
    /// Final per-user ledger balances (carried across rebuilds).
    pub balances: BTreeMap<UserId, f64>,
    /// Final ledger total.
    pub total_paid: f64,
    /// Every oracle violation, in detection order. Empty means the
    /// campaign upheld all of the paper's invariants.
    pub violations: Vec<OracleViolation>,
    /// Bids rejected at ingest (each verified to reject identically on
    /// the engine and the mirror).
    pub rejections: u64,
    /// Bids shed by admission control (each verified to shed identically
    /// on the engine and the mirror controller).
    pub sheds: u64,
    /// Rounds that cleared only their admitted prefix because they
    /// exceeded the clearing budget.
    pub partial_rounds: u64,
    /// Bidders deferred (quarantined) by those partial clears.
    pub deferred: u64,
    /// The deepest engine backlog observed after any submission — under
    /// tail-drop admission this must never exceed the high watermark.
    pub max_backlog: usize,
    /// Mid-campaign checkpoint/drop/rebuild cycles executed.
    pub rebuilds: u64,
    /// Engine rounds closed over the whole campaign.
    pub rounds_closed: u64,
    /// Shard/settle/batch faults armed onto concrete engine rounds.
    pub faults_armed: u64,
    /// Events the final engine incarnation's flight recorder held at
    /// campaign end (rebuilds start a fresh ring).
    pub trace_events: u64,
    /// The recorder's fixed ring capacity — tracing never allocates past
    /// this, no matter how long the campaign runs.
    pub trace_capacity: usize,
    /// Whether the final recorder ever lapped its ring (the campaign
    /// sizes the ring so this stays `false`).
    pub trace_wrapped: bool,
}

impl CampaignOutcome {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// An FNV-1a digest over the campaign's observable outcomes: round
    /// ids, winners, quotes, reports, payouts, balances, quarantine
    /// records, and the rejection/shed/partial-clear/rebuild counters.
    /// Two campaigns with the same seed and plan must fingerprint
    /// identically for any worker or payment-thread count — with or
    /// without admission control engaged.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv::new();
        hash_rounds(&mut fnv, &self.results, &self.settlements);
        for record in &self.quarantine {
            fnv.write_u64(record.id.0);
            fnv.write_u64(record.bidders as u64);
            fnv.write_bytes(record.error.to_string().as_bytes());
        }
        for (user, balance) in &self.balances {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(balance.to_bits());
        }
        fnv.write_u64(self.total_paid.to_bits());
        fnv.write_u64(self.rejections);
        fnv.write_u64(self.sheds);
        fnv.write_u64(self.partial_rounds);
        fnv.write_u64(self.deferred);
        fnv.write_u64(self.max_backlog as u64);
        fnv.write_u64(self.rebuilds);
        fnv.write_u64(self.rounds_closed);
        fnv.finish()
    }

    /// The quarantine log as human-readable lines, one per record.
    pub fn quarantine_log(&self) -> String {
        self.quarantine
            .iter()
            .map(|q| format!("{} ({} bidders): {}", q.id, q.bidders, q.error))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Installs (once per process) a panic hook that swallows panics whose
/// payload carries the [`CHAOS_PREFIX`] and delegates everything else to
/// the previous hook. Injected shard panics are *expected* — without
/// this, every campaign would spray backtraces over the test output.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !payload.contains(CHAOS_PREFIX) {
                previous(info);
            }
        }));
    });
}

/// Runs one campaign to completion. Pure in `(config, plan)`: see the
/// module docs for the reproducibility contract.
pub fn run_campaign(config: &CampaignConfig, plan: &FaultPlan) -> CampaignOutcome {
    silence_injected_panics();
    let injector = Arc::new(PlanInjector::new());
    let mut mirrored = MirroredEngine::new(
        config.engine_config(),
        config.published_tasks(),
        injector.clone(),
        config.oracle.clone(),
    );
    let mut faults_armed = 0;
    let mut rebuilds = 0;

    for logical in 0..config.rounds {
        let faults = plan.faults_for(logical);
        let rebuild = faults.contains(&Fault::DropAndRebuild);
        for action in round_actions(config, logical, faults) {
            let closed = match action {
                Action::Submit(bid) => match mirrored.submit(&bid, logical) {
                    Submitted::Admitted(closed) => closed,
                    _ => None,
                },
                Action::Tick => mirrored.tick(),
            };
            if let Some(id) = closed {
                faults_armed += arm(faults, &injector, id);
            }
        }

        let at_drain_point = (logical + 1) % config.drain_every.max(1) == 0;
        if at_drain_point || rebuild {
            mirrored.drain();
        }
        if rebuild {
            // A checkpoint does not capture the partially filled batch, so
            // close it identically on both sides and drain it first.
            mirrored.flush();
            mirrored.drain();
            mirrored.rebuild();
            rebuilds += 1;
        }
    }

    mirrored.flush();
    mirrored.drain();
    let mirrored = mirrored.finish();
    let mut violations = mirrored.violations;
    // The injector observed exactly the quarantines the engine recorded.
    if injector.observed_quarantines() != mirrored.quarantine {
        violations.push(OracleViolation::StreamDesync {
            detail: "quarantine observations diverge from engine records".to_string(),
        });
    }
    let engine = &mirrored.engine;
    CampaignOutcome {
        results: mirrored.results,
        settlements: mirrored.settlements,
        quarantine: mirrored.quarantine,
        post_mortems: mirrored.post_mortems,
        balances: engine.ledger().balances().clone(),
        total_paid: engine.ledger().total_paid(),
        violations,
        rejections: mirrored.bids.rejected,
        sheds: mirrored.bids.shed,
        partial_rounds: mirrored.partial_rounds,
        deferred: mirrored.deferred,
        max_backlog: mirrored.max_backlog,
        rebuilds,
        rounds_closed: mirrored.rounds_closed,
        faults_armed,
        trace_events: engine.recorder().recorded(),
        trace_capacity: engine.recorder().capacity(),
        trace_wrapped: engine.recorder().wrapped(),
    }
}

/// Arms the logical round's shard/settle/batch faults onto the concrete
/// engine round `id` the mirror just closed; returns how many it armed.
fn arm(faults: &[Fault], injector: &PlanInjector, id: RoundId) -> u64 {
    let mut armed = 0;
    for fault in faults {
        match fault {
            Fault::ShardPanic => injector.arm_panic(id),
            Fault::FlipReports => injector.arm_flip(id),
            Fault::ReorderPending => injector.arm_reorder(id),
            _ => continue,
        }
        armed += 1;
    }
    armed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_campaign_is_clean_and_reproducible() {
        let config = CampaignConfig {
            rounds: 8,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&config, &FaultPlan::new());
        let b = run_campaign(&config, &FaultPlan::new());
        assert!(a.is_clean(), "{:?}", a.violations);
        assert_eq!(a.results.len(), 8);
        assert!(a.quarantine.is_empty());
        assert!(a.post_mortems.is_empty());
        assert_eq!(a.rejections, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_fingerprint_differently() {
        let base = CampaignConfig {
            rounds: 4,
            ..CampaignConfig::default()
        };
        let other = CampaignConfig {
            seed: 1,
            ..base.clone()
        };
        let a = run_campaign(&base, &FaultPlan::new());
        let b = run_campaign(&other, &FaultPlan::new());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn multi_task_campaigns_run_clean() {
        let config = CampaignConfig {
            rounds: 6,
            task_count: 3,
            bids_per_round: 6,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(&config, &FaultPlan::new());
        assert!(outcome.is_clean(), "{:?}", outcome.violations);
        assert_eq!(outcome.results.len(), 6);
    }

    #[test]
    fn quarantine_log_renders_one_line_per_record() {
        let config = CampaignConfig {
            rounds: 6,
            ..CampaignConfig::default()
        };
        let mut plan = FaultPlan::new();
        plan.schedule(2, Fault::ShardPanic)
            .schedule(4, Fault::InfeasibleRound);
        let outcome = run_campaign(&config, &plan);
        assert!(outcome.is_clean(), "{:?}", outcome.violations);
        assert_eq!(outcome.quarantine.len(), 2);
        let log = outcome.quarantine_log();
        assert_eq!(log.lines().count(), 2);
        assert!(log.contains("panicked"));
        assert!(log.contains("infeasible"));
    }

    #[test]
    fn every_quarantine_yields_a_complete_post_mortem() {
        let config = CampaignConfig {
            rounds: 6,
            ..CampaignConfig::default()
        };
        let mut plan = FaultPlan::new();
        plan.schedule(1, Fault::ShardPanic)
            .schedule(3, Fault::ShardPanic)
            .schedule(4, Fault::InfeasibleRound);
        let outcome = run_campaign(&config, &plan);
        assert!(outcome.is_clean(), "{:?}", outcome.violations);
        assert_eq!(outcome.post_mortems.len(), outcome.quarantine.len());
        for (record, pm) in outcome.quarantine.iter().zip(&outcome.post_mortems) {
            assert_eq!(pm.round, record.id.0);
            assert!(pm.complete, "{}", pm.to_json());
            assert_eq!(pm.bids.len(), record.bidders);
            assert!(pm.error.contains("panicked") || pm.error.contains("infeasible"));
        }
    }

    #[test]
    fn post_mortems_are_deterministic_and_unfingerprinted() {
        let config = CampaignConfig {
            rounds: 5,
            ..CampaignConfig::default()
        };
        let mut plan = FaultPlan::new();
        plan.schedule(2, Fault::ShardPanic);
        let a = run_campaign(&config, &plan);
        let b = run_campaign(
            &CampaignConfig {
                workers: 1,
                payment_threads: 2,
                ..config.clone()
            },
            &plan,
        );
        // Logical-clock traces make the JSON dumps bitwise identical for
        // any worker count, and the fingerprint never sees them.
        assert_eq!(a.fingerprint(), b.fingerprint());
        let dump_a: Vec<String> = a.post_mortems.iter().map(|pm| pm.to_json()).collect();
        let dump_b: Vec<String> = b.post_mortems.iter().map(|pm| pm.to_json()).collect();
        assert!(!dump_a.is_empty());
        assert_eq!(dump_a, dump_b);
    }
}
