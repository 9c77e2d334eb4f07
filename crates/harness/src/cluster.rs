//! Cluster chaos: fault-injecting transports, the scenario→cluster
//! bridge, and the [`scenario_ground_truth`] oracle.
//!
//! The engine campaigns attack one engine's pipeline; this module
//! attacks the *deployment*. A [`FaultyTransport`] wraps any
//! [`NodeTransport`] and injects the three cluster faults from the
//! [`Fault`] taxonomy on their scheduled rounds:
//!
//! * [`Fault::NodeLoss`] — the node's primary answers its first `Clear`
//!   of the fault round, then drops off the network for good. The
//!   coordinator must promote the follower mid-round and the cluster
//!   fingerprint must be byte-identical to the fault-free run.
//! * [`Fault::NetPartition`] — the node (both replicas) is dark for the
//!   fault round and heals afterwards. The coordinator must quarantine
//!   the whole round with a typed cause and a complete post-mortem.
//! * [`Fault::DuplicateDelivery`] — every `Clear` of the fault round is
//!   delivered twice; the node-side idempotency cache must absorb the
//!   duplicates without a bit of drift.
//!
//! [`run_cluster_scenario`] drives any corpus scenario's bid stream
//! through a loopback cluster of N nodes under a fault plan, and
//! [`scenario_ground_truth`] recomputes the deployment-invariant ground
//! truth in-process for bitwise comparison.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use mcs_cluster::coordinator::{Cluster, ClusterError, ClusterOutcome, RoundReport};
use mcs_cluster::mirror::ground_truth;
use mcs_cluster::node::NodeServer;
use mcs_cluster::topology::{TaskSite, Topology};
use mcs_cluster::transport::{
    serve_node, Endpoint, LoopbackTransport, NodeTransport, Role, TcpTransport, TransportError,
};
use mcs_cluster::wire::{Request, Response};
use mcs_cluster::{ClusterConfig, ClusterParams};
use mcs_mobility::grid::{Cell, CityGrid};
use mcs_platform::ingest::Bid;

use crate::plan::{Fault, FaultPlan};
use crate::scenario::{ArrivalCurve, Population, Scenario, ShockField};
use crate::stream::splitmix64;

/// Grid width (cells) of the synthetic cluster geography.
const GRID_WIDTH: u32 = 8;
/// Grid height (cells) of the synthetic cluster geography.
const GRID_HEIGHT: u32 = 4;

/// A [`NodeTransport`] wrapper injecting the cluster faults of a
/// [`FaultPlan`]. Drive [`set_round`](FaultyTransport::set_round) before
/// each coordinator round so the schedule lines up.
#[derive(Debug)]
pub struct FaultyTransport<T: NodeTransport> {
    inner: T,
    plan: FaultPlan,
    round: StdCell<u64>,
    /// Endpoints that died permanently (node loss fired).
    lost: RefCell<BTreeSet<(u32, u8)>>,
}

fn endpoint_key(endpoint: Endpoint) -> (u32, u8) {
    (
        endpoint.node,
        match endpoint.role {
            Role::Primary => 0,
            Role::Follower => 1,
        },
    )
}

impl<T: NodeTransport> FaultyTransport<T> {
    /// Wraps `inner` with the cluster faults scheduled in `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            round: StdCell::new(0),
            lost: RefCell::new(BTreeSet::new()),
        }
    }

    /// Aligns the injector with the coordinator's next round.
    pub fn set_round(&self, round: u64) {
        self.round.set(round);
    }

    /// Endpoints the injector has permanently killed so far.
    pub fn lost_endpoints(&self) -> usize {
        self.lost.borrow().len()
    }
}

impl<T: NodeTransport> NodeTransport for FaultyTransport<T> {
    fn call(&self, endpoint: Endpoint, request: &Request) -> Result<Response, TransportError> {
        let round = self.round.get();
        if self.lost.borrow().contains(&endpoint_key(endpoint)) {
            return Err(TransportError::Unreachable(endpoint));
        }
        let faults = self.plan.faults_for(round);
        for fault in faults {
            match *fault {
                Fault::NetPartition(node) if node == endpoint.node => {
                    // Dark for this round only; heals on the next
                    // set_round.
                    return Err(TransportError::Unreachable(endpoint));
                }
                Fault::NodeLoss(node)
                    if node == endpoint.node
                        && endpoint.role == Role::Primary
                        && matches!(request, Request::Clear { .. }) =>
                {
                    // The primary serves its first Clear of the fault
                    // round, then the machine is gone — every later call
                    // (this round or any after) is unreachable.
                    let response = self.inner.call(endpoint, request);
                    self.lost.borrow_mut().insert(endpoint_key(endpoint));
                    return response;
                }
                Fault::DuplicateDelivery if matches!(request, Request::Clear { .. }) => {
                    // The network delivers the Clear twice back to back;
                    // the caller sees the second copy's response.
                    let _first = self.inner.call(endpoint, request)?;
                    return self.inner.call(endpoint, request);
                }
                _ => {}
            }
        }
        self.inner.call(endpoint, request)
    }
}

/// The deterministic cluster geography of a scenario: every published
/// task scattered over a fixed grid by a seed-derived hash, partitioned
/// into `bands` vertical bands. A pure function of `(scenario seed,
/// task ids, bands)` — node counts never enter.
///
/// # Panics
///
/// Panics if `bands` doesn't partition the grid (caller bug).
pub fn scenario_topology(scenario: &Scenario, bands: u32) -> Topology {
    let grid = CityGrid::new(GRID_WIDTH, GRID_HEIGHT, 1.0);
    let cells = u64::from(GRID_WIDTH * GRID_HEIGHT);
    let sites = scenario
        .published_tasks()
        .into_iter()
        .map(|task| {
            let id = task.id().index() as u64;
            let slot =
                splitmix64(scenario.seed, (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % cells;
            TaskSite {
                task,
                cell: Cell {
                    x: (slot % u64::from(GRID_WIDTH)) as u32,
                    y: (slot / u64::from(GRID_WIDTH)) as u32,
                },
            }
        })
        .collect();
    Topology::bands(grid, bands as usize, sites).expect("band partition of the scenario grid")
}

/// The shared shard parameters of a scenario's cluster runs, lifted
/// from its engine knobs.
pub fn scenario_params(scenario: &Scenario) -> ClusterParams {
    let engine = scenario.engine_config();
    ClusterParams {
        seed: engine.seed,
        workers: engine.workers,
        payment_threads: engine.payment_threads,
        alpha: engine.alpha,
        epsilon: engine.epsilon,
        trace_capacity: 4096,
    }
}

/// The full bid stream of a scenario, one entry per round — the exact
/// stream `run_cluster_scenario` submits.
pub fn scenario_rounds(scenario: &Scenario) -> Vec<Vec<Bid>> {
    let curve = ArrivalCurve::generate(&scenario.arrival, scenario.seed, scenario.rounds);
    let field = scenario
        .shocks
        .as_ref()
        .map(|spec| ShockField::generate(spec, scenario.seed, scenario.rounds));
    let population = Population::new(scenario, &curve, field.as_ref());
    (0..scenario.rounds)
        .map(|round| population.round(round, false).bids)
        .collect()
}

/// What a cluster run of a scenario produced.
#[derive(Debug)]
pub struct ClusterRun {
    /// The deployment-invariant fingerprint.
    pub fingerprint: u64,
    /// Per-round reports, in order.
    pub reports: Vec<RoundReport>,
    /// The full outcome (results, settlements, quarantines, ledger).
    pub outcome: ClusterOutcome,
}

impl ClusterRun {
    /// Rounds that were quarantined wholesale (partition).
    pub fn quarantined_rounds(&self) -> usize {
        self.reports.iter().filter(|r| r.quarantined).count()
    }

    /// Nodes that failed over at any point, ascending.
    pub fn promoted_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .reports
            .iter()
            .flat_map(|r| r.promoted.iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Runs a scenario's bid stream through a loopback cluster of `nodes`
/// nodes under `plan`'s cluster faults.
///
/// # Errors
///
/// [`ClusterError`] only on protocol violations — injected faults are
/// survived (failover) or quarantined, never raised.
pub fn run_cluster_scenario(
    scenario: &Scenario,
    nodes: u32,
    bands: u32,
    plan: &FaultPlan,
) -> Result<ClusterRun, ClusterError> {
    let topology = scenario_topology(scenario, bands);
    let params = scenario_params(scenario);
    let config = ClusterConfig::new(nodes).with_params(params);
    let servers = (0..nodes)
        .map(|node| {
            (
                node,
                NodeServer::new(&topology, params, nodes, node, true),
                NodeServer::new(&topology, params, nodes, node, false),
            )
        })
        .collect();
    let transport = FaultyTransport::new(LoopbackTransport::new(servers), plan.clone());
    let mut cluster = Cluster::new(topology, config, transport);

    let mut reports = Vec::new();
    for (round, bids) in scenario_rounds(scenario).iter().enumerate() {
        cluster.transport().set_round(round as u64);
        reports.push(cluster.run_round(bids)?);
    }
    Ok(ClusterRun {
        fingerprint: cluster.fingerprint(),
        reports,
        outcome: cluster.outcome().clone(),
    })
}

/// Runs a scenario's bid stream through a *real-socket* cluster: every
/// replica behind its own ephemeral-port listener, the coordinator
/// reaching them over [`TcpTransport`]. Byte-for-byte the same protocol
/// as loopback — the CI transport-equivalence tier pins
/// `run_cluster_scenario` and `run_cluster_scenario_tcp` to the same
/// fingerprint.
///
/// # Errors
///
/// [`ClusterError`] on protocol violations; listener bind failures also
/// surface as a protocol error (the harness has nowhere else to put an
/// `io::Error`).
pub fn run_cluster_scenario_tcp(
    scenario: &Scenario,
    nodes: u32,
    bands: u32,
) -> Result<ClusterRun, ClusterError> {
    let topology = scenario_topology(scenario, bands);
    let params = scenario_params(scenario);
    let config = ClusterConfig::new(nodes).with_params(params);
    let mut transport = TcpTransport::new();
    let mut listeners = Vec::new();
    for node in 0..nodes {
        for (role, primary) in [(Role::Primary, true), (Role::Follower, false)] {
            let server = Arc::new(Mutex::new(NodeServer::new(
                &topology, params, nodes, node, primary,
            )));
            let listener = serve_node(server).map_err(|error| ClusterError::Protocol {
                node,
                message: format!("cannot serve node {node} {role:?}: {error}"),
            })?;
            transport.register(Endpoint { node, role }, listener.addr());
            listeners.push(listener);
        }
    }
    let mut cluster = Cluster::new(topology, config, transport);
    let mut reports = Vec::new();
    for bids in &scenario_rounds(scenario) {
        reports.push(cluster.run_round(bids)?);
    }
    let run = ClusterRun {
        fingerprint: cluster.fingerprint(),
        reports,
        outcome: cluster.outcome().clone(),
    };
    for listener in &mut listeners {
        listener.shutdown();
    }
    Ok(run)
}

/// The single-process oracle for cluster runs: a scenario's bid stream
/// cleared by [`ground_truth`] with no nodes, no transports, and no
/// replication in the loop.
pub fn scenario_ground_truth(scenario: &Scenario, bands: u32) -> ClusterOutcome {
    ground_truth(
        &scenario_topology(scenario, bands),
        scenario_params(scenario),
        &scenario_rounds(scenario),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::load;

    fn small_scenario() -> Scenario {
        // The smallest corpus scenario keeps this suite fast.
        load("calm-baseline").expect("corpus scenario calm-baseline")
    }

    /// The node hosting the first active region — a fault target that is
    /// guaranteed to actually receive traffic.
    fn busy_node(scenario: &Scenario, nodes: u32, bands: u32) -> u32 {
        let topology = scenario_topology(scenario, bands);
        let region = topology
            .active_regions()
            .next()
            .expect("scenario publishes tasks");
        topology.node_of_region(region, nodes)
    }

    #[test]
    fn scenario_topology_is_deterministic() {
        let scenario = small_scenario();
        let a = scenario_topology(&scenario, 4);
        let b = scenario_topology(&scenario, 4);
        assert_eq!(a.sites(), b.sites());
        assert_eq!(a.regions().len(), 4);
        assert!(a.active_regions().count() >= 1);
    }

    #[test]
    fn fault_free_cluster_matches_the_mirror() {
        let scenario = small_scenario();
        let run = run_cluster_scenario(&scenario, 2, 4, &FaultPlan::new()).unwrap();
        let mirror = scenario_ground_truth(&scenario, 4);
        assert_eq!(run.fingerprint, mirror.fingerprint());
        assert_eq!(run.quarantined_rounds(), 0);
        assert!(run.promoted_nodes().is_empty());
    }

    #[test]
    fn node_loss_fails_over_without_changing_the_fingerprint() {
        let scenario = small_scenario();
        let baseline = run_cluster_scenario(&scenario, 3, 6, &FaultPlan::new()).unwrap();
        let target = busy_node(&scenario, 3, 6);
        let mut plan = FaultPlan::new();
        plan.schedule(1, Fault::NodeLoss(target));
        let run = run_cluster_scenario(&scenario, 3, 6, &plan).unwrap();
        assert_eq!(run.promoted_nodes(), vec![target]);
        assert_eq!(run.fingerprint, baseline.fingerprint);
        assert_eq!(run.outcome.results, baseline.outcome.results);
    }

    #[test]
    fn partition_quarantines_the_round_with_a_post_mortem() {
        let scenario = small_scenario();
        let target = busy_node(&scenario, 2, 4);
        let mut plan = FaultPlan::new();
        plan.schedule(1, Fault::NetPartition(target));
        let run = run_cluster_scenario(&scenario, 2, 4, &plan).unwrap();
        assert_eq!(run.quarantined_rounds(), 1);
        let quarantine = run
            .outcome
            .quarantines
            .iter()
            .find(|q| q.round == 1)
            .expect("round 1 quarantined");
        assert!(quarantine.post_mortem.contains("\"cause\":\"partition\""));
    }

    #[test]
    fn tcp_and_loopback_deployments_agree_bitwise() {
        let scenario = small_scenario();
        let loopback = run_cluster_scenario(&scenario, 2, 4, &FaultPlan::new()).unwrap();
        let tcp = run_cluster_scenario_tcp(&scenario, 2, 4).unwrap();
        assert_eq!(tcp.fingerprint, loopback.fingerprint);
        assert_eq!(tcp.outcome.results, loopback.outcome.results);
        assert_eq!(
            tcp.outcome.ledger.balances(),
            loopback.outcome.ledger.balances()
        );
    }

    #[test]
    fn duplicate_delivery_is_absorbed() {
        let scenario = small_scenario();
        let baseline = run_cluster_scenario(&scenario, 2, 4, &FaultPlan::new()).unwrap();
        let mut plan = FaultPlan::new();
        plan.schedule(0, Fault::DuplicateDelivery);
        plan.schedule(2, Fault::DuplicateDelivery);
        let run = run_cluster_scenario(&scenario, 2, 4, &plan).unwrap();
        assert_eq!(run.fingerprint, baseline.fingerprint);
    }
}
