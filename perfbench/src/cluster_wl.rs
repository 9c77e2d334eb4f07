//! `cluster-tcp`: rounds through `mcs_cluster::Cluster::run_round` over
//! `TcpTransport` to two `serve_node` listeners (one node: primary and
//! follower). Calls are sequential; one client thread.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcs_cluster::wire::{decode_request, decode_response, encode_request, encode_response, frame};
use mcs_cluster::{
    ground_truth, route_bids, serve_node, Cluster, ClusterConfig, ClusterParams, Endpoint,
    NodeListener, NodeServer, NodeTransport, Request, Response, Role, TcpTransport, Topology,
    TransportError,
};
use mcs_core::analysis::expected_payment_from_quotes;
use mcs_platform::prelude::Bid;

use crate::gen::{Regional, RoundGen};
use crate::run::{Pass, Rep, WARMUP_SEED};
use crate::stats::{ratio, CpuInstant};
use crate::trace::Tracer;

/// One call the coordinator made, kept (traced pass only) so its codec
/// cost can be measured after the round, outside every timing.
struct CallRecord {
    name: &'static str,
    ns: u64,
    request: Request,
    response: Option<Response>,
}

/// `TcpTransport` plus accounting: every failed call is counted (a
/// failover is never silent), and in the traced pass each call gets a
/// span and a record.
pub struct BenchTransport {
    inner: TcpTransport,
    tracer: RefCell<Rc<Tracer>>,
    round: Cell<u64>,
    errors: Cell<u64>,
    calls: RefCell<Vec<CallRecord>>,
}

impl NodeTransport for BenchTransport {
    fn call(&self, endpoint: Endpoint, request: &Request) -> Result<Response, TransportError> {
        let tracer = Rc::clone(&self.tracer.borrow());
        if !tracer.enabled() {
            let response = self.inner.call(endpoint, request);
            if response.is_err() {
                self.errors.set(self.errors.get() + 1);
            }
            return response;
        }
        let name = match request {
            Request::Clear { .. } => "cluster.clear",
            Request::PullDelta { .. } => "cluster.pull_delta",
            Request::ApplyDelta { .. } => "cluster.apply_delta",
            _ => "cluster.call",
        };
        let span = tracer.begin(name, self.round.get());
        let response = self.inner.call(endpoint, request);
        let ns = tracer.end(span);
        if response.is_err() {
            self.errors.set(self.errors.get() + 1);
        }
        self.calls.borrow_mut().push(CallRecord {
            name,
            ns,
            request: request.clone(),
            response: response.as_ref().ok().cloned(),
        });
        response
    }
}

/// A deployed one-node cluster. Field order is drop order: the
/// coordinator goes first, then the listeners shut down and join.
struct Deployment {
    cluster: Cluster<BenchTransport>,
    _listeners: Vec<NodeListener>,
}

fn deploy(topology: &Topology, params: ClusterParams) -> std::io::Result<Deployment> {
    let mut tcp = TcpTransport::new();
    let mut listeners = Vec::new();
    for (role, primary) in [(Role::Primary, true), (Role::Follower, false)] {
        let server = NodeServer::new(topology, params, 1, 0, primary);
        let listener = serve_node(Arc::new(Mutex::new(server)))?;
        tcp.register(Endpoint { node: 0, role }, listener.addr());
        listeners.push(listener);
    }
    let transport = BenchTransport {
        inner: tcp,
        tracer: RefCell::new(Rc::new(Tracer::new(false))),
        round: Cell::new(0),
        errors: Cell::new(0),
        calls: RefCell::new(Vec::new()),
    };
    let config = ClusterConfig::new(1).with_params(params);
    Ok(Deployment {
        cluster: Cluster::new(topology.clone(), config, transport),
        _listeners: listeners,
    })
}

/// Wire and call totals of the traced pass.
#[derive(Default)]
struct WireTotals {
    calls: u64,
    call_ns: u64,
    clear_ns: u64,
    replication_ns: u64,
    codec_ns: u64,
    bytes: u64,
    route_ns: u64,
    straddlers: u64,
    routed: u64,
}

impl WireTotals {
    /// Untimed: codec cost and frame bytes of one round's calls.
    fn absorb(&mut self, calls: Vec<CallRecord>) {
        for call in calls {
            self.calls += 1;
            self.call_ns += call.ns;
            match call.name {
                "cluster.clear" => self.clear_ns += call.ns,
                "cluster.pull_delta" | "cluster.apply_delta" => self.replication_ns += call.ns,
                _ => {}
            }
            let start = Instant::now();
            let request = encode_request(&call.request);
            let _ = std::hint::black_box(decode_request(&request));
            let response = call.response.as_ref().map(encode_response);
            if let Some(bytes) = &response {
                let _ = std::hint::black_box(decode_response(bytes));
            }
            self.codec_ns += start.elapsed().as_nanos() as u64;
            self.bytes += frame(&request).len() as u64;
            self.bytes += response.map_or(0, |bytes| frame(&bytes).len() as u64);
        }
    }
}

/// Drives cluster round `index`, drawn from `seed`; returns its measured
/// time.
fn round(
    deployment: &mut Deployment,
    gen: &Regional,
    seed: u64,
    index: u64,
    tracer: &Tracer,
    rep: &mut Rep,
    wire: &mut WireTotals,
) -> u64 {
    let bids = gen.round(seed, index);
    if tracer.enabled() {
        let start = Instant::now();
        let routed = route_bids(deployment.cluster.topology(), &bids);
        wire.route_ns += start.elapsed().as_nanos() as u64;
        wire.straddlers += routed.straddlers.len() as u64;
        wire.routed += routed.accepted() as u64;
    }
    let transport = deployment.cluster.transport();
    transport.round.set(index);
    let errors_before = transport.errors.get();
    let start = CpuInstant::now();
    let span = tracer.begin("cluster.run_round", index);
    let result = deployment.cluster.run_round(&bids);
    tracer.end(span);
    let ns = start.elapsed_ns();

    let transport = deployment.cluster.transport();
    let calls = std::mem::take(&mut *transport.calls.borrow_mut());
    wire.absorb(calls);
    let transport_errors = transport.errors.get() - errors_before;
    let out = &mut rep.outcome;
    out.rounds += 1;
    out.bids_offered += bids.len() as u64;
    match result {
        Ok(report) if !report.quarantined => {
            out.bids_failed += report.rejected as u64;
            out.bids_settled += (bids.len() - report.rejected) as u64;
            if transport_errors > 0 {
                out.rounds_failed += 1;
            }
            let by_user: BTreeMap<u32, &Bid> = bids.iter().map(|bid| (bid.user, bid)).collect();
            let outcome = deployment.cluster.outcome();
            for ((_, _), cleared) in outcome.results.range((index, 0)..=(index, u32::MAX)) {
                out.social_cost += cleared.social_cost;
                for (user, quote) in &cleared.quotes {
                    let bid = by_user[&(user.index() as u32)];
                    let p_any = 1.0 - bid.tasks.iter().fold(1.0, |miss, &(_, p)| miss * (1.0 - p));
                    out.payment +=
                        expected_payment_from_quotes(p_any, quote.success, quote.failure);
                }
            }
        }
        Ok(_) => {
            out.rounds_failed += 1;
            out.bids_failed += bids.len() as u64;
        }
        Err(error) => {
            out.rounds_failed += 1;
            out.bids_failed += bids.len() as u64;
            rep.violations.push(format!("round {index}: {error}"));
        }
    }
    if transport_errors > 0 {
        out.counts
            .entry("transport_errors")
            .and_modify(|n| *n += transport_errors)
            .or_insert(transport_errors);
    }
    ns
}

/// The timed set-up: the node listeners, the coordinator and the
/// warm-up rounds. Records the set-up time and the warm-up's check
/// results in `rep`; `None` when the listeners cannot bind.
fn setup(
    gen: &Regional,
    topology: &Topology,
    params: ClusterParams,
    pass: &Pass,
    rep: &mut Rep,
) -> Option<Deployment> {
    let start = CpuInstant::now();
    let mut d = match deploy(topology, params) {
        Ok(d) => d,
        Err(error) => {
            rep.violations
                .push(format!("cannot bind node listeners: {error}"));
            return None;
        }
    };
    let mut busy = start.elapsed_ns();
    let off = Tracer::new(false);
    let mut warm = Rep::default();
    let mut warm_wire = WireTotals::default();
    for index in 0..pass.warmup {
        busy += round(
            &mut d,
            gen,
            WARMUP_SEED,
            index,
            &off,
            &mut warm,
            &mut warm_wire,
        );
    }
    rep.violations.append(&mut warm.violations);
    rep.setup_ns = busy;
    Some(d)
}

/// One segment of `cluster-tcp`: a fresh deployment, then the segment's
/// `pass.block` rounds drawn from the workload seed. The cluster's
/// fingerprint must equal the transport-free ground truth.
pub fn segment(gen: &Regional, pass: &Pass) -> Rep {
    let mut rep = Rep::default();
    let topology = gen.topology();
    let params = ClusterParams {
        seed: pass.seed,
        workers: 1,
        payment_threads: 1,
        ..ClusterParams::default()
    };
    let tracer = Rc::new(Tracer::new(pass.traced));
    let Some(mut d) = setup(gen, &topology, params, pass, &mut rep) else {
        return rep;
    };
    *d.cluster.transport().tracer.borrow_mut() = Rc::clone(&tracer);

    let mut wire = WireTotals::default();
    let measured = pass.first_unit()..pass.first_unit() + pass.block;
    for index in measured.clone() {
        let ns = round(&mut d, gen, pass.seed, index, &tracer, &mut rep, &mut wire);
        rep.unit(ns);
        rep.round_ms.push(ns as f64 / 1e6);
    }
    rep.outcome.fingerprint = d.cluster.fingerprint();
    rep.outcome.total_paid = d.cluster.outcome().ledger.total_paid();
    drop(d);

    let rounds: Vec<Vec<Bid>> = (0..pass.warmup)
        .map(|i| gen.round(WARMUP_SEED, i))
        .chain(measured.map(|i| gen.round(pass.seed, i)))
        .collect();
    let truth = ground_truth(&topology, params, &rounds).fingerprint();
    if truth != rep.outcome.fingerprint {
        rep.violations.push(format!(
            "cluster fingerprint {:016x} != ground truth {truth:016x}",
            rep.outcome.fingerprint
        ));
    }
    rep.checked = rep.outcome.rounds;
    if pass.traced {
        let c = &mut rep.outcome.counts;
        c.insert("calls", wire.calls);
        c.insert("wire_bytes", wire.bytes);
        c.insert("straddlers", wire.straddlers);
        let rounds = rep.outcome.rounds as f64;
        let offered = rep.outcome.bids_offered as f64;
        let (_, round_ns) = tracer.total("cluster.run_round");
        let l = &mut rep.layers;
        l.insert("cluster.run_round_ms", ratio(round_ns as f64, rounds) / 1e6);
        l.insert(
            "cluster.phase1_ms",
            ratio(wire.clear_ns as f64, rounds) / 1e6,
        );
        l.insert(
            "cluster.coordinator_self_ms",
            ratio(round_ns.saturating_sub(wire.call_ns) as f64, rounds) / 1e6,
        );
        l.insert(
            "cluster.replication_ms",
            ratio(wire.replication_ns as f64, rounds) / 1e6,
        );
        l.insert("cluster.calls_per_round", ratio(wire.calls as f64, rounds));
        l.insert(
            "cluster.route_us",
            ratio(wire.route_ns as f64, rounds) / 1e3,
        );
        l.insert(
            "cluster.straddler_share",
            ratio(wire.straddlers as f64, wire.routed as f64),
        );
        l.insert("wire.bytes_per_bid", ratio(wire.bytes as f64, offered));
        l.insert(
            "wire.codec_us_per_round",
            ratio(wire.codec_ns as f64, rounds) / 1e3,
        );
        l.insert(
            "wire.call_us",
            ratio(
                wire.call_ns.saturating_sub(wire.codec_ns) as f64,
                wire.calls as f64,
            ) / 1e3,
        );
        crate::write_trace(&tracer, pass);
    }
    rep
}
