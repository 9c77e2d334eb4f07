//! Engine workloads (`st-fptas`, `mt-diurnal`): one client thread, a
//! closed loop over `Engine::submit` → `flush` → `drain`.
//!
//! Each unit is a drain group: the bids of [`ROUNDS_PER_DRAIN`] rounds
//! are generated (untimed), submitted round by round with a `flush`
//! closing each round, and one `drain` settles both. A round's latency
//! runs from its first `submit` to the return of the `drain` that
//! settles it, on the process CPU clock.

use mcs_core::types::{Task, TypeProfile};
use mcs_harness::oracle::{check_kernel, check_round, OracleConfig};
use mcs_platform::ingest::IngestQueue;
use mcs_platform::metrics::MetricsSnapshot;
use mcs_platform::prelude::*;

use crate::gen::RoundGen;
use crate::run::{Outcome, Pass, Rep, WARMUP_SEED};
use crate::stats::{fold, ratio, CpuInstant};
use crate::trace::Tracer;

/// Closed rounds held before each drain; admission sees their bids as
/// backlog until the drain.
const ROUNDS_PER_DRAIN: u64 = 2;

/// Engine configuration of both engine workloads: 1 shard worker and 1
/// payment thread (the benchmark runs on one CPU, where a second worker
/// would only time-slice with the first and inflate every stage timer),
/// rounds closed explicitly by `flush`.
fn engine_config(seed: u64, admission: AdmissionConfig, profiling: bool) -> EngineConfig {
    let mut config = EngineConfig::default()
        .with_seed(seed)
        .with_workers(1)
        .with_payment_threads(1)
        .with_admission(admission)
        .with_profiling(profiling);
    config.batch = BatchPolicy {
        max_bids: 1 << 20,
        max_ticks: u32::MAX,
    };
    config
}

/// Every this many rounds the oracle also re-runs the mechanism on
/// padded declarations (the critical-bid check, about as costly as the
/// round's own payments); every round gets the other checks.
const PADDED_EVERY: u64 = 8;

/// One round as it was submitted.
struct RoundInput {
    id: RoundId,
    offered: u64,
    shed: u64,
    rejected: u64,
    /// Admitted bids in admission order: the round's profile.
    admitted: Vec<Bid>,
    /// Whether the round closed at all; one whose every bid was shed
    /// never does.
    closed: bool,
}

struct Feeder<'a> {
    gen: &'a dyn RoundGen,
    tasks: Vec<Task>,
    config: EngineConfig,
    engine: Engine,
    next_round: u64,
    fingerprint: u64,
}

impl<'a> Feeder<'a> {
    /// Submits and drains one group drawn from `seed`; returns the
    /// measured time and each round's latency.
    fn group(&mut self, seed: u64, tracer: &Tracer) -> (u64, Vec<RoundInput>, Vec<f64>) {
        let bids: Vec<Vec<Bid>> = (0..ROUNDS_PER_DRAIN)
            .map(|k| self.gen.round(seed, self.next_round + k))
            .collect();
        self.next_round += ROUNDS_PER_DRAIN;
        let group_start = CpuInstant::now();
        let group_span = tracer.begin("group", self.engine.next_round_id().0);
        let mut inputs = Vec::with_capacity(bids.len());
        let mut starts = Vec::with_capacity(bids.len());
        for round in bids {
            starts.push(CpuInstant::now());
            let id = self.engine.next_round_id();
            let mut input = RoundInput {
                id,
                offered: round.len() as u64,
                shed: 0,
                rejected: 0,
                admitted: Vec::with_capacity(round.len()),
                closed: false,
            };
            let span = tracer.begin("platform.submit", id.0);
            for bid in round {
                match self.engine.submit(&bid) {
                    Ok(Admission::Admitted) => input.admitted.push(bid),
                    Ok(Admission::Shed(_)) => input.shed += 1,
                    Err(_) => input.rejected += 1,
                }
            }
            tracer.end(span);
            tracer.span("platform.flush", id.0, || self.engine.flush());
            input.closed = self.engine.next_round_id() != id;
            inputs.push(input);
        }
        let first = inputs[0].id.0;
        tracer.span("platform.drain", first, || self.engine.drain());
        tracer.end(group_span);
        let end = CpuInstant::now();
        let latencies = starts
            .iter()
            .zip(&inputs)
            .filter(|(_, input)| input.closed)
            .map(|(start, _)| end.since(*start) as f64 / 1e6)
            .collect();
        (end.since(group_start), inputs, latencies)
    }

    /// Untimed: accounts, fingerprints and oracle-checks a drained group.
    fn settle(&mut self, inputs: Vec<RoundInput>, rep: &mut Rep) {
        let out = &mut rep.outcome;
        for input in inputs {
            out.bids_offered += input.offered;
            out.bids_failed += input.shed + input.rejected;
            if !input.closed {
                *out.counts.entry("rounds_fully_shed").or_insert(0) += 1;
                continue;
            }
            out.rounds += 1;
            let deferred: u64 = self
                .engine
                .quarantine()
                .iter()
                .filter(|q| q.id == input.id)
                .map(|q| q.bidders as u64)
                .sum();
            let Some(cleared) = self.engine.results().get(&input.id) else {
                out.rounds_failed += 1;
                out.bids_failed += input.admitted.len() as u64;
                continue;
            };
            let cleared_bids = input.admitted.len() - deferred as usize;
            out.bids_failed += deferred;
            out.bids_settled += cleared_bids as u64;
            let settlement = &self.engine.settlements()[&input.id];
            out.payment += cleared.economics.expected_payment;
            out.social_cost += cleared.economics.social_cost;
            self.fingerprint = fold(self.fingerprint, &round_words(cleared, settlement));

            let mut queue = IngestQueue::new(self.tasks.iter().map(|t| t.id()));
            for bid in &input.admitted[..cleared_bids] {
                if let Err(error) = queue.push(bid) {
                    rep.violations
                        .push(format!("{}: admitted bid fails ingest: {error}", input.id));
                }
            }
            let mut oracle = OracleConfig::default();
            if input.id.0 % PADDED_EVERY != 0 {
                oracle.max_padded_winners = 0;
            }
            match TypeProfile::new(queue.drain(), self.tasks.clone()) {
                Ok(profile) => {
                    for violation in
                        check_round(&oracle, &profile, cleared, settlement, &self.config)
                    {
                        rep.violations.push(format!("{violation:?}"));
                    }
                    rep.checked += 1;
                }
                Err(error) => rep
                    .violations
                    .push(format!("{}: profile: {error}", input.id)),
            }
        }
    }
}

/// The words a settled round contributes to the outcome fingerprint.
fn round_words(cleared: &ClearedRound, settlement: &RoundSettlement) -> Vec<u64> {
    let mut words = vec![cleared.id.0];
    for (user, quote) in &cleared.quotes {
        words.extend([
            user.index() as u64,
            quote.success.to_bits(),
            quote.failure.to_bits(),
        ]);
    }
    for (user, &done) in &cleared.reports {
        words.push(user.index() as u64 * 2 + done as u64);
    }
    for (user, paid) in &settlement.payouts {
        words.extend([user.index() as u64, paid.to_bits()]);
    }
    words.extend([settlement.total.to_bits(), cleared.social_cost.to_bits()]);
    words
}

/// The timed set-up: `Engine::new` and the warm-up groups. Records the
/// set-up time and the warm-up's check results in `rep`.
fn setup<'a>(
    gen: &'a dyn RoundGen,
    config: EngineConfig,
    pass: &Pass,
    rep: &mut Rep,
) -> Feeder<'a> {
    let tasks = gen.tasks();
    let start = CpuInstant::now();
    let engine = Engine::new(config, tasks.clone());
    let mut busy = start.elapsed_ns();
    let mut d = Feeder {
        gen,
        tasks,
        config,
        engine,
        next_round: 0,
        fingerprint: 0,
    };
    let mut warm = Rep::default();
    let off = Tracer::new(false);
    for _ in 0..pass.warmup {
        let (ns, inputs, _) = d.group(WARMUP_SEED, &off);
        busy += ns;
        d.settle(inputs, &mut warm);
    }
    rep.violations.append(&mut warm.violations);
    rep.setup_ns = busy;
    d.fingerprint = 0;
    d.next_round = ROUNDS_PER_DRAIN * pass.first_unit();
    d
}

/// One segment of an engine workload: a fresh engine, then the
/// segment's `pass.block` drain groups drawn from the workload seed.
pub fn segment(gen: &dyn RoundGen, admission: AdmissionConfig, pass: &Pass) -> Rep {
    let mut rep = Rep::default();
    let config = engine_config(pass.seed, admission, pass.traced);
    let mut d = setup(gen, config, pass, &mut rep);

    let tracer = Tracer::new(pass.traced);
    let before = d.engine.metrics().snapshot();
    for _ in 0..pass.block {
        let (ns, inputs, latencies) = d.group(pass.seed, &tracer);
        rep.unit(ns);
        rep.round_ms.extend(latencies);
        d.settle(inputs, &mut rep);
        if pass.traced {
            let snapshot = d.engine.metrics().snapshot();
            for violation in check_kernel(&snapshot.kernel) {
                rep.violations.push(format!("{violation:?}"));
            }
        }
    }
    let after = d.engine.metrics().snapshot();
    rep.outcome.fingerprint = d.fingerprint;
    rep.outcome.total_paid = d.engine.ledger().total_paid();
    counts(&mut rep.outcome, &before, &after);
    if pass.traced {
        layers(&mut rep, &before, &after, &tracer);
        crate::write_trace(&tracer, pass);
    }
    rep
}

fn stage(snapshot: &MetricsSnapshot, stage: Stage) -> (u64, u64) {
    snapshot
        .stages
        .iter()
        .find(|s| s.stage == stage.name())
        .map_or((0, 0), |s| (s.count, s.total_ns))
}

/// Counter delta of `stage` between two snapshots: `(count, ns)`.
fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, s: Stage) -> (f64, f64) {
    let (c0, n0) = stage(before, s);
    let (c1, n1) = stage(after, s);
    ((c1 - c0) as f64, (n1 - n0) as f64)
}

fn counts(out: &mut Outcome, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let k0 = &before.kernel;
    let k1 = &after.kernel;
    let c = &mut out.counts;
    c.insert("bids_shed", after.bids_shed - before.bids_shed);
    c.insert("bids_rejected", after.bids_rejected - before.bids_rejected);
    c.insert("bids_deferred", after.bids_deferred - before.bids_deferred);
    c.insert(
        "rounds_degraded",
        after.rounds_degraded - before.rounds_degraded,
    );
    c.insert("winners", after.winners_selected - before.winners_selected);
    c.insert("kernel.prepares", k1.prepares - k0.prepares);
    c.insert("kernel.reuse_hits", k1.reuse_hits - k0.reuse_hits);
    c.insert("kernel.sync_patched", k1.sync_patched - k0.sync_patched);
    c.insert(
        "kernel.users_appended",
        k1.users_appended - k0.users_appended,
    );
    c.insert("kernel.heap_pops", k1.heap_pops - k0.heap_pops);
    c.insert("kernel.stale_reevals", k1.stale_reevals - k0.stale_reevals);
    c.insert(
        "kernel.probes_requested",
        k1.probes_requested - k0.probes_requested,
    );
    c.insert("kernel.probes_run", k1.probes_run - k0.probes_run);
}

fn layers(rep: &mut Rep, before: &MetricsSnapshot, after: &MetricsSnapshot, tracer: &Tracer) {
    let rounds = rep.outcome.rounds as f64;
    let (pay_n, pay_ns) = delta(before, after, Stage::Pay);
    let (alloc_n, alloc_ns) = delta(before, after, Stage::Allocate);
    let (shard_n, shard_ns) = delta(before, after, Stage::Shard);
    let (settle_n, settle_ns) = delta(before, after, Stage::Settle);
    let winners = (after.winners_selected - before.winners_selected) as f64;
    let cleared = (after.rounds_cleared - before.rounds_cleared) as f64;
    let k0 = &before.kernel;
    let k1 = &after.kernel;
    let kd = |a: u64, b: u64| (b - a) as f64;
    let prepares = kd(k0.prepares, k1.prepares);
    let pops = kd(k0.heap_pops, k1.heap_pops);
    let requested = kd(k0.probes_requested, k1.probes_requested);
    let saved = kd(k0.probes_saved(), k1.probes_saved());
    let (_, submit_ns) = tracer.total("platform.submit");
    let (drain_n, drain_ns) = tracer.total("platform.drain");
    let offered = (after.bids_received - before.bids_received) as f64;
    let failed = rep.outcome.rounds_failed as f64;
    let l = &mut rep.layers;
    l.insert("core.pay_ms_per_round", ratio(pay_ns, pay_n) / 1e6);
    l.insert("core.pay_ms_per_winner", ratio(pay_ns, winners) / 1e6);
    l.insert("core.pay_over_allocate", ratio(pay_ns, alloc_ns));
    l.insert("core.allocate_ms_per_round", ratio(alloc_ns, alloc_n) / 1e6);
    l.insert("core.winners_per_round", ratio(winners, cleared));
    l.insert(
        "kernel.probes_requested_per_round",
        ratio(requested, rounds),
    );
    l.insert(
        "kernel.probes_run_per_round",
        ratio(kd(k0.probes_run, k1.probes_run), rounds),
    );
    l.insert("kernel.probe_saved_share", ratio(saved, requested));
    l.insert("kernel.heap_pops_per_round", ratio(pops, rounds));
    l.insert(
        "kernel.stale_reeval_share",
        ratio(kd(k0.stale_reevals, k1.stale_reevals), pops),
    );
    l.insert(
        "kernel.reuse_hit_share",
        ratio(kd(k0.reuse_hits, k1.reuse_hits), prepares),
    );
    l.insert(
        "kernel.sync_patched_share",
        ratio(kd(k0.sync_patched, k1.sync_patched), prepares),
    );
    l.insert(
        "kernel.users_appended_per_round",
        ratio(kd(k0.users_appended, k1.users_appended), rounds),
    );
    l.insert(
        "kernel.arena_resident_mb",
        k1.arena_resident_bytes as f64 / (1 << 20) as f64,
    );
    l.insert("platform.submit_ns", ratio(submit_ns as f64, offered));
    l.insert(
        "platform.shed_share",
        ratio((after.bids_shed - before.bids_shed) as f64, offered),
    );
    l.insert(
        "platform.reject_share",
        ratio((after.bids_rejected - before.bids_rejected) as f64, offered),
    );
    l.insert(
        "platform.drain_ms",
        ratio(drain_ns as f64, drain_n as f64) / 1e6,
    );
    l.insert("platform.rounds_per_drain", ratio(rounds, drain_n as f64));
    l.insert(
        "platform.drain_parallelism",
        ratio(shard_ns, drain_ns as f64),
    );
    l.insert(
        "platform.shard_ms_per_round",
        ratio(shard_ns, shard_n) / 1e6,
    );
    l.insert(
        "platform.settle_us_per_round",
        ratio(settle_ns, settle_n) / 1e3,
    );
    l.insert("platform.quarantine_share", ratio(failed, rounds));
}
