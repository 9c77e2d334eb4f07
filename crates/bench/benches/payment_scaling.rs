//! End-to-end allocation + payment scaling: the indexed lazy-greedy /
//! warm-started / parallel engine versus the pre-optimization reference
//! path, sweeping n ∈ {100, 500, 1000} users at 50 tasks, then the
//! fast engine alone out to n ∈ {10k, 100k} and a 1M-user
//! allocation-only smoke.
//!
//! Besides the Criterion display run, this bench writes
//! `BENCH_payment_scaling.json` at the repo root — machine-readable
//! `{mechanism, n, tasks, median_ns, ns_per_bid}` entries — so the perf
//! trajectory is tracked across PRs. Row kinds:
//!
//! * `reference` — pre-optimization scan greedy + cloning bisections;
//! * `fast` — the indexed engine through its public (cold-context) API;
//! * `fast_warm` — the same clear on a persistent [`ClearContext`]:
//!   steady-state campaign shape, where the CSR index, heap seeds, and
//!   workspaces carry over and syncing is a delta patch;
//! * `fast_alloc` — allocation only (no payments), the 1M smoke tier.
//!
//! Warm-context rows also carry the kernel's drained
//! [`ProfCounters`] — heap pops, bisection probes saved, index-reuse
//! hit rate, resident arena bytes — so a perf regression can be read
//! next to the counter that moved. The n=10k tier additionally times
//! profiled (per-clear [`ClearContext::take_prof`], the shard-worker
//! shape under `EngineConfig::profiling`) against unprofiled clears and
//! records the overhead, which must stay ≤ 5%.
//!
//! Modes: `--test` asserts fast/reference bitwise equivalence on a small
//! instance; `--smoke` adds a warm-vs-cold bitwise check plus a timed
//! n=10k clear and the profiling-overhead bound (the CI tier);
//! `--profile [n]` pins a hot clear loop for `scripts/profile.sh` to
//! hang perf on.

use std::collections::BTreeMap;
use std::time::Instant;

use criterion::{BenchmarkId, Criterion};
use mcs_bench::synthetic_multi_task;
use mcs_core::indexed::{ClearContext, ProfCounters};
use mcs_core::mechanism::{RewardQuote, RoundMechanism, WinnerDetermination};
use mcs_core::multi_task::{reference, MultiTaskMechanism};
use mcs_core::types::{TypeProfile, UserId};
use std::hint::black_box;

const TASKS: usize = 50;
const REQUIREMENT: f64 = 0.8;
const ALPHA: f64 = 10.0;
/// Sizes where the reference path is still affordable to time.
const SIZES: [usize; 3] = [100, 500, 1000];
/// Fast-engine-only sizes (reference would take hours here).
const LARGE_SIZES: [usize; 2] = [10_000, 100_000];
/// Allocation-only smoke size.
const ALLOC_SMOKE: usize = 1_000_000;

/// One cleared round's quotes.
type Quotes = BTreeMap<UserId, RewardQuote>;

/// The pre-PR path: reference scan greedy, then one cloning bisection per
/// winner.
fn clear_reference(profile: &TypeProfile) -> Quotes {
    let allocation = reference::select_winners(profile).expect("bench instance is feasible");
    allocation
        .winners()
        .map(|winner| {
            let critical = reference::critical_contribution(profile, winner)
                .expect("winner has a critical bid")
                .pos();
            let cost = profile.user(winner).expect("winner exists").cost();
            (winner, RewardQuote::contingent(ALPHA, critical, cost))
        })
        .collect()
}

/// The multi-task arm of the platform's [`RoundMechanism`].
fn mechanism(threads: usize) -> RoundMechanism {
    RoundMechanism::MultiTask(
        MultiTaskMechanism::new(ALPHA)
            .expect("valid alpha")
            .with_payment_threads(threads),
    )
}

/// The fast engine through its public entry points: every call builds a
/// fresh index, seeds, and workspaces (cold context).
fn clear_fast(profile: &TypeProfile, threads: usize) -> Quotes {
    let mechanism = mechanism(threads);
    let allocation = mechanism
        .select_winners(profile)
        .expect("bench instance is feasible");
    mechanism
        .quote_all(&mut ClearContext::new(), profile, &allocation)
        .expect("winners have critical bids")
}

/// The fast engine on a persistent arena: the shard-worker /
/// campaign-loop shape, where consecutive rounds delta-patch the index
/// instead of rebuilding it. Bitwise identical to [`clear_fast`].
fn clear_fast_warm(profile: &TypeProfile, threads: usize, context: &mut ClearContext) -> Quotes {
    let mechanism = mechanism(threads);
    let allocation = mechanism
        .allocate(context, profile)
        .expect("bench instance is feasible");
    mechanism
        .quote_all(context, profile, &allocation)
        .expect("winners have critical bids")
}

/// Allocation only — the piece that has to survive 10^6 bidders.
fn allocate_fast(profile: &TypeProfile, context: &mut ClearContext) -> usize {
    let mechanism = MultiTaskMechanism::new(ALPHA).expect("valid alpha");
    mechanism
        .allocate_with(context, profile)
        .expect("bench instance is feasible")
        .winner_count()
}

/// Times warm clears with and without the per-clear counter drain a
/// profiling-enabled shard worker performs ([`ClearContext::take_prof`]
/// after every round), returning `(plain_ns, profiled_ns,
/// overhead_pct)`. The counters themselves are always accumulated by
/// the kernel; the drain is the only thing the profiling flag adds, so
/// this is exactly the marginal cost of `EngineConfig::profiling`.
fn profiling_overhead(n: usize, runs: usize) -> (u128, u128, f64) {
    let profile = synthetic_multi_task(n, TASKS, REQUIREMENT, 1000 + n as u64);
    let mut context = ClearContext::new();
    // Warm the arena so both measurements see the steady state.
    black_box(clear_fast_warm(&profile, 1, &mut context));
    let plain = median_ns(runs, || {
        black_box(clear_fast_warm(black_box(&profile), 1, &mut context));
    });
    let profiled = median_ns(runs, || {
        black_box(clear_fast_warm(black_box(&profile), 1, &mut context));
        black_box(context.take_prof());
    });
    let overhead_pct = (profiled as f64 / plain as f64 - 1.0).max(0.0) * 100.0;
    (plain, profiled, overhead_pct)
}

/// Median wall-clock nanoseconds of `runs` timed executions.
fn median_ns(runs: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A `{mechanism, n, median_ns}` JSON row; `ns_per_bid` is derived.
/// Warm-context rows attach the kernel counters drained over `clears`
/// timed clears; the profiled n=10k row attaches its overhead.
struct Row {
    mechanism: &'static str,
    n: usize,
    median_ns: u128,
    kernel: Option<(ProfCounters, usize)>,
    profiling_overhead_pct: Option<f64>,
}

impl Row {
    fn plain(mechanism: &'static str, n: usize, median_ns: u128) -> Row {
        Row {
            mechanism,
            n,
            median_ns,
            kernel: None,
            profiling_overhead_pct: None,
        }
    }
}

fn write_json(rows: &[Row]) {
    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let ns_per_bid = row.median_ns / row.n as u128;
        let mut extra = String::new();
        if let Some((kernel, clears)) = &row.kernel {
            let reuse_rate = if kernel.prepares > 0 {
                kernel.reuse_hits as f64 / kernel.prepares as f64
            } else {
                0.0
            };
            extra.push_str(&format!(
                ", \"kernel\": {{\"clears\": {clears}, \"prepares\": {}, \
                 \"reuse_hits\": {}, \"reuse_hit_rate\": {reuse_rate:.3}, \
                 \"sync_patched\": {}, \"sync_reflattened\": {}, \
                 \"heap_pops\": {}, \"stale_reevals\": {}, \
                 \"probes_requested\": {}, \"probes_run\": {}, \
                 \"probes_saved\": {}, \"resident_bytes\": {}}}",
                kernel.prepares,
                kernel.reuse_hits,
                kernel.sync_patched,
                kernel.sync_reflattened,
                kernel.heap_pops,
                kernel.stale_reevals,
                kernel.probes_requested,
                kernel.probes_run,
                kernel.probes_saved(),
                kernel.resident_bytes,
            ));
        }
        if let Some(pct) = row.profiling_overhead_pct {
            extra.push_str(&format!(", \"profiling_overhead_pct\": {pct:.2}"));
        }
        json.push_str(&format!(
            "  {{\"mechanism\": \"{}\", \"n\": {}, \"tasks\": {TASKS}, \"median_ns\": {}, \"ns_per_bid\": {ns_per_bid}{extra}}}{}\n",
            row.mechanism,
            row.n,
            row.median_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_payment_scaling.json"
    );
    std::fs::write(path, json).expect("write benchmark JSON");
    println!("wrote {path}");
}

/// `--test`: one small instance, both paths, bitwise-identical quotes.
fn smoke() {
    let profile = synthetic_multi_task(48, 12, 0.7, 42);
    let reference_quotes = clear_reference(&profile);
    assert!(!reference_quotes.is_empty(), "smoke instance has winners");
    for threads in [1usize, 4] {
        let fast = clear_fast(&profile, threads);
        assert_eq!(
            fast.len(),
            reference_quotes.len(),
            "winner sets diverge at {threads} threads"
        );
        for (winner, quote) in &reference_quotes {
            let fast_quote = fast.get(winner).expect("same winners");
            assert_eq!(
                fast_quote.success.to_bits(),
                quote.success.to_bits(),
                "success quote diverges for {winner} at {threads} threads"
            );
            assert_eq!(
                fast_quote.failure.to_bits(),
                quote.failure.to_bits(),
                "failure quote diverges for {winner} at {threads} threads"
            );
        }
        // The persistent-arena path, twice on one context: the second
        // clear exercises the sync path and must stay bitwise put.
        let mut context = ClearContext::new();
        for round in 0..2 {
            let warm = clear_fast_warm(&profile, threads, &mut context);
            assert_eq!(
                warm, fast,
                "warm-context quotes diverge at {threads} threads, round {round}"
            );
        }
    }
    println!("payment_scaling smoke: fast engine matches reference bitwise. ok");
}

/// `--smoke`: the CI tier — the `--test` equivalence check plus a timed
/// fast clear at n=10k proving the large-n path completes end to end.
fn ci_smoke() {
    smoke();
    let n = 10_000;
    let profile = synthetic_multi_task(n, TASKS, REQUIREMENT, 1000 + n as u64);
    let start = Instant::now();
    let quotes = clear_fast(&profile, 1);
    let elapsed = start.elapsed();
    assert!(!quotes.is_empty(), "10k-user instance has winners");
    println!(
        "payment_scaling ci-smoke: n={n} cleared end to end in {:.2} ms ({} winners). ok",
        elapsed.as_secs_f64() * 1e3,
        quotes.len()
    );
    let (plain, profiled, overhead_pct) = profiling_overhead(n, 5);
    println!(
        "payment_scaling ci-smoke: profiling overhead at n={n}: \
         plain {:.2} ms, profiled {:.2} ms ({overhead_pct:.2}%). ok",
        plain as f64 / 1e6,
        profiled as f64 / 1e6
    );
    assert!(
        overhead_pct <= 5.0,
        "profiling overhead {overhead_pct:.2}% exceeds the 5% budget"
    );
}

/// `--profile [n]`: a pinned hot loop (no JSON, no Criterion) for perf /
/// flamegraph attachment; defaults to n=10k, warm-context clears.
fn profile_loop(n: usize) {
    let profile = synthetic_multi_task(n, TASKS, REQUIREMENT, 1000 + n as u64);
    let mut context = ClearContext::new();
    println!("profiling warm clears at n={n}, tasks={TASKS}; ctrl-C when sampled enough");
    let started = Instant::now();
    let mut iterations = 0u64;
    while started.elapsed().as_secs() < 60 {
        black_box(clear_fast_warm(black_box(&profile), 1, &mut context));
        iterations += 1;
    }
    println!(
        "profiled {iterations} clears in {:.1} s",
        started.elapsed().as_secs_f64()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Cargo appends `--bench` when running bench targets; ignore it.
    if args.iter().any(|a| a == "--test") {
        smoke();
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        ci_smoke();
        return;
    }
    if let Some(at) = args.iter().position(|a| a == "--profile") {
        let n = args
            .get(at + 1)
            .and_then(|raw| raw.parse().ok())
            .unwrap_or(10_000);
        profile_loop(n);
        return;
    }

    let threads = std::thread::available_parallelism()
        .map(|p| p.get().min(8))
        .unwrap_or(1);
    let mut rows: Vec<Row> = Vec::new();

    // Criterion display pass over the fast engine (the reference path at
    // n = 1000 is far too slow for criterion's sampling; its numbers come
    // from the manual median pass below).
    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("payment_scaling_fast");
    group.sample_size(10);
    for &n in &SIZES {
        let profile = synthetic_multi_task(n, TASKS, REQUIREMENT, 1000 + n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &profile, |b, p| {
            b.iter(|| black_box(clear_fast(black_box(p), threads)))
        });
    }
    group.finish();

    for &n in &SIZES {
        let profile = synthetic_multi_task(n, TASKS, REQUIREMENT, 1000 + n as u64);
        // Equal work check once per size before timing anything.
        let reference_quotes = clear_reference(&profile);
        let fast_quotes = clear_fast(&profile, threads);
        assert_eq!(reference_quotes, fast_quotes, "paths diverge at n = {n}");
        let winners = reference_quotes.len();

        let fast = median_ns(5, || {
            black_box(clear_fast(black_box(&profile), threads));
        });
        let runs = if n >= 1000 { 3 } else { 5 };
        let slow = median_ns(runs, || {
            black_box(clear_reference(black_box(&profile)));
        });
        println!(
            "n={n} tasks={TASKS} winners={winners}: reference {:.2} ms, fast {:.2} ms ({:.1}x)",
            slow as f64 / 1e6,
            fast as f64 / 1e6,
            slow as f64 / fast as f64
        );
        rows.push(Row::plain("reference", n, slow));
        rows.push(Row::plain("fast", n, fast));
    }

    // Fast-engine-only tier: full clear + whole-round payments, cold and
    // warm-context, with the cold/warm bitwise check standing in for the
    // (unaffordable) reference oracle.
    for &n in &LARGE_SIZES {
        let profile = synthetic_multi_task(n, TASKS, REQUIREMENT, 1000 + n as u64);
        let mut context = ClearContext::new();
        let cold_quotes = clear_fast(&profile, threads);
        let warm_quotes = clear_fast_warm(&profile, threads, &mut context);
        assert_eq!(cold_quotes, warm_quotes, "warm path diverges at n = {n}");
        let winners = cold_quotes.len();

        let runs = if n >= 100_000 { 1 } else { 3 };
        let cold = median_ns(runs, || {
            black_box(clear_fast(black_box(&profile), threads));
        });
        // Zero the context's accumulated counters so the drained kernel
        // row covers exactly the timed clears.
        let _ = context.take_prof();
        let warm = median_ns(runs, || {
            black_box(clear_fast_warm(black_box(&profile), threads, &mut context));
        });
        let kernel = context.take_prof();
        println!(
            "n={n} tasks={TASKS} winners={winners}: fast {:.2} ms, warm {:.2} ms ({:.0} / {:.0} ns per bid)",
            cold as f64 / 1e6,
            warm as f64 / 1e6,
            cold as f64 / n as f64,
            warm as f64 / n as f64
        );
        println!(
            "  kernel over {runs} warm clears: {} heap pops, {} of {} probes saved, \
             {} prepares ({} reused), {:.1} MiB resident",
            kernel.heap_pops,
            kernel.probes_saved(),
            kernel.probes_requested,
            kernel.prepares,
            kernel.reuse_hits,
            kernel.resident_bytes as f64 / (1024.0 * 1024.0)
        );
        rows.push(Row::plain("fast", n, cold));
        rows.push(Row {
            mechanism: "fast_warm",
            n,
            median_ns: warm,
            kernel: Some((kernel, runs)),
            profiling_overhead_pct: None,
        });
    }

    // The 1M smoke: allocation only, once — proving the index, seeds,
    // and one full lazy-greedy pass hold up at the ROADMAP's north-star
    // population.
    {
        let n = ALLOC_SMOKE;
        let profile = synthetic_multi_task(n, TASKS, REQUIREMENT, 1000 + n as u64);
        let mut context = ClearContext::new();
        // Warm the arena once so the timed pass measures the steady
        // state (sync + seeded run), not the first flatten.
        let winners = allocate_fast(&profile, &mut context);
        let _ = context.take_prof();
        let alloc = median_ns(1, || {
            black_box(allocate_fast(black_box(&profile), &mut context));
        });
        let kernel = context.take_prof();
        println!(
            "n={n} tasks={TASKS} winners={winners}: allocation {:.2} ms ({:.0} ns per bid)",
            alloc as f64 / 1e6,
            alloc as f64 / n as f64
        );
        rows.push(Row {
            mechanism: "fast_alloc",
            n,
            median_ns: alloc,
            kernel: Some((kernel, 1)),
            profiling_overhead_pct: None,
        });
    }

    // The marginal cost of `EngineConfig::profiling` at the CI-pinned
    // size: per-clear counter drain vs none, on one warm context.
    {
        let n = 10_000;
        let (plain, profiled, overhead_pct) = profiling_overhead(n, 7);
        println!(
            "n={n} profiling overhead: plain {:.2} ms, profiled {:.2} ms ({overhead_pct:.2}%)",
            plain as f64 / 1e6,
            profiled as f64 / 1e6
        );
        assert!(
            overhead_pct <= 5.0,
            "profiling overhead {overhead_pct:.2}% exceeds the 5% budget"
        );
        rows.push(Row {
            mechanism: "fast_warm_profiled",
            n,
            median_ns: profiled,
            kernel: None,
            profiling_overhead_pct: Some(overhead_pct),
        });
    }

    write_json(&rows);
}
