//! Pipeline benchmark: bid submitted → round settled.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <st-fptas|mt-diurnal|cluster-tcp|campaign-residual> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a sequence of segments over the seed's input stream, each on
//! a fresh set-up, for about `--seconds` (see [`run`]). `--trace 0`
//! measures the end-to-end metrics on engine defaults with no benchmark
//! tracing. `--trace 1` runs untraced segments for half the time, then
//! replays the first segment traced (spans, engine profiling, transport
//! timing) and once more untraced, and reports the per-layer metrics.
//! Every run checks the outputs of every segment and runs a determinism
//! self-check; the last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. Any failed
//! check makes the exit code non-zero.

mod campaign_wl;
mod cluster_wl;
mod engine_wl;
mod gen;
mod run;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use mcs_harness::scenario::spec::ArrivalSpec;
use mcs_platform::prelude::{AdmissionConfig, ShedPolicy};

use run::{Outcome, Pass, Rep, Run};
use stats::{median, Summary};

/// The workloads and why each was chosen (mirrored in `BENCHMARK.json`).
const WORKLOADS: [(&str, &str); 4] = [
    (
        "st-fptas",
        "single-task FPTAS rounds of 16 taxi bidders: bisection critical-bid pay is ~99% of a round",
    ),
    (
        "mt-diurnal",
        "~300 bidders x 20 tasks on a diurnal curve with flash bursts: indexed greedy kernel, admission sheds on bursts",
    ),
    (
        "cluster-tcp",
        "4-region 1-node cluster over TCP, 400 bidders, 20% straddlers: small sub-rounds, so RPC, codec, replication show",
    ),
    (
        "campaign-residual",
        "chained closed-loop campaigns, 5 tasks at 0.9, 30% failures, 40 of 100 bidders a round: many small residual rounds on restored engines",
    ),
];

/// Every per-layer metric with its unit; workloads that never reach a
/// layer report 0 for it.
const PER_LAYER: [(&str, &str); 38] = [
    ("core.pay_ms_per_round", "ms"),
    ("core.pay_ms_per_winner", "ms"),
    ("core.pay_over_allocate", "ratio"),
    ("core.allocate_ms_per_round", "ms"),
    ("core.winners_per_round", "count"),
    ("kernel.probes_requested_per_round", "count"),
    ("kernel.probes_run_per_round", "count"),
    ("kernel.probe_saved_share", "ratio"),
    ("kernel.heap_pops_per_round", "count"),
    ("kernel.stale_reeval_share", "ratio"),
    ("kernel.reuse_hit_share", "ratio"),
    ("kernel.sync_patched_share", "ratio"),
    ("kernel.users_appended_per_round", "count"),
    ("kernel.arena_resident_mb", "MiB"),
    ("platform.submit_ns", "ns"),
    ("platform.shed_share", "ratio"),
    ("platform.reject_share", "ratio"),
    ("platform.drain_ms", "ms"),
    ("platform.rounds_per_drain", "count"),
    ("platform.drain_parallelism", "ratio"),
    ("platform.shard_ms_per_round", "ms"),
    ("platform.settle_us_per_round", "us"),
    ("platform.quarantine_share", "ratio"),
    ("cluster.run_round_ms", "ms"),
    ("cluster.phase1_ms", "ms"),
    ("cluster.coordinator_self_ms", "ms"),
    ("cluster.replication_ms", "ms"),
    ("cluster.calls_per_round", "count"),
    ("cluster.route_us", "us"),
    ("cluster.straddler_share", "ratio"),
    ("wire.bytes_per_bid", "bytes"),
    ("wire.codec_us_per_round", "us"),
    ("wire.call_us", "us"),
    ("campaign.round_ms", "ms"),
    ("campaign.rounds_per_campaign", "count"),
    ("campaign.gated_share", "ratio"),
    ("campaign.covered_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Measured seconds when `--seconds` is not given: the `run_seconds` of
/// `BENCHMARK.json`, the run length its bounds were checked at.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|&(name, _)| name)
                        .find(|&name| name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

/// Warm-up units per set-up (enough rounds to fill the clearing
/// arenas), and measured units per segment: about 2–3.5 s of work, so
/// that a 25-second run makes 5–10 segments (for `mt-diurnal`, one whole
/// 48-round arrival horizon, so every segment holds the same curve).
fn units(workload: &str) -> (u64, u64) {
    match workload {
        "st-fptas" => (2, 20),
        "mt-diurnal" => (4, 24),
        "cluster-tcp" => (40, 400),
        _ => (30, 400),
    }
}

/// The `mt-diurnal` arrival curve: 300 bids a round ±25% over a 24-round
/// day, plus six single-round flash bursts of 400 fresh bidders per
/// 48-round horizon.
fn diurnal_spec() -> ArrivalSpec {
    ArrivalSpec {
        base: 300.0,
        amplitude: 0.25,
        period: 24,
        phase: 0.0,
        bursts: 6,
        burst_mass: 400,
        burst_width: 1,
    }
}

/// Admission for `mt-diurnal`: a drain group of two diurnal rounds stays
/// under the high watermark; a burst round crosses it.
fn diurnal_admission() -> AdmissionConfig {
    AdmissionConfig {
        high_watermark: 800,
        low_watermark: 400,
        policy: ShedPolicy::TailDrop,
        clear_budget: 0,
    }
}

/// Restricts this thread, and every thread it spawns afterwards, to CPU
/// `cpu`.
fn pin_to_cpu(cpu: usize) -> std::io::Result<()> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other(format!("cpu {cpu} out of range")))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is an initialised buffer of exactly `cpusetsize`
    // bytes that outlives the call; pid 0 names the calling thread, and
    // the kernel only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Runs one segment of `pass.workload`.
fn run_segment(pass: &Pass) -> Rep {
    match pass.workload {
        "st-fptas" => {
            let gen = gen::SingleTask::new(40, 16);
            engine_wl::segment(&gen, AdmissionConfig::default(), pass)
        }
        "mt-diurnal" => {
            let gen = gen::Diurnal::new(20, 600, &diurnal_spec(), 2 * units("mt-diurnal").1);
            engine_wl::segment(&gen, diurnal_admission(), pass)
        }
        "cluster-tcp" => {
            let gen = gen::Regional::new(4, 800, 400, 0.2);
            cluster_wl::segment(&gen, pass)
        }
        "campaign-residual" => campaign_wl::segment(pass),
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

/// Writes a traced segment's spans as JSON and collapsed stacks.
pub fn write_trace(tracer: &trace::Tracer, pass: &Pass) {
    if !pass.emit_spans {
        return;
    }
    let dir = std::path::Path::new("perfbench/out");
    let stem = format!("{}-seed{}", pass.workload, pass.seed);
    match tracer.write(dir, &stem, pass.workload) {
        Ok(()) => println!(
            "spans: {}/{stem}.spans.json and {stem}.folded",
            dir.display()
        ),
        Err(error) => eprintln!("cannot write spans under {}: {error}", dir.display()),
    }
}

/// The commit the checkout came from, when it is a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Determinism self-check: a tiny traced segment run twice with one
/// seed must give identical counts (fingerprint, shed/reject/quarantine
/// counts, kernel counters, calls and wire bytes).
fn self_check(workload: &'static str, seed: u64) -> Result<Outcome, String> {
    let tiny = Pass {
        workload,
        seed,
        block: 2,
        segment: 0,
        warmup: 1,
        traced: true,
        emit_spans: false,
    };
    let first = run_segment(&tiny);
    let second = run_segment(&tiny);
    if let Some(violation) = first.violations.first() {
        return Err(format!("self-check segment violated: {violation}"));
    }
    if first.outcome != second.outcome {
        return Err(format!(
            "self-check outcomes differ: {}",
            run::outcome_diff(&first.outcome, &second.outcome)
        ));
    }
    Ok(first.outcome)
}

/// The end-to-end metrics; times are scaled to a host of reference
/// speed.
fn end_to_end(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let latency = Summary::of(&run.round_ms);
    let host = run.host_factor();
    vec![
        ("ns_per_bid", run.ns_per_bid() * host, "ns"),
        ("round_p50_ms", latency.p50 * host, "ms"),
        ("round_p90_ms", latency.p90 * host, "ms"),
        ("setup_s", median(&run.setup_s) * host, "s"),
        ("peak_rss_mb", run.peak_rss_mb, "MiB"),
        (
            "served_bid_share",
            1.0 - run.outcome.failed_bid_share(),
            "ratio",
        ),
        (
            "overpayment_ratio",
            run.outcome.overpayment_ratio(),
            "ratio",
        ),
    ]
}

/// The traced replay of the first segment must settle its untraced
/// outcome bit for bit; it also carries its own check results.
fn replay_mismatches(timed: &Run, traced: &Rep) -> Vec<String> {
    let mut problems = traced.violations.clone();
    let (a, b) = (&timed.first, &traced.outcome);
    for (what, x, y) in [
        ("fingerprint", a.fingerprint, b.fingerprint),
        ("total_paid", a.total_paid.to_bits(), b.total_paid.to_bits()),
        (
            "overpayment_ratio",
            a.overpayment_ratio().to_bits(),
            b.overpayment_ratio().to_bits(),
        ),
    ] {
        if x != y {
            problems.push(format!("traced run changed {what}: {x:#x} vs {y:#x}"));
        }
    }
    problems
}

/// Every per-layer metric of the traced segment, plus the overhead of
/// tracing: its measured time against an untraced replay of the same
/// segment run right after it, each scaled by its own host factor.
fn per_layer(traced: &Rep, untraced: &Rep) -> Vec<(&'static str, f64, &'static str)> {
    let overhead = stats::ratio(traced.scaled_busy_ns(), untraced.scaled_busy_ns()) - 1.0;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "bench.trace_overhead" => overhead,
                _ => traced.layers.get(name).copied().unwrap_or(0.0),
            };
            (name, value, unit)
        })
        .collect()
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let why = WORKLOADS
        .iter()
        .find(|&&(name, _)| name == args.workload)
        .map_or("", |&(_, why)| why);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} commit {} nproc {nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );
    println!("why: {why}");
    // Every workload runs on one CPU. Left to float over the two virtual
    // CPUs of a shared host, every hand-off (a drain's worker spawn, a
    // TCP call) waits for the other virtual CPU to be scheduled, and that
    // wait swung every timing by 25-45% between runs; pinned, the spread
    // is a few percent. The benchmark therefore measures work and latency
    // per round, not parallel speed-up.
    let cpu = nproc.saturating_sub(1);
    match pin_to_cpu(cpu) {
        Ok(()) => println!("affinity: pinned to cpu {cpu}"),
        Err(error) => println!("affinity: cannot pin to cpu {cpu} ({error}); running unpinned"),
    }

    let (warmup, block) = units(args.workload);
    let pass = |traced| Pass {
        workload: args.workload,
        seed: args.seed,
        block,
        segment: 0,
        warmup,
        traced,
        emit_spans: traced,
    };
    let untraced = pass(false);
    let mut problems: Vec<String> = Vec::new();
    let start = std::time::Instant::now();
    let (timed, metrics, attempted, failed) = if args.trace {
        let timed = Run::repeat(args.seconds / 2.0, &untraced, run_segment);
        let traced = run_segment(&pass(true));
        let again = run_segment(&untraced);
        problems.extend(replay_mismatches(&timed, &traced));
        problems.extend(again.violations.iter().cloned());
        let metrics = per_layer(&traced, &again);
        let (rounds, failed) = (traced.outcome.rounds, traced.outcome.rounds_failed);
        (timed, metrics, rounds, failed)
    } else {
        let timed = Run::repeat(args.seconds, &untraced, run_segment);
        let metrics = end_to_end(&timed);
        let (rounds, failed) = (timed.outcome.rounds, timed.outcome.rounds_failed);
        (timed, metrics, rounds, failed)
    };
    problems.extend(timed.violations.iter().cloned());
    if timed.outcome.rounds == 0 {
        problems.push("no round completed in the measured phase".to_string());
    }
    match self_check(args.workload, args.seed) {
        Ok(outcome) => println!(
            "self-check: two tiny traced segments agree on {} counts (fingerprint {:016x})",
            outcome.counts.len(),
            outcome.fingerprint
        ),
        Err(message) => problems.push(message),
    }

    let out = &timed.outcome;
    println!(
        "clock: {} segments of {} units, {:.3} s of process CPU time measured in {:.3} s of wall time",
        timed.segments,
        block,
        timed.busy_ns as f64 / 1e9,
        start.elapsed().as_secs_f64()
    );
    let segments = Summary::of(
        &timed
            .segment_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    println!(
        "segment_ms: n={} min={:.3} p25={:.3} p50={:.3} p75={:.3} max={:.3}",
        segments.count, segments.min, segments.p25, segments.p50, segments.p75, segments.max
    );
    let probe = Summary::of(
        &timed
            .probe_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    println!(
        "host: probe n={} min={:.4} p50={:.4} max={:.4} ms, reference {} ms; end-to-end times scaled by {:.4}",
        probe.count,
        probe.min,
        probe.p50,
        probe.max,
        stats::PROBE_REFERENCE_NS / 1e6,
        timed.host_factor()
    );
    println!(
        "unscaled: ns_per_bid = {} ns",
        json_number(timed.ns_per_bid())
    );
    let latency = Summary::of(&timed.round_ms);
    println!(
        "sample: {} units, {} rounds ({} beyond p90), {} bids offered, {} settled, {} failed, {} rounds failed, {} rounds or campaigns checked",
        timed.units,
        out.rounds,
        Summary::beyond_p90(&timed.round_ms),
        out.bids_offered,
        out.bids_settled,
        out.bids_failed,
        out.rounds_failed,
        timed.checked
    );
    println!(
        "round_ms (unscaled): n={} min={:.4} p25={:.4} p50={:.4} p75={:.4} p90={:.4} max={:.4}",
        latency.count, latency.min, latency.p25, latency.p50, latency.p75, latency.p90, latency.max
    );
    let setup = Summary::of(&timed.setup_s);
    println!(
        "setup_s (unscaled): n={} min={:.4} p50={:.4} max={:.4}",
        setup.count, setup.min, setup.p50, setup.max
    );
    println!(
        "outcome: fingerprint {:016x}, total_paid {}, failed_bid_share {} ratio",
        out.fingerprint,
        out.total_paid,
        out.failed_bid_share()
    );
    if let Some(errors) = out.counts.get("transport_errors") {
        println!("transport: {errors} failed calls (counted, not retried)");
    }
    for (name, value, unit) in end_to_end(&timed) {
        println!("metric {name} = {} {unit}", json_number(value));
    }
    if args.trace {
        for (name, value, unit) in &metrics {
            println!("layer {name} = {} {unit}", json_number(*value));
        }
    }
    for problem in problems.iter().take(20) {
        println!("CHECK FAILED: {problem}");
    }

    let correct = problems.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
