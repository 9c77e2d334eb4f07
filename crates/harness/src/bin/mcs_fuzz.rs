//! `mcs-fuzz` — seeded chaos campaigns against the auction platform.
//!
//! Synthesizes a faulted bid stream from a seed, drives it through a real
//! engine, and oracle-checks every surviving round against the paper's
//! economic invariants. Exits non-zero on any violation, so it slots
//! straight into CI.
//!
//! ```text
//! mcs-fuzz [--seed S] [--rounds N] [--faults F] [--tasks T] [--bids B]
//!          [--workers W] [--payment-threads P] [--drain-every D]
//!          [--verify-determinism] [--ci-smoke] [--soak] [--campaign]
//!          [--scenario NAME|PATH|all] [--record-trace FILE]
//!          [--replay-trace FILE] [--print-baseline]
//!          [--cluster] [--nodes N] [--bands B]
//! ```
//!
//! * `--seed`    campaign seed: bid stream, fault plan, execution draws (default 1)
//! * `--rounds`  logical rounds to synthesize (default 60)
//! * `--faults`  fault intensity: per-round fault probability in [0, 1] (default 0.35)
//! * `--tasks`   published tasks per round; 1 = FPTAS, >1 = greedy (default 1)
//! * `--bids`    well-formed bids per round (default 8)
//! * `--workers` shard workers (default 4)
//! * `--payment-threads` per-round payment fan-out (default 1)
//! * `--drain-every`     drain cadence in logical rounds (default 4)
//! * `--verify-determinism` re-run at several worker/payment-thread
//!   combinations and require identical fingerprints
//! * `--ci-smoke` run the fixed CI campaign matrix (<30 s) and exit
//!   non-zero on any violation or fingerprint mismatch
//! * `--soak` sustained-overload mode: every logical round arrives 10×
//!   oversubscribed against tail-drop admission and a clearing budget.
//!   Asserts the memory proxies stay bounded (backlog never exceeds the
//!   high watermark, the trace ring never wraps), that sheds happen and
//!   are fully accounted, that over-budget rounds partially clear, and
//!   that fingerprints stay bitwise identical across worker counts.
//!   Combine with `--ci-smoke` for the shortened CI variant.
//! * `--campaign` closed-loop mode: drives seeded *auction* campaigns
//!   (`mcs-campaign` residual re-auction loops) across a matrix of
//!   execution-failure rates, with and without chaos faults (report
//!   flips, shard panics, queue reorders) layered on top, and asserts
//!   the closed-loop oracles — residual monotonicity, termination,
//!   calibration sanity, payout conservation — plus bitwise fingerprint
//!   determinism across worker/payment-thread counts. Combine with
//!   `--ci-smoke` for the shortened CI variant.
//! * `--scenario` corpus mode: runs a named scenario from `scenarios/`
//!   (or a `.toml` path, or `all` for the whole corpus) through the
//!   scenario driver — diurnal/bursty arrivals, regional PoS shocks,
//!   strategic populations — and checks the outcome against the
//!   scenario's pinned `[baseline]` (missing baseline = failure).
//!   Scenarios with a `[strategy]` section also run the online SP twin
//!   sweep. Add `--verify-determinism` for the worker × payment-thread
//!   fingerprint matrix.
//! * `--cluster` deployment mode: runs every pinned corpus scenario
//!   through `mcs-cluster` deployments and requires (a) 1-node and
//!   `--nodes`-node loopback runs to produce bitwise-identical
//!   fingerprints, (b) the in-process `scenario_ground_truth` oracle to
//!   agree, and (c) the three cluster chaos campaigns to hold: node
//!   loss fails over with an unchanged fingerprint, partition
//!   quarantines the round with a complete post-mortem, duplicate
//!   delivery is absorbed bit for bit. Add `--verify-determinism` to
//!   widen the node matrix and run the loopback-vs-TCP transport
//!   equivalence check over real ephemeral-port sockets.
//! * `--nodes` cluster node count for `--cluster` (default 3)
//! * `--bands` region bands (= shards) for `--cluster` (default 6)
//! * `--record-trace FILE` write the run's checksummed drive log
//! * `--replay-trace FILE` replay a recorded log instead of generating
//!   bids; the outcome must still match the pinned baseline bitwise
//! * `--print-baseline` print the observed `[baseline]` block (for
//!   pinning new or re-versioned scenarios) instead of enforcing one
//!
//! A failing campaign is reproduced by re-running with the same `--seed`,
//! `--rounds`, `--faults`, and `--tasks`; the fingerprint printed at the
//! end must match bitwise.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mcs_campaign::prelude::{CampaignRunner, SyntheticBidSource};
use mcs_core::types::{Task, TaskId};
use mcs_harness::prelude::*;
use mcs_obs::replay::ReplayLog;
use mcs_platform::batch::RoundId;
use mcs_platform::config::{AdmissionConfig, EngineConfig, ShedPolicy};

// mcs-campaign's config — aliased because the chaos harness already
// says `CampaignConfig` for a *fault* campaign.
use mcs_campaign::prelude::CampaignConfig as LoopConfig;

struct Options {
    seed: u64,
    rounds: u64,
    faults: f64,
    tasks: usize,
    bids: usize,
    workers: usize,
    payment_threads: usize,
    drain_every: u64,
    verify_determinism: bool,
    ci_smoke: bool,
    soak: bool,
    campaign_loop: bool,
    scenario: Option<String>,
    record_trace: Option<String>,
    replay_trace: Option<String>,
    print_baseline: bool,
    cluster: bool,
    nodes: u32,
    bands: u32,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut options = Options {
            seed: 1,
            rounds: 60,
            faults: 0.35,
            tasks: 1,
            bids: 8,
            workers: 4,
            payment_threads: 1,
            drain_every: 4,
            verify_determinism: false,
            ci_smoke: false,
            soak: false,
            campaign_loop: false,
            scenario: None,
            record_trace: None,
            replay_trace: None,
            print_baseline: false,
            cluster: false,
            nodes: 3,
            bands: 6,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value =
                |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
            match arg.as_str() {
                "--seed" => options.seed = parse(&value("--seed")?)?,
                "--rounds" => options.rounds = parse(&value("--rounds")?)?,
                "--faults" => options.faults = parse(&value("--faults")?)?,
                "--tasks" => options.tasks = parse(&value("--tasks")?)?,
                "--bids" => options.bids = parse(&value("--bids")?)?,
                "--workers" => options.workers = parse(&value("--workers")?)?,
                "--payment-threads" => {
                    options.payment_threads = parse(&value("--payment-threads")?)?
                }
                "--drain-every" => options.drain_every = parse(&value("--drain-every")?)?,
                "--verify-determinism" => options.verify_determinism = true,
                "--ci-smoke" => options.ci_smoke = true,
                "--soak" => options.soak = true,
                "--campaign" => options.campaign_loop = true,
                "--scenario" => options.scenario = Some(value("--scenario")?),
                "--record-trace" => options.record_trace = Some(value("--record-trace")?),
                "--replay-trace" => options.replay_trace = Some(value("--replay-trace")?),
                "--print-baseline" => options.print_baseline = true,
                "--cluster" => options.cluster = true,
                "--nodes" => options.nodes = parse(&value("--nodes")?)?,
                "--bands" => options.bands = parse(&value("--bands")?)?,
                "--help" | "-h" => {
                    return Err("usage: mcs-fuzz [--seed S] [--rounds N] [--faults F] \
                         [--tasks T] [--bids B] [--workers W] [--payment-threads P] \
                         [--drain-every D] [--verify-determinism] [--ci-smoke] [--soak] \
                         [--campaign] [--scenario NAME|PATH|all] [--record-trace FILE] \
                         [--replay-trace FILE] [--print-baseline] \
                         [--cluster] [--nodes N] [--bands B]"
                        .to_string())
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !(0.0..=1.0).contains(&options.faults) {
            return Err(format!(
                "--faults expects a probability in [0, 1], got {}",
                options.faults
            ));
        }
        Ok(options)
    }

    fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            rounds: self.rounds,
            bids_per_round: self.bids,
            task_count: self.tasks,
            workers: self.workers,
            payment_threads: self.payment_threads,
            drain_every: self.drain_every,
            admission: AdmissionConfig::default(),
            trace_headroom: 1,
            oracle: OracleConfig::default(),
        }
    }
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("could not parse {text:?}"))
}

/// Runs one campaign and prints its summary. Returns the outcome.
fn run_one(config: &CampaignConfig, plan: &FaultPlan, label: &str) -> CampaignOutcome {
    let start = Instant::now();
    let outcome = run_campaign(config, plan);
    println!(
        "{label}: seed {} · {} logical rounds · {} faults planned · \
         {} cleared, {} quarantined, {} bids rejected, {} shed, {} rebuilds · \
         fingerprint {:016x} · {:.2?}",
        config.seed,
        config.rounds,
        plan.fault_count(),
        outcome.results.len(),
        outcome.quarantine.len(),
        outcome.rejections,
        outcome.sheds,
        outcome.rebuilds,
        outcome.fingerprint(),
        start.elapsed()
    );
    println!(
        "  trace: {} events into a {}-slot ring (wrapped: {}) · {} post-mortems",
        outcome.trace_events,
        outcome.trace_capacity,
        outcome.trace_wrapped,
        outcome.post_mortems.len(),
    );
    for violation in &outcome.violations {
        eprintln!("  VIOLATION: {violation}");
    }
    outcome
}

/// Observability contract: the flight recorder stays inside its fixed
/// allocation (it never wrapped, so no round's evidence was lost), and
/// every injected shard panic produced a complete JSON post-mortem.
fn observability_holds(config: &CampaignConfig, outcome: &CampaignOutcome) -> bool {
    let mut ok = true;
    let configured = config.engine_config().trace.capacity;
    if outcome.trace_capacity != configured {
        eprintln!(
            "  OBSERVABILITY: ring capacity {} != configured {configured}",
            outcome.trace_capacity
        );
        ok = false;
    }
    if outcome.trace_wrapped {
        eprintln!(
            "  OBSERVABILITY: ring wrapped ({} events into {} slots) — undersized",
            outcome.trace_events, outcome.trace_capacity
        );
        ok = false;
    }
    for record in &outcome.quarantine {
        let error = record.error.to_string();
        if !error.contains("panicked") {
            continue;
        }
        match outcome
            .post_mortems
            .iter()
            .find(|pm| pm.round == record.id.0)
        {
            Some(pm) if pm.complete => {}
            Some(pm) => {
                eprintln!(
                    "  OBSERVABILITY: {} post-mortem incomplete ({} of {} bids)",
                    record.id,
                    pm.bids.len(),
                    record.bidders
                );
                ok = false;
            }
            None => {
                eprintln!(
                    "  OBSERVABILITY: injected panic on {} left no post-mortem",
                    record.id
                );
                ok = false;
            }
        }
    }
    ok
}

/// Re-runs a campaign at several worker/payment-thread combinations and
/// checks the fingerprints agree bitwise. Returns whether they did.
fn determinism_holds(config: &CampaignConfig, plan: &FaultPlan, reference: u64) -> bool {
    let mut ok = true;
    for (workers, payment_threads) in [(1, 1), (2, 3), (8, 2)] {
        let variant = CampaignConfig {
            workers,
            payment_threads,
            ..config.clone()
        };
        let fingerprint = run_campaign(&variant, plan).fingerprint();
        if fingerprint != reference {
            eprintln!(
                "  DETERMINISM BROKEN: workers={workers} payment_threads={payment_threads} \
                 fingerprint {fingerprint:016x} != reference {reference:016x}"
            );
            ok = false;
        }
    }
    ok
}

/// Sustained-overload soak: every logical round arrives 10×
/// oversubscribed against tail-drop admission with a clearing budget two
/// bids under round capacity, so both sheds and deadline-aware partial
/// clears fire continuously. Asserts the conservation oracle held (the
/// campaign is clean), that the memory proxies stayed bounded — backlog
/// never above the high watermark, trace ring never wrapped — and that
/// fingerprints are bitwise identical across worker counts with
/// shedding engaged.
fn soak(options: &Options) -> ExitCode {
    const FACTOR: u32 = 10;
    let mut config = options.campaign();
    if options.ci_smoke {
        config.rounds = 16;
    }
    config.admission = AdmissionConfig {
        high_watermark: 4 * config.bids_per_round,
        low_watermark: 2 * config.bids_per_round,
        policy: ShedPolicy::TailDrop,
        clear_budget: config.bids_per_round.saturating_sub(2).max(2),
    };
    let mut plan = FaultPlan::new();
    for round in 0..config.rounds {
        plan.schedule(round, Fault::Oversubscribe(FACTOR));
    }
    config.trace_headroom = plan.trace_headroom(config.rounds);

    let outcome = run_one(&config, &plan, "soak");
    println!(
        "  overload: {} shed, max backlog {} (watermark {}), \
         {} partial rounds deferring {} bidders",
        outcome.sheds,
        outcome.max_backlog,
        config.admission.high_watermark,
        outcome.partial_rounds,
        outcome.deferred,
    );
    let mut ok = outcome.is_clean();
    if !observability_holds(&config, &outcome) {
        ok = false;
    }
    if outcome.sheds == 0 {
        eprintln!("  SOAK: {FACTOR}x oversubscription shed no bids");
        ok = false;
    }
    if outcome.max_backlog > config.admission.high_watermark {
        eprintln!(
            "  SOAK: backlog reached {} — tail-drop must bound it at {}",
            outcome.max_backlog, config.admission.high_watermark
        );
        ok = false;
    }
    if outcome.partial_rounds == 0 {
        eprintln!("  SOAK: no round exceeded the clearing budget");
        ok = false;
    }
    if !determinism_holds(&config, &plan, outcome.fingerprint()) {
        ok = false;
    }
    if ok {
        println!("soak: overload stayed bounded, accounted, and deterministic");
        ExitCode::SUCCESS
    } else {
        eprintln!("soak: FAILED");
        ExitCode::FAILURE
    }
}

/// The published task set every closed-loop fuzz campaign pursues.
fn loop_config(seed: u64, failure_rate: f64) -> LoopConfig {
    let tasks = vec![
        Task::with_requirement(TaskId::new(0), 0.95).unwrap(),
        Task::with_requirement(TaskId::new(1), 0.9).unwrap(),
        Task::with_requirement(TaskId::new(2), 0.85).unwrap(),
    ];
    let mut config = LoopConfig::new(EngineConfig::default().with_seed(seed), tasks, 24);
    config.failure_rate = failure_rate;
    config.failure_seed = seed ^ 0xFA11_FA11;
    config
}

/// A campaign runner, optionally with chaos faults layered over the
/// execution-failure stream. One campaign round is exactly one engine
/// round and a fresh run's ids start at 0, so the chaos rounds can be
/// armed up front.
fn loop_runner(config: LoopConfig, chaos: bool) -> CampaignRunner {
    if chaos {
        let injector = Arc::new(PlanInjector::new());
        injector.arm_flip(RoundId(1));
        injector.arm_reorder(RoundId(2));
        injector.arm_panic(RoundId(3));
        CampaignRunner::with_injector(config, injector)
    } else {
        CampaignRunner::new(config)
    }
}

/// Runs one closed-loop campaign, oracle-checks it, and verifies its
/// fingerprint is bitwise identical across worker/payment-thread
/// combinations. Returns whether everything held.
fn run_closed_loop(seed: u64, failure_rate: f64, chaos: bool) -> bool {
    const BIDDERS: u32 = 12;
    let start = Instant::now();
    let config = loop_config(seed, failure_rate);
    let budget = config.round_budget();
    let runner = loop_runner(config, chaos);
    let mut source = SyntheticBidSource::new(seed, BIDDERS);
    let report = runner.run(&mut source);
    let violations = check_campaign(&report, budget);
    println!(
        "campaign[seed={seed} rate={failure_rate} chaos={chaos}]: \
         {} rounds · covered {} · paid {:.3} · {} bids gated · \
         fingerprint {:016x} · {:.2?}",
        report.rounds_run(),
        report.covered,
        report.total_paid,
        report.rounds.iter().map(|r| r.bids_gated).sum::<usize>(),
        report.fingerprint(),
        start.elapsed()
    );
    let mut ok = violations.is_empty();
    for violation in &violations {
        eprintln!("  VIOLATION: {violation}");
    }
    if !chaos && !report.covered {
        eprintln!("  CAMPAIGN: residual re-auctions failed to reach coverage in {budget} rounds");
        ok = false;
    }
    let reference = report.fingerprint();
    for (workers, payment_threads) in [(1usize, 1usize), (2, 3), (8, 2)] {
        let mut variant = loop_config(seed, failure_rate);
        variant.engine = variant
            .engine
            .with_workers(workers)
            .with_payment_threads(payment_threads);
        let runner = loop_runner(variant, chaos);
        let mut source = SyntheticBidSource::new(seed, BIDDERS);
        let fingerprint = runner.run(&mut source).fingerprint();
        if fingerprint != reference {
            eprintln!(
                "  DETERMINISM BROKEN: workers={workers} payment_threads={payment_threads} \
                 fingerprint {fingerprint:016x} != reference {reference:016x}"
            );
            ok = false;
        }
    }
    ok
}

/// Closed-loop mode: a seeds × failure-rates × chaos matrix of auction
/// campaigns, each oracle-checked and determinism-verified.
fn closed_loop_fuzz(options: &Options) -> ExitCode {
    silence_injected_panics();
    let seeds: &[u64] = if options.ci_smoke {
        &[1, 7]
    } else {
        &[1, 7, 42, 99, 123]
    };
    let mut failed = false;
    for &seed in seeds {
        for rate in [0.0, 0.3, 0.6] {
            for chaos in [false, true] {
                if !run_closed_loop(seed, rate, chaos) {
                    failed = true;
                }
            }
        }
    }
    if failed {
        eprintln!("campaign: FAILED");
        ExitCode::FAILURE
    } else {
        println!("campaign: every closed loop covered, clean, and deterministic");
        ExitCode::SUCCESS
    }
}

/// Runs one corpus scenario end to end: drive (or replay a recorded
/// trace), enforce the pinned baseline, optionally sweep the
/// determinism matrix, and — when the scenario schedules strategic
/// bidders — run the online strategy-proofness twins. Returns whether
/// everything held.
fn run_scenario_cli(scenario: &Scenario, options: &Options) -> bool {
    let start = Instant::now();
    let outcome = if let Some(path) = &options.replay_trace {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(error) => {
                eprintln!("scenario[{}]: cannot read {path}: {error}", scenario.name);
                return false;
            }
        };
        let log = match ReplayLog::from_bytes(&bytes) {
            Ok(log) => log,
            Err(error) => {
                eprintln!("scenario[{}]: corrupt trace {path}: {error}", scenario.name);
                return false;
            }
        };
        match replay_scenario(scenario, &log) {
            Ok(outcome) => outcome,
            Err(error) => {
                eprintln!("scenario[{}]: replay failed: {error}", scenario.name);
                return false;
            }
        }
    } else {
        match run_scenario(scenario) {
            Ok(outcome) => outcome,
            Err(error) => {
                eprintln!("scenario[{}]: run failed: {error}", scenario.name);
                return false;
            }
        }
    };
    println!(
        "scenario[{} v{}]: {} rounds cleared · {} submitted, {} admitted, {} shed, \
         {} rejected, {} quarantined · paid {:.3} · fingerprint {:016x} · {:.2?}",
        scenario.name,
        scenario.version,
        outcome.rounds_cleared,
        outcome.bids_submitted,
        outcome.admitted,
        outcome.sheds,
        outcome.rejections,
        outcome.quarantined,
        outcome.payment_total,
        outcome.fingerprint(),
        start.elapsed()
    );
    let mut ok = outcome.is_clean();
    for violation in &outcome.violations {
        eprintln!("  VIOLATION: {violation}");
    }
    for violation in &outcome.campaign_violations {
        eprintln!("  VIOLATION: {violation}");
    }

    if let Some(path) = &options.record_trace {
        if let Err(error) = std::fs::write(path, outcome.log.to_bytes()) {
            eprintln!("  TRACE: cannot write {path}: {error}");
            ok = false;
        } else {
            println!(
                "  trace: {} ops ({} submits) recorded to {path}",
                outcome.log.ops.len(),
                outcome.log.submit_count()
            );
        }
    }

    if options.print_baseline {
        println!("{}", outcome.baseline().to_toml());
        return ok;
    }
    match &scenario.baseline {
        Some(pinned) => {
            if let Err(error) = pinned.check(&scenario.name, &outcome.baseline()) {
                eprintln!("  BASELINE: {error}");
                ok = false;
            }
        }
        None => {
            eprintln!(
                "  BASELINE: scenario {:?} has no pinned [baseline]; run \
                 `mcs-fuzz --scenario {} --print-baseline` and commit the block",
                scenario.name, scenario.name
            );
            ok = false;
        }
    }

    if options.verify_determinism {
        let reference = outcome.fingerprint();
        for (workers, payment_threads) in [(1usize, 1usize), (2, 4), (8, 1), (8, 4)] {
            let run = run_scenario_with(
                scenario,
                &RunOptions {
                    workers: Some(workers),
                    payment_threads: Some(payment_threads),
                    deviate: false,
                    profiling: true,
                },
            );
            match run {
                Ok(variant) => {
                    if variant.fingerprint() != reference {
                        eprintln!(
                            "  DETERMINISM BROKEN: workers={workers} \
                             payment_threads={payment_threads} fingerprint {:016x} \
                             != reference {reference:016x}",
                            variant.fingerprint()
                        );
                        ok = false;
                    }
                    // Fingerprints alone once hid a profiled-cell gap:
                    // every sweep cell must ALSO reproduce the pinned
                    // totals bit for bit, profiling on or off.
                    if variant.payment_total.to_bits() != outcome.payment_total.to_bits() {
                        eprintln!(
                            "  DETERMINISM BROKEN: workers={workers} \
                             payment_threads={payment_threads} payment total \
                             {:?} != reference {:?}",
                            variant.payment_total, outcome.payment_total
                        );
                        ok = false;
                    }
                    if let Some(pinned) = &scenario.baseline {
                        if let Err(error) = pinned.check(&scenario.name, &variant.baseline()) {
                            eprintln!(
                                "  BASELINE (workers={workers} \
                                 payment_threads={payment_threads}): {error}"
                            );
                            ok = false;
                        }
                    }
                }
                Err(error) => {
                    eprintln!("  DETERMINISM: variant run failed: {error}");
                    ok = false;
                }
            }
        }
    }

    if scenario.strategy.is_some() && options.replay_trace.is_none() {
        match check_online_sp(scenario, 1e-6) {
            Ok(report) => {
                println!(
                    "  online SP: {} deviations played, {} profitable",
                    report.checked,
                    report.violations.len()
                );
                for violation in &report.violations {
                    eprintln!("  SP VIOLATION: {violation}");
                }
                if !report.is_clean() || !report.deviating.is_clean() {
                    ok = false;
                }
            }
            Err(error) => {
                eprintln!("  SP: twin sweep failed: {error}");
                ok = false;
            }
        }
    }
    ok
}

/// Corpus mode: resolve `--scenario` to one file or the whole corpus
/// and run each through [`run_scenario_cli`].
fn scenario_fuzz(options: &Options) -> ExitCode {
    let target = options.scenario.as_deref().expect("dispatched on Some");
    let paths = if target == "all" {
        match mcs_harness::scenario::corpus_paths() {
            Ok(paths) => paths,
            Err(error) => {
                eprintln!("scenario: {error}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };
    let mut failed = false;
    let mut ran = 0usize;
    if target == "all" {
        for path in &paths {
            match mcs_harness::scenario::load(&path.display().to_string()) {
                Ok(scenario) => {
                    ran += 1;
                    if !run_scenario_cli(&scenario, options) {
                        failed = true;
                    }
                }
                Err(error) => {
                    eprintln!("scenario[{}]: {error}", path.display());
                    failed = true;
                }
            }
        }
        if ran == 0 {
            eprintln!("scenario: corpus is empty");
            failed = true;
        }
    } else {
        match mcs_harness::scenario::load(target) {
            Ok(scenario) => {
                if !run_scenario_cli(&scenario, options) {
                    failed = true;
                }
            }
            Err(error) => {
                eprintln!("scenario[{target}]: {error}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("scenario: FAILED");
        ExitCode::FAILURE
    } else {
        println!("scenario: corpus clean, baselines pinned, mechanism truthful");
        ExitCode::SUCCESS
    }
}

/// The node hosting a scenario topology's first active region — a chaos
/// target that is guaranteed to actually receive traffic.
fn cluster_busy_node(scenario: &Scenario, nodes: u32, bands: u32) -> u32 {
    let topology = scenario_topology(scenario, bands);
    let region = topology
        .active_regions()
        .next()
        .expect("scenario publishes tasks");
    topology.node_of_region(region, nodes)
}

/// Runs one scenario through the full cluster battery: 1-node vs N-node
/// equivalence, the mirror oracle, the three chaos campaigns, and (with
/// `--verify-determinism`) a wider node matrix plus loopback-vs-TCP
/// transport equivalence. Returns whether everything held.
fn run_cluster_cli(scenario: &Scenario, options: &Options) -> bool {
    let (nodes, bands) = (options.nodes.max(1), options.bands.max(1));
    let start = Instant::now();
    let single = match run_cluster_scenario(scenario, 1, bands, &FaultPlan::new()) {
        Ok(run) => run,
        Err(error) => {
            eprintln!("cluster[{}]: 1-node run failed: {error}", scenario.name);
            return false;
        }
    };
    let deployed = match run_cluster_scenario(scenario, nodes, bands, &FaultPlan::new()) {
        Ok(run) => run,
        Err(error) => {
            eprintln!(
                "cluster[{}]: {nodes}-node run failed: {error}",
                scenario.name
            );
            return false;
        }
    };
    println!(
        "cluster[{} v{}]: {} rounds · {} bands · 1-node {:016x} vs {nodes}-node {:016x} · {:.2?}",
        scenario.name,
        scenario.version,
        scenario.rounds,
        bands,
        single.fingerprint,
        deployed.fingerprint,
        start.elapsed()
    );
    let mut ok = true;
    if deployed.fingerprint != single.fingerprint {
        eprintln!(
            "  EQUIVALENCE BROKEN: {nodes}-node fingerprint {:016x} != 1-node {:016x}",
            deployed.fingerprint, single.fingerprint
        );
        ok = false;
    }
    let mirror = scenario_ground_truth(scenario, bands).fingerprint();
    if mirror != single.fingerprint {
        eprintln!(
            "  MIRROR DISAGREES: ground truth {mirror:016x} != deployment {:016x}",
            single.fingerprint
        );
        ok = false;
    }

    // Chaos: node loss must fail over with an unchanged fingerprint.
    let target = cluster_busy_node(scenario, nodes, bands);
    let mut plan = FaultPlan::new();
    plan.schedule(1, Fault::NodeLoss(target));
    match run_cluster_scenario(scenario, nodes, bands, &plan) {
        Ok(run) => {
            if !run.promoted_nodes().contains(&target) {
                eprintln!("  NODE LOSS: node {target} never failed over to its follower");
                ok = false;
            }
            if run.fingerprint != single.fingerprint {
                eprintln!(
                    "  NODE LOSS: post-failover fingerprint {:016x} != fault-free {:016x}",
                    run.fingerprint, single.fingerprint
                );
                ok = false;
            } else {
                println!("  node loss: node {target} promoted its follower, fingerprint unchanged");
            }
        }
        Err(error) => {
            eprintln!("  NODE LOSS: campaign failed: {error}");
            ok = false;
        }
    }

    // Chaos: a partition must quarantine the round with a post-mortem,
    // never silently diverge.
    let mut plan = FaultPlan::new();
    plan.schedule(1, Fault::NetPartition(target));
    match run_cluster_scenario(scenario, nodes, bands, &plan) {
        Ok(run) => {
            let quarantine = run
                .outcome
                .quarantines
                .iter()
                .find(|q| q.round == 1 && q.post_mortem.contains("\"cause\":\"partition\""));
            if run.quarantined_rounds() == 0 || quarantine.is_none() {
                eprintln!(
                    "  PARTITION: round 1 was not quarantined with a typed partition post-mortem"
                );
                ok = false;
            } else {
                println!(
                    "  partition: {} round(s) quarantined with complete post-mortems",
                    run.quarantined_rounds()
                );
            }
        }
        Err(error) => {
            eprintln!("  PARTITION: campaign failed: {error}");
            ok = false;
        }
    }

    // Chaos: duplicate delivery must be absorbed by the idempotency
    // cache.
    let mut plan = FaultPlan::new();
    plan.schedule(0, Fault::DuplicateDelivery);
    plan.schedule(2, Fault::DuplicateDelivery);
    match run_cluster_scenario(scenario, nodes, bands, &plan) {
        Ok(run) if run.fingerprint == single.fingerprint => {
            println!("  duplicate delivery: absorbed, fingerprint unchanged");
        }
        Ok(run) => {
            eprintln!(
                "  DUPLICATE DELIVERY: fingerprint drifted to {:016x} (expected {:016x})",
                run.fingerprint, single.fingerprint
            );
            ok = false;
        }
        Err(error) => {
            eprintln!("  DUPLICATE DELIVERY: campaign failed: {error}");
            ok = false;
        }
    }

    if options.verify_determinism {
        for other in [2u32, 4, 8] {
            if other == nodes {
                continue;
            }
            match run_cluster_scenario(scenario, other, bands, &FaultPlan::new()) {
                Ok(run) if run.fingerprint == single.fingerprint => {}
                Ok(run) => {
                    eprintln!(
                        "  EQUIVALENCE BROKEN: {other}-node fingerprint {:016x} != {:016x}",
                        run.fingerprint, single.fingerprint
                    );
                    ok = false;
                }
                Err(error) => {
                    eprintln!("  EQUIVALENCE: {other}-node run failed: {error}");
                    ok = false;
                }
            }
        }
        match run_cluster_scenario_tcp(scenario, nodes, bands) {
            Ok(run) if run.fingerprint == single.fingerprint => {
                println!("  transport: TCP deployment matches loopback bitwise");
            }
            Ok(run) => {
                eprintln!(
                    "  TRANSPORT DIVERGED: TCP fingerprint {:016x} != loopback {:016x}",
                    run.fingerprint, single.fingerprint
                );
                ok = false;
            }
            Err(error) => {
                eprintln!("  TRANSPORT: TCP run failed: {error}");
                ok = false;
            }
        }
    }
    ok
}

/// Deployment mode: the whole pinned corpus through the cluster battery.
fn cluster_fuzz(options: &Options) -> ExitCode {
    let paths = match mcs_harness::scenario::corpus_paths() {
        Ok(paths) => paths,
        Err(error) => {
            eprintln!("cluster: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    let mut ran = 0usize;
    for path in &paths {
        match mcs_harness::scenario::load(&path.display().to_string()) {
            Ok(scenario) => {
                ran += 1;
                if !run_cluster_cli(&scenario, options) {
                    failed = true;
                }
            }
            Err(error) => {
                eprintln!("cluster[{}]: {error}", path.display());
                failed = true;
            }
        }
    }
    if ran == 0 {
        eprintln!("cluster: corpus is empty");
        failed = true;
    }
    if failed {
        eprintln!("cluster: FAILED");
        ExitCode::FAILURE
    } else {
        println!("cluster: {ran} scenarios deployment-invariant, chaos survived, mirrors agree");
        ExitCode::SUCCESS
    }
}

/// The fixed CI smoke matrix: a few seeds over both mechanism families,
/// each verified clean and bitwise identical across worker counts.
fn ci_smoke() -> ExitCode {
    let mut failed = false;
    for seed in [1u64, 7, 42] {
        for tasks in [1usize, 3] {
            let config = CampaignConfig {
                seed,
                rounds: 40,
                bids_per_round: 8,
                task_count: tasks,
                workers: 1,
                payment_threads: 1,
                drain_every: 4,
                admission: AdmissionConfig::default(),
                trace_headroom: 1,
                oracle: OracleConfig::default(),
            };
            let plan = FaultPlan::generate(seed, config.rounds, 0.35);
            let mut config = config;
            config.trace_headroom = plan.trace_headroom(config.rounds);
            let label = format!("smoke[seed={seed} tasks={tasks}]");
            let outcome = run_one(&config, &plan, &label);
            if !outcome.is_clean() {
                failed = true;
            }
            if !observability_holds(&config, &outcome) {
                failed = true;
            }
            if !determinism_holds(&config, &plan, outcome.fingerprint()) {
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("ci-smoke: FAILED");
        ExitCode::FAILURE
    } else {
        println!("ci-smoke: all campaigns clean and deterministic");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let options = match Options::parse() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    if options.cluster {
        return cluster_fuzz(&options);
    }
    if options.scenario.is_some() {
        return scenario_fuzz(&options);
    }
    if options.campaign_loop {
        return closed_loop_fuzz(&options);
    }
    if options.soak {
        return soak(&options);
    }
    if options.ci_smoke {
        return ci_smoke();
    }

    let mut config = options.campaign();
    let plan = FaultPlan::generate(options.seed, options.rounds, options.faults);
    config.trace_headroom = plan.trace_headroom(config.rounds);
    let outcome = run_one(&config, &plan, "campaign");
    let mut ok = outcome.is_clean();
    if !observability_holds(&config, &outcome) {
        ok = false;
    }
    if options.verify_determinism && !determinism_holds(&config, &plan, outcome.fingerprint()) {
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
