//! `campaign-residual`: back-to-back closed-loop campaigns chained with
//! `CampaignRunner::resume` on one ledger. The runner owns its engines,
//! so the benchmark sees a campaign only through its `BidSource`
//! callbacks and its report: a round runs from the hand-over of its bids
//! to the next callback (or to `run`/`resume` returning). Warm-up
//! campaigns run on a runner of [`WARMUP_SEED`] (bids and execution
//! draws); the measured campaigns resume its ledger on a runner of the
//! workload seed.

use mcs_campaign::prelude::*;
use mcs_core::types::{Task, TaskId};
use mcs_platform::prelude::{Bid, EngineCheckpoint, EngineConfig};

use crate::gen::CampaignPopulation;
use crate::run::{Pass, Rep, WARMUP_SEED};
use crate::stats::{fold, ratio, CpuInstant};
use crate::trace::{SpanId, Tracer};

/// Published tasks and their (high) quality requirement.
const TASKS: u32 = 5;
const REQUIREMENT: f64 = 0.9;
/// Stable bidder population, and the bidders of it that bid in a round.
const POPULATION: u32 = 100;
const PER_ROUND: usize = 40;
/// Injected execution-failure probability.
const FAILURE_RATE: f64 = 0.3;
/// Round budget per campaign; every campaign must cover well within it.
const MAX_ROUNDS: u64 = 64;

/// The bench-owned bid source: times rounds at the hand-over boundary
/// and keeps its own generation time out of them.
#[derive(Debug)]
struct Source<'a> {
    population: &'a CampaignPopulation,
    seed: u64,
    campaign: u64,
    tracer: &'a Tracer,
    handover: Option<(CpuInstant, SpanId)>,
    round_ms: Vec<f64>,
    generation_ns: u64,
}

impl Source<'_> {
    /// Closes the round whose bids were last handed over.
    fn close_round(&mut self) {
        if let Some((start, span)) = self.handover.take() {
            self.tracer.end(span);
            self.round_ms.push(start.elapsed_ns() as f64 / 1e6);
        }
    }
}

impl BidSource for Source<'_> {
    fn bids(&mut self, round_index: u64, _tasks: &[Task]) -> Vec<Bid> {
        self.close_round();
        let start = CpuInstant::now();
        let bids = self.population.bids(self.seed, self.campaign, round_index);
        self.generation_ns += start.elapsed_ns();
        let span = self.tracer.begin("campaign.round", round_index);
        self.handover = Some((CpuInstant::now(), span));
        bids
    }
}

/// A campaign configuration whose engine, bids and injected failures are
/// drawn from `seed`; 1 shard worker and 1 payment thread, as in the
/// engine workloads (the benchmark runs on one CPU).
fn config(seed: u64) -> CampaignConfig {
    let engine = EngineConfig::default()
        .with_seed(seed)
        .with_workers(1)
        .with_payment_threads(1);
    let tasks = (0..TASKS)
        .map(|i| Task::with_requirement(TaskId::new(i), REQUIREMENT))
        .collect::<Result<_, _>>()
        .expect("valid requirement");
    let mut config = CampaignConfig::new(engine, tasks, MAX_ROUNDS);
    config.calibration = CalibratorConfig::default();
    config.failure_rate = FAILURE_RATE;
    config.failure_seed = seed ^ 0xFA11;
    config
}

/// Runs campaign `campaign` on `runner`, its bids drawn from the
/// runner's seed; returns its report and measured time.
fn campaign(
    runner: &CampaignRunner,
    population: &CampaignPopulation,
    campaign: u64,
    checkpoint: Option<EngineCheckpoint>,
    tracer: &Tracer,
    round_ms: &mut Vec<f64>,
) -> (CampaignReport, u64) {
    let mut source = Source {
        population,
        seed: runner.config().engine.seed,
        campaign,
        tracer,
        handover: None,
        round_ms: Vec::new(),
        generation_ns: 0,
    };
    let start = CpuInstant::now();
    let span = tracer.begin("campaign.resume", campaign);
    let report = match checkpoint {
        None => runner.run(&mut source),
        Some(checkpoint) => runner.resume(&mut source, checkpoint),
    };
    source.close_round();
    tracer.end(span);
    let ns = start.elapsed_ns();
    round_ms.append(&mut source.round_ms);
    (report, ns.saturating_sub(source.generation_ns))
}

/// The timed set-up: the warm-up runner and its campaigns, and the
/// measured runner. Records the set-up time and the warm-up's check
/// results in `rep`; returns the measured runner and the ledger
/// checkpoint the warm-up left.
fn setup(
    population: &CampaignPopulation,
    pass: &Pass,
    rep: &mut Rep,
) -> (CampaignRunner, Option<EngineCheckpoint>) {
    let off = Tracer::new(false);
    let start = CpuInstant::now();
    let runner = CampaignRunner::new(config(WARMUP_SEED));
    let mut busy = start.elapsed_ns();
    let mut checkpoint = None;
    for index in 0..pass.warmup {
        let (report, ns) = campaign(
            &runner,
            population,
            index,
            checkpoint,
            &off,
            &mut Vec::new(),
        );
        busy += ns;
        if !report.covered {
            rep.violations
                .push(format!("warm-up campaign {index} ended uncovered"));
        }
        checkpoint = Some(report.checkpoint);
    }
    let start = CpuInstant::now();
    let runner = CampaignRunner::new(config(pass.seed));
    rep.setup_ns = busy + start.elapsed_ns();
    (runner, checkpoint)
}

/// One segment of `campaign-residual`: a fresh set-up, then the
/// segment's `pass.block` campaigns drawn from the workload seed, each
/// resuming the ledger the previous one left.
pub fn segment(pass: &Pass) -> Rep {
    let mut rep = Rep::default();
    let population = CampaignPopulation::new(POPULATION, TASKS, PER_ROUND);
    let (runner, mut checkpoint) = setup(&population, pass, &mut rep);

    let tracer = Tracer::new(pass.traced);
    let (mut gated, mut covered) = (0u64, 0u64);
    for index in pass.first_unit()..pass.first_unit() + pass.block {
        let (report, ns) = campaign(
            &runner,
            &population,
            index,
            checkpoint.take(),
            &tracer,
            &mut rep.round_ms,
        );
        rep.unit(ns);
        let out = &mut rep.outcome;
        out.fingerprint = fold(out.fingerprint, &[report.fingerprint()]);
        out.payment += report.total_paid;
        out.social_cost += report.total_social_cost;
        if report.covered {
            covered += 1;
        } else {
            rep.violations
                .push(format!("campaign {index} ended uncovered"));
        }
        for round in &report.rounds {
            out.rounds += 1;
            out.bids_offered += round.bids_offered as u64;
            gated += round.bids_gated as u64;
            let admitted = (round.bids_offered - round.bids_gated) as u64;
            let submitted = round.bids_submitted as u64;
            out.bids_failed += admitted - submitted;
            if round.quarantined {
                out.rounds_failed += 1;
                out.bids_failed += submitted;
            } else {
                out.bids_settled += submitted;
            }
        }
        rep.checked += 1;
        checkpoint = Some(report.checkpoint);
    }
    let out = &mut rep.outcome;
    out.total_paid = checkpoint.map_or(0.0, |c| c.ledger.total_paid());
    out.counts.insert("bids_gated", gated);
    if pass.traced {
        let campaigns = pass.block as f64;
        let (rounds_n, round_ns) = tracer.total("campaign.round");
        let l = &mut rep.layers;
        l.insert(
            "campaign.round_ms",
            ratio(round_ns as f64, rounds_n as f64) / 1e6,
        );
        l.insert(
            "campaign.rounds_per_campaign",
            ratio(out.rounds as f64, campaigns),
        );
        l.insert(
            "campaign.gated_share",
            ratio(gated as f64, out.bids_offered as f64),
        );
        l.insert("campaign.covered_share", ratio(covered as f64, campaigns));
        crate::write_trace(&tracer, pass);
    }
    rep
}
