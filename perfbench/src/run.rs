//! Segments of a workload, and what a run measured and checked across
//! them.
//!
//! A run is a sequence of segments. Every segment builds a fresh system
//! under test (the timed set-up) and then drives the next block of units
//! of the seed's input stream, so a run measures many set-ups and one
//! long stream of distinct inputs. Every time is read on the process CPU
//! clock ([`crate::stats::CpuInstant`]).
//!
//! A shared host's speed drifts by ±15% over tens of seconds, CPU time
//! included, and a 25-second run cannot average that out. So after every
//! [`PROBE_EVERY_NS`] of measured work the run also times a fixed
//! bench-owned probe ([`crate::stats::probe_ns`]), and the end-to-end
//! times are scaled to a host of reference speed by
//! [`Run::host_factor`].

use std::collections::BTreeMap;
use std::time::Instant;

/// Draw seed of every warm-up unit, whatever the workload seed: set-up
/// does the same work on every seed, so `setup_s` compares across seeds.
pub const WARMUP_SEED: u64 = 0x5E7_0001;

/// Measured time between two probe readings: about 1% of the work.
const PROBE_EVERY_NS: u64 = 150_000_000;

/// Segments every run makes, however long they take: enough set-ups to
/// take a median of.
const MIN_SEGMENTS: u64 = 3;

/// Knobs of one segment of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub workload: &'static str,
    pub seed: u64,
    /// Measured units (drain groups, cluster rounds, campaigns) in a
    /// segment.
    pub block: u64,
    /// Index of the segment: it drives units `segment × block ..` of the
    /// seed's input stream.
    pub segment: u64,
    /// Warm-up units inside each set-up, drawn from [`WARMUP_SEED`].
    pub warmup: u64,
    /// Traced segment: spans, engine profiling, transport timing.
    pub traced: bool,
    /// Write the traced segment's spans under `perfbench/out/`.
    pub emit_spans: bool,
}

impl Pass {
    /// Draw index of the segment's first measured unit: after the
    /// warm-up units and the blocks of the segments before it.
    pub fn first_unit(&self) -> u64 {
        self.warmup + self.segment * self.block
    }
}

/// What a segment settled.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Rounds attempted, and how many did not settle at all.
    pub rounds: u64,
    pub rounds_failed: u64,
    pub bids_offered: u64,
    /// Bids that reached a settled round.
    pub bids_settled: u64,
    /// Shed, rejected, deferred, quarantined, route-rejected, or lost to
    /// a cluster or transport error.
    pub bids_failed: u64,
    /// Σ expected payment and Σ social cost over settled rounds.
    pub payment: f64,
    pub social_cost: f64,
    /// Outcome fingerprint and ledger total.
    pub fingerprint: u64,
    pub total_paid: f64,
    /// Exact counts (shed, winners, kernel counters, ...).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Adds `other`'s sums and counts to these (its fingerprint is
    /// folded in).
    fn add(&mut self, other: &Outcome) {
        self.rounds += other.rounds;
        self.rounds_failed += other.rounds_failed;
        self.bids_offered += other.bids_offered;
        self.bids_settled += other.bids_settled;
        self.bids_failed += other.bids_failed;
        self.payment += other.payment;
        self.social_cost += other.social_cost;
        self.fingerprint = crate::stats::fold(self.fingerprint, &[other.fingerprint]);
        self.total_paid += other.total_paid;
        for (key, n) in &other.counts {
            *self.counts.entry(key).or_insert(0) += n;
        }
    }

    pub fn failed_bid_share(&self) -> f64 {
        crate::stats::ratio(self.bids_failed as f64, self.bids_offered as f64)
    }

    pub fn overpayment_ratio(&self) -> f64 {
        crate::stats::ratio(self.payment, self.social_cost)
    }
}

/// One segment: a timed set-up, then the block.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_ns: u64,
    /// Measured CPU time of each unit, in block order.
    pub unit_ns: Vec<u64>,
    /// Latency of each closed round, in block order.
    pub round_ms: Vec<f64>,
    pub outcome: Outcome,
    /// Rounds (campaigns, for `campaign-residual`) the output oracles
    /// checked.
    pub checked: u64,
    pub violations: Vec<String>,
    /// Per-layer metrics (traced segment only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Host-speed probe readings taken between units.
    pub probe_ns: Vec<u64>,
    /// Measured time since the last probe reading.
    since_probe: u64,
}

impl Rep {
    /// Accounts one measured unit that took `ns`, and reads the probe if
    /// [`PROBE_EVERY_NS`] of work has passed since the last reading.
    pub fn unit(&mut self, ns: u64) {
        self.unit_ns.push(ns);
        self.since_probe += ns;
        if self.since_probe >= PROBE_EVERY_NS {
            self.since_probe = 0;
            self.probe_ns.push(crate::stats::probe_ns());
        }
    }

    pub fn busy_ns(&self) -> u64 {
        self.unit_ns.iter().sum()
    }

    /// Measured time scaled by this segment's own host factor.
    pub fn scaled_busy_ns(&self) -> f64 {
        self.busy_ns() as f64 * host_factor(&self.probe_ns)
    }
}

/// The reference probe reading ÷ the median of `probe_ns`; 1 (times
/// stay unscaled) when there is no reading.
fn host_factor(probe_ns: &[u64]) -> f64 {
    if probe_ns.is_empty() {
        return 1.0;
    }
    let readings: Vec<f64> = probe_ns.iter().map(|&ns| ns as f64).collect();
    crate::stats::PROBE_REFERENCE_NS / crate::stats::median(&readings)
}

/// The segments of one run, pooled.
#[derive(Debug, Default)]
pub struct Run {
    pub segments: u64,
    /// The first segment's outcome: a traced replay of it must match.
    pub first: Outcome,
    /// Sums and counts over every segment.
    pub outcome: Outcome,
    /// Measured CPU time of every unit and latency of every round.
    pub busy_ns: u64,
    pub units: u64,
    pub round_ms: Vec<f64>,
    /// Each segment's measured total and set-up time.
    pub segment_ns: Vec<u64>,
    pub setup_s: Vec<f64>,
    /// `VmHWM` after the first segment: a fixed amount of work.
    pub peak_rss_mb: f64,
    /// Host-speed probe readings of every segment.
    pub probe_ns: Vec<u64>,
    pub checked: u64,
    pub violations: Vec<String>,
}

impl Run {
    /// Runs segments `0, 1, ...` of `pass` (`segment` builds each) for
    /// about `seconds` of wall time, and at least [`MIN_SEGMENTS`].
    pub fn repeat(seconds: f64, pass: &Pass, mut segment: impl FnMut(&Pass) -> Rep) -> Run {
        let start = Instant::now();
        let mut run = Run::default();
        // The wall time of the last segment: another one starts only if
        // it is expected to end less than half a segment late.
        let mut last = 0.0;
        while run.segments < MIN_SEGMENTS || start.elapsed().as_secs_f64() + last / 2.0 < seconds {
            let begun = Instant::now();
            let rep = segment(&Pass {
                segment: run.segments,
                ..*pass
            });
            run.absorb(rep);
            last = begun.elapsed().as_secs_f64();
        }
        run
    }

    fn absorb(&mut self, mut rep: Rep) {
        self.violations.append(&mut rep.violations);
        self.checked += rep.checked;
        self.setup_s.push(rep.setup_ns as f64 / 1e9);
        self.segment_ns.push(rep.busy_ns());
        self.busy_ns += rep.busy_ns();
        self.units += rep.unit_ns.len() as u64;
        self.round_ms.append(&mut rep.round_ms);
        self.probe_ns.append(&mut rep.probe_ns);
        self.outcome.add(&rep.outcome);
        if self.segments == 0 {
            self.first = rep.outcome;
            self.peak_rss_mb = crate::stats::peak_rss_mb();
        }
        self.segments += 1;
    }

    /// Measured CPU time ÷ bids that reached a settled round.
    pub fn ns_per_bid(&self) -> f64 {
        crate::stats::ratio(self.busy_ns as f64, self.outcome.bids_settled as f64)
    }

    /// The factor that scales this run's times to a host of reference
    /// speed: the reference probe reading ÷ the run's median one. It
    /// depends only on the host, never on the program under test.
    pub fn host_factor(&self) -> f64 {
        host_factor(&self.probe_ns)
    }
}

/// The fields in which two outcomes differ.
pub fn outcome_diff(a: &Outcome, b: &Outcome) -> String {
    let mut diff = Vec::new();
    for (what, x, y) in [
        ("rounds", a.rounds, b.rounds),
        ("rounds_failed", a.rounds_failed, b.rounds_failed),
        ("bids_offered", a.bids_offered, b.bids_offered),
        ("bids_settled", a.bids_settled, b.bids_settled),
        ("bids_failed", a.bids_failed, b.bids_failed),
        ("payment", a.payment.to_bits(), b.payment.to_bits()),
        (
            "social_cost",
            a.social_cost.to_bits(),
            b.social_cost.to_bits(),
        ),
        ("fingerprint", a.fingerprint, b.fingerprint),
        ("total_paid", a.total_paid.to_bits(), b.total_paid.to_bits()),
    ] {
        if x != y {
            diff.push(format!("{what} {x:#x} vs {y:#x}"));
        }
    }
    for (key, x) in &a.counts {
        if b.counts.get(key) != Some(x) {
            diff.push(format!("{key} {x} vs {:?}", b.counts.get(key)));
        }
    }
    for key in b.counts.keys().filter(|k| !a.counts.contains_key(*k)) {
        diff.push(format!("{key} only in the later one"));
    }
    diff.join(", ")
}
