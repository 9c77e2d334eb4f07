//! Seeded input generators. Bidder pools, task sets and arrival curves
//! are drawn from fixed seeds, so every workload seed runs over the same
//! structure; each round's bids are a pure function of a draw seed and
//! the round index, so the same seed gives the same inputs and a run can
//! regenerate any round without storing it. None of this is timed.

use mcs_cluster::{TaskSite, Topology};
use mcs_core::types::{Pos, Task, TaskId};
use mcs_harness::scenario::spec::ArrivalSpec;
use mcs_harness::scenario::ArrivalCurve;
use mcs_mobility::grid::{Cell, CityGrid};
use mcs_platform::prelude::Bid;
use mcs_sim::config::{DatasetParams, SimParams};
use mcs_sim::population::Dataset;

use crate::stats::{mix, sample_indices, unit};

/// One stable bidder: a base cost and a fixed declared task set.
#[derive(Debug, Clone)]
struct Bidder {
    user: u32,
    cost: f64,
    tasks: Vec<(u32, f64)>,
}

impl Bidder {
    /// This bidder's bid in round `round`: the base cost jittered by
    /// ±`jitter`, the declared PoS unchanged.
    fn bid(&self, seed: u64, round: u64, jitter: f64) -> Bid {
        let u = unit(seed, round, 0x1_0000_0000 + self.user as u64);
        Bid {
            user: self.user,
            cost: self.cost * (1.0 - jitter + 2.0 * jitter * u),
            tasks: self.tasks.clone(),
        }
    }
}

/// A bid stream of numbered rounds.
pub trait RoundGen {
    /// The tasks every round publishes.
    fn tasks(&self) -> Vec<Task>;
    /// Round `round`'s bids drawn from `seed`, in arrival order.
    fn round(&self, seed: u64, round: u64) -> Vec<Bid>;
}

/// Requirement of every published task (the paper's Table II value).
fn requirement() -> f64 {
    SimParams::default().pos_requirement
}

// ---------------------------------------------------------------------
// st-fptas
// ---------------------------------------------------------------------

/// Single-task rounds on the taxi population: the stable pool is every
/// taxi that can reach the task location (at least `min_pool`), each
/// declaring its predicted PoS; each round `per_round` of them re-bid
/// with a fresh cost from the paper's cost distribution.
#[derive(Debug)]
pub struct SingleTask {
    /// Declared PoS of each pool taxi; the user id is the index.
    pool: Vec<f64>,
    per_round: usize,
}

impl SingleTask {
    pub fn new(min_pool: usize, per_round: usize) -> SingleTask {
        let dataset = Dataset::build(DatasetParams {
            taxi_count: 400,
            slots: 240,
            evaluation_slots: 24,
            ..DatasetParams::default()
        });
        let location = dataset
            .single_task_location(min_pool)
            .unwrap_or_else(|| dataset.popular_locations(1)[0]);
        let pool = dataset
            .predictions()
            .values()
            .filter_map(|predictions| predictions.iter().find(|&&(loc, _)| loc == location))
            .map(|&(_, pos)| Pos::saturating(pos).value())
            .collect();
        SingleTask { pool, per_round }
    }
}

impl RoundGen for SingleTask {
    fn tasks(&self) -> Vec<Task> {
        vec![Task::with_requirement(TaskId::new(0), requirement()).expect("valid requirement")]
    }

    fn round(&self, seed: u64, round: u64) -> Vec<Bid> {
        let params = SimParams::default();
        sample_indices(seed, round, self.pool.len(), self.per_round)
            .into_iter()
            .map(|user| {
                let z = normal(seed, round, user as u64);
                Bid {
                    user: user as u32,
                    cost: (params.cost_mean + params.cost_std_dev * z).max(0.5),
                    tasks: vec![(0, self.pool[user])],
                }
            })
            .collect()
    }
}

/// A standard normal draw keyed on `(seed, a, b)` (Box–Muller).
fn normal(seed: u64, a: u64, b: u64) -> f64 {
    let u1 = 1.0 - unit(seed, a, 0x5_0000_0000 + b);
    let u2 = unit(seed, a, 0x6_0000_0000 + b);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

// ---------------------------------------------------------------------
// mt-diurnal
// ---------------------------------------------------------------------

/// First user id of flash-crowd bidders; every burst bidder is fresh.
const BURST_BASE: u32 = 1_000_000;

/// Seed of the `mt-diurnal` arrival curve (burst placement).
const ARRIVAL_CURVE_SEED: u64 = 0xD1A_0001;

/// Seed of the `mt-diurnal` stable pool (task sets, PoS, base costs).
const DIURNAL_POOL_SEED: u64 = 0xD1A_0002;

/// Multi-task rounds whose size follows a diurnal curve with flash
/// bursts (`mcs-harness`'s arrival generator). Diurnal bidders come from
/// a stable pool; burst bidders get fresh ids and arrive at the tail of
/// their round. The curve is drawn from a fixed seed: where a burst lands
/// in a drain group decides how much of it is shed, so a seeded curve
/// made the admitted work, and every timing, differ by seed. The stable
/// pool is drawn from a fixed seed too; burst bidders are drawn from the
/// round's seed.
#[derive(Debug)]
pub struct Diurnal {
    task_count: u32,
    pool: Vec<Bidder>,
    curve: ArrivalCurve,
}

impl Diurnal {
    pub fn new(task_count: u32, pool_size: u32, spec: &ArrivalSpec, horizon: u64) -> Self {
        let pool = (0..pool_size)
            .map(|user| random_bidder(DIURNAL_POOL_SEED, user, task_count))
            .collect();
        Diurnal {
            task_count,
            pool,
            curve: ArrivalCurve::generate(spec, ARRIVAL_CURVE_SEED, horizon),
        }
    }
}

/// A bidder declaring 10–20 of `task_count` tasks (Table II's task-set
/// size) with PoS in [0.05, 0.4) and a base cost in [8, 22).
fn random_bidder(seed: u64, user: u32, task_count: u32) -> Bidder {
    let key = 0x2_0000_0000 + user as u64;
    let lo = 10.min(task_count) as u64;
    let size = lo + mix(seed, key, 1) % (task_count as u64 - lo + 1);
    let mut picked = sample_indices(seed, key, task_count as usize, size as usize);
    picked.sort_unstable();
    let tasks = picked
        .into_iter()
        .map(|task| {
            (
                task as u32,
                0.05 + 0.35 * unit(seed, key, 100 + task as u64),
            )
        })
        .collect();
    Bidder {
        user,
        cost: 8.0 + 14.0 * unit(seed, key, 2),
        tasks,
    }
}

impl RoundGen for Diurnal {
    fn tasks(&self) -> Vec<Task> {
        (0..self.task_count)
            .map(|i| Task::with_requirement(TaskId::new(i), requirement()))
            .collect::<Result<_, _>>()
            .expect("valid requirement")
    }

    fn round(&self, seed: u64, round: u64) -> Vec<Bid> {
        let horizon = self.curve.rounds();
        let (cycle, slot) = (round / horizon, round % horizon);
        let base = self.curve.base_count(slot) as usize;
        let mut bids: Vec<Bid> = sample_indices(seed, round, self.pool.len(), base)
            .into_iter()
            .map(|i| self.pool[i].bid(seed, round, 0.1))
            .collect();
        let first_burst = cycle * self.curve.burst_total() + self.curve.burst_offset(slot);
        for k in 0..self.curve.burst_count(slot) as u64 {
            let user = BURST_BASE + (first_burst + k) as u32;
            bids.push(random_bidder(seed, user, self.task_count).bid(seed, round, 0.0));
        }
        bids
    }
}

// ---------------------------------------------------------------------
// cluster-tcp
// ---------------------------------------------------------------------

/// Tasks per band region of the cluster topology.
const TASKS_PER_REGION: u32 = 2;

/// Seed of the `cluster-tcp` stable pool (home regions, straddlers,
/// task sets, PoS, base costs).
const REGIONAL_POOL_SEED: u64 = 0x4E6_0001;

/// Multi-task rounds over a banded city grid: each stable bidder has a
/// home region and declares one or both of its tasks; a fixed share of
/// the pool also declares one task of another region and so straddles.
/// The pool is drawn from a fixed seed: its straddler count and region
/// sizes set each round's work.
#[derive(Debug)]
pub struct Regional {
    regions: u32,
    pool: Vec<Bidder>,
    per_round: usize,
}

impl Regional {
    pub fn new(regions: u32, pool_size: u32, per_round: usize, straddle: f64) -> Self {
        let seed = REGIONAL_POOL_SEED;
        let pool = (0..pool_size)
            .map(|user| {
                let key = 0x3_0000_0000 + user as u64;
                let home = (mix(seed, key, 0) % regions as u64) as u32;
                let mut tasks: Vec<u32> = (0..TASKS_PER_REGION)
                    .map(|slot| home * TASKS_PER_REGION + slot)
                    .collect();
                if unit(seed, key, 1) < 0.5 {
                    // Single-task home bidder: keep one of the two.
                    tasks.remove((mix(seed, key, 2) % TASKS_PER_REGION as u64) as usize);
                }
                if unit(seed, key, 3) < straddle {
                    let away =
                        (home + 1 + (mix(seed, key, 4) % (regions as u64 - 1)) as u32) % regions;
                    tasks.push(
                        away * TASKS_PER_REGION
                            + (mix(seed, key, 5) % TASKS_PER_REGION as u64) as u32,
                    );
                }
                tasks.sort_unstable();
                Bidder {
                    user,
                    cost: 8.0 + 14.0 * unit(seed, key, 6),
                    tasks: tasks
                        .into_iter()
                        .map(|task| (task, 0.1 + 0.4 * unit(seed, key, 100 + task as u64)))
                        .collect(),
                }
            })
            .collect();
        Regional {
            regions,
            pool,
            per_round,
        }
    }

    /// `regions` vertical bands of an 8×4 grid, two task sites per band.
    pub fn topology(&self) -> Topology {
        let grid = CityGrid::new(8, 4, 1.0);
        let band = grid.width() / self.regions;
        let sites = (0..self.regions * TASKS_PER_REGION)
            .map(|task| TaskSite {
                task: Task::with_requirement(TaskId::new(task), requirement())
                    .expect("valid requirement"),
                cell: Cell {
                    x: (task / TASKS_PER_REGION) * band + task % TASKS_PER_REGION % band,
                    y: task % grid.height(),
                },
            })
            .collect();
        Topology::bands(grid, self.regions as usize, sites).expect("band topology is valid")
    }
}

impl RoundGen for Regional {
    fn tasks(&self) -> Vec<Task> {
        self.topology().tasks().collect()
    }

    fn round(&self, seed: u64, round: u64) -> Vec<Bid> {
        sample_indices(seed, round, self.pool.len(), self.per_round)
            .into_iter()
            .map(|i| self.pool[i].bid(seed, round, 0.2))
            .collect()
    }
}

// ---------------------------------------------------------------------
// campaign-residual
// ---------------------------------------------------------------------

/// The stable population of the campaign workload: every bidder declares
/// 2–4 of the campaign's tasks, and each round a seeded sample of
/// `per_round` of them bids. The population itself is drawn from a fixed
/// seed, so every workload seed runs campaigns over the same bidders;
/// the draw seed picks each round's bidders and jitters their costs and,
/// through the runner, drives the execution draws.
#[derive(Debug)]
pub struct CampaignPopulation {
    pool: Vec<Bidder>,
    per_round: usize,
}

/// Seed of the campaign population's task sets, PoS and base costs.
const CAMPAIGN_POPULATION_SEED: u64 = 0x00C0_FFEE;

impl CampaignPopulation {
    pub fn new(pool_size: u32, task_count: u32, per_round: usize) -> Self {
        let fixed = CAMPAIGN_POPULATION_SEED;
        let pool = (0..pool_size)
            .map(|user| {
                let key = 0x4_0000_0000 + user as u64;
                let size = 2 + mix(fixed, key, 0) % 3;
                let mut picked = sample_indices(fixed, key, task_count as usize, size as usize);
                picked.sort_unstable();
                Bidder {
                    user,
                    cost: 8.0 + 14.0 * unit(fixed, key, 1),
                    tasks: picked
                        .into_iter()
                        .map(|task| (task as u32, 0.2 + 0.4 * unit(fixed, key, 100 + task as u64)))
                        .collect(),
                }
            })
            .collect();
        CampaignPopulation { pool, per_round }
    }

    /// The bids of campaign `campaign`, round `round`, drawn from `seed`,
    /// in ascending user order.
    pub fn bids(&self, seed: u64, campaign: u64, round: u64) -> Vec<Bid> {
        let key = campaign.wrapping_mul(0x1_0000).wrapping_add(round);
        let mut picked = sample_indices(seed, key, self.pool.len(), self.per_round);
        picked.sort_unstable();
        picked
            .into_iter()
            .map(|i| self.pool[i].bid(seed, key, 0.2))
            .collect()
    }
}
