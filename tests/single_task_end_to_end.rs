//! End-to-end integration of the single-task mechanism: mobility data set
//! → population → auction → execution → rewards, across the crate
//! boundaries (`mcs-mobility` → `mcs-sim` → `mcs-core`).

use mcs_core::analysis::{
    achieved_pos, check_individual_rationality, check_monotonicity, check_strategy_proofness,
};
use mcs_core::auction::ReverseAuction;
use mcs_core::mechanism::{RewardScheme, WinnerDetermination};
use mcs_core::single_task::SingleTaskMechanism;
use mcs_core::types::TaskId;
use mcs_sim::config::{DatasetParams, SimParams};
use mcs_sim::population::{Dataset, PopulationBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| Dataset::build(DatasetParams::small()))
}

fn population(n: usize, seed: u64) -> mcs_sim::population::Population {
    let ds = dataset();
    let builder = PopulationBuilder::new(ds, SimParams::default());
    let task = ds.single_task_location(n + 20).expect("covered cell");
    builder
        .single_task(task, n, &mut StdRng::seed_from_u64(seed))
        .expect("population builds")
}

#[test]
fn auction_round_trip_on_real_pipeline_data() {
    let population = population(40, 1);
    let mechanism = SingleTaskMechanism::new(0.5, 10.0).unwrap();
    let auction = ReverseAuction::new(mechanism);
    let outcome = auction
        .run(&population.profile, &mut StdRng::seed_from_u64(2))
        .expect("auction runs");

    // Fault tolerance: the winner set meets the requirement in expectation.
    let achieved = achieved_pos(&population.profile, &outcome.allocation, TaskId::new(0));
    let required = population.profile.the_task().unwrap().requirement().value();
    assert!(achieved.value() >= required - 1e-9);

    // Individual rationality on expected utilities.
    for (user, &utility) in &outcome.expected_utilities {
        assert!(
            utility >= -1e-9,
            "winner {user} has negative expected utility"
        );
    }

    // Execution-contingent rewards: success strictly better than failure.
    for winner in outcome.allocation.winners() {
        let quote = auction
            .mechanism()
            .quote(&population.profile, &outcome.allocation, winner)
            .unwrap();
        assert!(quote.success > quote.failure);
    }
}

#[test]
fn economic_properties_hold_on_pipeline_instances() {
    // Smaller n: the strategy-proofness check runs a critical-bid search
    // per user and deviation.
    let population = population(14, 3);
    let mechanism = SingleTaskMechanism::new(0.3, 10.0).unwrap();

    let violations = check_strategy_proofness(
        &mechanism,
        &population.profile,
        &[0.0, 0.5, 0.8, 1.25, 2.0, 5.0],
        1e-6,
    )
    .expect("check runs");
    assert!(
        violations.is_empty(),
        "profitable deviations: {violations:?}"
    );

    let ir = check_individual_rationality(&mechanism, &population.profile, 1e-6).unwrap();
    assert!(ir.is_empty(), "IR violations: {ir:?}");

    let demotions = check_monotonicity(&mechanism, &population.profile, &[1.2, 2.0]).unwrap();
    assert!(
        demotions.is_empty(),
        "monotonicity violations: {demotions:?}"
    );
}

#[test]
fn repeated_auctions_complete_the_task_at_the_required_rate() {
    let population = population(50, 4);
    let mechanism = SingleTaskMechanism::new(0.5, 10.0).unwrap();
    let auction = ReverseAuction::new(mechanism);
    let mut rng = StdRng::seed_from_u64(5);
    let trials = 400;
    let mut completions = 0;
    let required = population.profile.the_task().unwrap().requirement().value();
    // Winner determination and rewards are settled once; each round is
    // just the execution draws.
    let prepared = auction.prepare(&population.profile).unwrap();
    for _ in 0..trials {
        let outcome = prepared.execute(&mut rng);
        if outcome.task_completed(TaskId::new(0)) {
            completions += 1;
        }
    }
    let rate = completions as f64 / trials as f64;
    // Binomial(400, ≥0.8): a rate below required − 3σ would be suspect.
    let sigma = (required * (1.0 - required) / trials as f64).sqrt();
    assert!(
        rate >= required - 3.0 * sigma,
        "empirical completion rate {rate} below requirement {required}"
    );
}

#[test]
fn fptas_stays_within_ratio_of_opt_across_population_sizes() {
    let mechanism = SingleTaskMechanism::new(0.5, 10.0).unwrap();
    for n in [20, 40, 80] {
        let population = population(n, 7 + n as u64);
        let allocation = mechanism.select_winners(&population.profile).unwrap();
        let cost = allocation.social_cost(&population.profile).unwrap().value();
        let optimal = mcs_core::baselines::OptimalSingleTask::new()
            .select_winners(&population.profile)
            .unwrap()
            .social_cost(&population.profile)
            .unwrap()
            .value();
        assert!(
            cost <= 1.5 * optimal + 1e-9,
            "n={n}: FPTAS {cost} above 1.5 × OPT {optimal}"
        );
    }
}
