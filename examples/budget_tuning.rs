//! Platform-side tuning: how the reward scaling factor `α` and the FPTAS
//! accuracy `ε` trade off payout, user utility, and computation.
//!
//! * `α` scales the execution-contingent reward spread: a larger `α` pays
//!   winners more in expectation (utility `(p − p̄)·α`) and costs the
//!   platform more, without changing *who* wins.
//! * `ε` trades allocation quality for winner-determination time: the
//!   selected set costs at most `(1+ε)` times the optimum.
//!
//! ```text
//! cargo run --release --example budget_tuning
//! ```

use mcs_core::baselines::OptimalSingleTask;
use mcs_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() -> Result<()> {
    // A 60-user market with dispersed reliability and costs.
    let mut rng = StdRng::seed_from_u64(99);
    let users: Vec<UserType> = (0..60)
        .map(|i| {
            UserType::single(
                UserId::new(i),
                rng.gen_range(5.0..25.0),
                rng.gen_range(0.05..0.45),
            )
        })
        .collect::<Result<_>>()?;
    let profile = TypeProfile::single_task(Pos::new(0.8)?, users)?;

    println!("=== α: reward budget vs. user utility (ε = 0.5) ===");
    println!(
        "{:>6}  {:>14}  {:>16}",
        "alpha", "total payout*", "mean winner util"
    );
    for alpha in [1.0, 5.0, 10.0, 25.0] {
        let mechanism = SingleTaskMechanism::new(0.5, alpha)?;
        let auction = ReverseAuction::new(mechanism);
        let outcome = auction.run(&profile, &mut StdRng::seed_from_u64(1))?;
        let mean_utility: f64 = outcome.expected_utilities.values().sum::<f64>()
            / outcome.expected_utilities.len().max(1) as f64;
        // Expected payout: cost reimbursement + α-scaled incentive spread.
        let expected_payout: f64 = outcome
            .allocation
            .winners()
            .map(|w| {
                let quote = auction
                    .mechanism()
                    .quote(&profile, &outcome.allocation, w)
                    .expect("winner");
                let p = profile
                    .user(w)
                    .expect("winner exists")
                    .pos_for(TaskId::new(0))
                    .expect("task in set")
                    .value();
                quote.expected(p)
            })
            .sum();
        println!("{alpha:>6}  {expected_payout:>14.2}  {mean_utility:>16.3}");
    }
    println!("(*expected, under truthful types)");

    println!("\n=== ε: allocation quality vs. winner-determination time ===");
    let optimal_cost = OptimalSingleTask::new()
        .select_winners(&profile)?
        .social_cost(&profile)?
        .value();
    println!("optimal social cost: {optimal_cost:.2}");
    println!(
        "{:>6}  {:>12}  {:>10}  {:>10}",
        "eps", "social cost", "ratio", "time"
    );
    for epsilon in [2.0, 1.0, 0.5, 0.2, 0.05] {
        let mechanism = SingleTaskMechanism::new(epsilon, 10.0)?;
        let start = Instant::now();
        let allocation = mechanism.select_winners(&profile)?;
        let elapsed = start.elapsed();
        let cost = allocation.social_cost(&profile)?.value();
        println!(
            "{epsilon:>6}  {cost:>12.2}  {:>10.4}  {:>10.1?}",
            cost / optimal_cost,
            elapsed,
        );
    }
    println!("\nEvery ratio stays below 1+ε — usually far below.");
    Ok(())
}
