//! Why naive VCG breaks — and why the execution-contingent mechanism does
//! not. Reproduces the paper's Section III-A counterexample numerically.
//!
//! Setup (the paper's example, with user 2's cost nudged off a knife-edge
//! tie): four users bid (cost, PoS) = (3, 0.7), (2, 0.7), (1.5, 0.5),
//! (4, 0.8) on a task requiring PoS ≥ 0.9. Under a VCG-style mechanism the
//! payment ignores declared PoS, so user 2 (cheap, true PoS 0.5) profits
//! by declaring PoS 0.9 and squeezing into the solution. Under the
//! execution-contingent scheme, the same lie strictly backfires.
//!
//! ```text
//! cargo run --example strategic_user
//! ```

use mcs_core::analysis::expected_utility;
use mcs_core::baselines::StVcg;
use mcs_core::mechanism::WinnerDetermination;
use mcs_core::prelude::*;

fn main() -> Result<()> {
    let truth = TypeProfile::single_task(
        Pos::new(0.9)?,
        vec![
            UserType::single(UserId::new(0), 3.0, 0.7)?,
            UserType::single(UserId::new(1), 2.0, 0.7)?,
            UserType::single(UserId::new(2), 1.5, 0.5)?,
            UserType::single(UserId::new(3), 4.0, 0.8)?,
        ],
    )?;
    let liar = UserId::new(2);
    let lie = Pos::new(0.9)?;

    println!("=== The VCG-style failure ===");
    // Under VCG-like selection everyone inflates PoS; the platform picks
    // by cost alone, so the cheap unreliable user always wins.
    let vcg = StVcg::new();
    let vcg_allocation = vcg.select_winners(&truth)?;
    println!("ST-VCG selects {} (the cheapest declarer)", vcg_allocation);
    let achieved = truth
        .user(liar)?
        .pos_for(TaskId::new(0))
        .expect("task in set")
        .value();
    println!("achieved PoS: {achieved:.2} — the 0.9 requirement is missed\n");

    println!("=== The execution-contingent mechanism ===");
    let mechanism = SingleTaskMechanism::new(0.1, 10.0)?;

    let honest_allocation = mechanism.select_winners(&truth)?;
    println!("truthful bids  -> winners {honest_allocation}");
    let honest_utility = expected_utility(&mechanism, &truth, &truth, liar)?;
    println!("user {liar}'s truthful expected utility: {honest_utility:+.4}");

    let declared = truth.with_user_type(truth.user(liar)?.with_pos(TaskId::new(0), lie)?)?;
    let lying_allocation = mechanism.select_winners(&declared)?;
    println!("\nuser {liar} declares PoS 0.9 -> winners {lying_allocation}");
    let lying_utility = expected_utility(&mechanism, &declared, &truth, liar)?;
    println!("user {liar}'s expected utility under the lie: {lying_utility:+.4}");

    if lying_allocation.contains(liar) {
        let quote = mechanism.quote(&declared, &lying_allocation, liar)?;
        println!(
            "  (she wins, but rewards are contingent: {:+.3} on success, \
             {:+.3} on failure — and she only succeeds half the time)",
            quote.success, quote.failure
        );
    }

    assert!(
        lying_utility < honest_utility + 1e-9,
        "the mechanism failed to neutralize the manipulation!"
    );
    println!("\nThe lie does not pay: {lying_utility:+.4} ≤ {honest_utility:+.4}.");
    Ok(())
}
