//! Adversarial strategy-proofness suite: randomized instances, systematic
//! ±ε misreport grids, critical-bid padding, and the paper's own
//! counterexample, for both mechanisms.
//!
//! These are the integration-level teeth behind Theorems 1 and 4: any
//! implementation bug that lets a user gain by misreporting her PoS shows
//! up here as a concrete profitable deviation. The deviation grids are
//! built with [`misreport_factor_grid`], so each user is probed at
//! scaling factors `1 ± ε` for a dense ladder of ε — small perturbations
//! near truth-telling where payment discontinuities hide, plus large
//! exaggerations and the total under-report at 0.

use mcs_core::analysis::{
    check_critical_bid_padding, check_strategy_proofness, check_strategy_proofness_grid,
    expected_utility, misreport_factor_grid,
};
use mcs_core::mechanism::{RewardScheme, WinnerDetermination};
use mcs_core::multi_task::MultiTaskMechanism;
use mcs_core::single_task::SingleTaskMechanism;
use mcs_core::types::{Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative deviations probed on every user: dense near zero (where a
/// broken tie-break or payment discontinuity would first pay), sparse
/// out to 5× exaggerations. The grid helper mirrors each ε to both
/// sides of truth-telling and adds the total under-report at 0.
const EPSILONS: [f64; 12] = [
    0.01, 0.02, 0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 0.8, 1.0, 2.0, 5.0,
];

/// Fractions of the gap between a winner's declared contribution and her
/// critical contribution; padding by any of these must keep her winning
/// at an unchanged payment.
const PADS: [f64; 5] = [0.25, 0.5, 0.75, 0.9, 0.99];

fn random_single_task(rng: &mut StdRng, n: usize) -> TypeProfile {
    let users = (0..n)
        .map(|i| {
            UserType::single(
                UserId::new(i as u32),
                rng.gen_range(1.0..25.0),
                rng.gen_range(0.05..0.6),
            )
            .unwrap()
        })
        .collect();
    TypeProfile::single_task(Pos::new(rng.gen_range(0.5..0.9)).unwrap(), users).unwrap()
}

fn random_multi_task(rng: &mut StdRng, n: usize, t: usize) -> TypeProfile {
    let tasks: Vec<Task> = (0..t)
        .map(|j| Task::with_requirement(TaskId::new(j as u32), rng.gen_range(0.4..0.8)).unwrap())
        .collect();
    let users: Vec<UserType> = (0..n)
        .map(|i| {
            let mut b = UserType::builder(UserId::new(i as u32))
                .cost(Cost::new(rng.gen_range(1.0..25.0)).unwrap());
            let size = rng.gen_range(1..=t);
            let mut ids: Vec<u32> = (0..t as u32).collect();
            for _ in 0..size {
                let pick = rng.gen_range(0..ids.len());
                b = b.task(
                    TaskId::new(ids.swap_remove(pick)),
                    Pos::new(rng.gen_range(0.05..0.5)).unwrap(),
                );
            }
            b.build().unwrap()
        })
        .collect();
    TypeProfile::new(users, tasks).unwrap()
}

#[test]
fn the_misreport_grid_brackets_truth_from_both_sides() {
    let grid = misreport_factor_grid(&EPSILONS);
    // 0, the 12 under-reports 1-ε, and the 12 over-reports 1+ε; the
    // clipped negatives (ε ≥ 1 gives max(0, 1-ε) = 0) dedup into the
    // leading 0.
    assert!(grid.contains(&0.0));
    assert!(grid.contains(&0.99) && grid.contains(&1.01));
    assert!(grid.contains(&6.0));
    assert!(!grid.contains(&1.0), "truth-telling is not a deviation");
    assert!(grid.windows(2).all(|w| w[0] < w[1]), "grid must be sorted");
}

#[test]
fn single_task_mechanism_resists_epsilon_grid_deviations() {
    let mut rng = StdRng::seed_from_u64(101);
    let mut feasible = 0;
    for _ in 0..6 {
        let truth = random_single_task(&mut rng, 10);
        let mechanism = SingleTaskMechanism::new(0.4, 10.0).unwrap();
        if mechanism.select_winners(&truth).is_err() {
            continue;
        }
        feasible += 1;
        let violations =
            check_strategy_proofness_grid(&mechanism, &truth, &EPSILONS, 1e-6).unwrap();
        assert!(violations.is_empty(), "deviations found: {violations:?}");
    }
    assert!(feasible >= 3, "too few feasible random instances");
}

#[test]
fn multi_task_mechanism_resists_epsilon_grid_deviations() {
    let mut rng = StdRng::seed_from_u64(202);
    let mut feasible = 0;
    for _ in 0..6 {
        let truth = random_multi_task(&mut rng, 12, 4);
        let mechanism = MultiTaskMechanism::new(10.0).unwrap();
        if mechanism.select_winners(&truth).is_err() {
            continue;
        }
        feasible += 1;
        let violations =
            check_strategy_proofness_grid(&mechanism, &truth, &EPSILONS, 1e-6).unwrap();
        assert!(violations.is_empty(), "deviations found: {violations:?}");
    }
    assert!(feasible >= 3, "too few feasible random instances");
}

#[test]
fn grid_check_agrees_with_the_legacy_explicit_factor_check() {
    // The grid helper is the same predicate over a derived factor set;
    // on a fixed instance both formulations must agree that no deviation
    // pays.
    let mut rng = StdRng::seed_from_u64(404);
    let truth = random_single_task(&mut rng, 8);
    let mechanism = SingleTaskMechanism::new(0.3, 10.0).unwrap();
    if mechanism.select_winners(&truth).is_err() {
        return;
    }
    let factors = misreport_factor_grid(&EPSILONS);
    let explicit = check_strategy_proofness(&mechanism, &truth, &factors, 1e-6).unwrap();
    let grid = check_strategy_proofness_grid(&mechanism, &truth, &EPSILONS, 1e-6).unwrap();
    assert_eq!(explicit.len(), grid.len());
    assert!(grid.is_empty(), "deviations found: {grid:?}");
}

#[test]
fn single_task_winners_padded_toward_critical_keep_winning_at_the_same_price() {
    // Lemma-level monotonicity behind Theorem 1: a winner who shades her
    // declared PoS toward (but not past) her critical value still wins,
    // and — because the payment depends only on the critical value — is
    // paid exactly the same.
    let mut rng = StdRng::seed_from_u64(505);
    let mechanism = SingleTaskMechanism::new(0.4, 10.0).unwrap();
    let mut padded_winners = 0;
    for _ in 0..6 {
        let truth = random_single_task(&mut rng, 10);
        let Ok(allocation) = mechanism.select_winners(&truth) else {
            continue;
        };
        for user in allocation.winners() {
            let critical = mechanism.critical_pos(&truth, &allocation, user).unwrap();
            let reference = mechanism.quote(&truth, &allocation, user).unwrap().success;
            let violations = check_critical_bid_padding(
                &mechanism, &truth, user, critical, reference, &PADS, 1e-6,
            )
            .unwrap();
            assert!(violations.is_empty(), "user {user}: {violations:?}");
            padded_winners += 1;
        }
    }
    assert!(padded_winners >= 5, "too few winners exercised");
}

#[test]
fn multi_task_winners_padded_toward_critical_keep_winning_at_the_same_price() {
    let mut rng = StdRng::seed_from_u64(606);
    let mechanism = MultiTaskMechanism::new(10.0).unwrap();
    let mut padded_winners = 0;
    for _ in 0..6 {
        let truth = random_multi_task(&mut rng, 12, 3);
        let Ok(allocation) = mechanism.select_winners(&truth) else {
            continue;
        };
        for user in allocation.winners() {
            let critical = mechanism.critical_pos(&truth, &allocation, user).unwrap();
            let reference = mechanism.quote(&truth, &allocation, user).unwrap().success;
            let violations = check_critical_bid_padding(
                &mechanism, &truth, user, critical, reference, &PADS, 1e-6,
            )
            .unwrap();
            assert!(violations.is_empty(), "user {user}: {violations:?}");
            padded_winners += 1;
        }
    }
    assert!(padded_winners >= 5, "too few winners exercised");
}

#[test]
fn scaling_any_fixed_direction_is_truthful_but_per_task_lies_are_out_of_scope() {
    // The guarantee (matching the paper's single-dimensional reduction) is
    // incentive compatibility along *uniform scalings* of a user's
    // contribution vector. This test pins the boundary down from both
    // sides:
    //  1. on every instance, uniform-scaling deviations never pay;
    //  2. single-task (direction-changing) lies are genuinely outside the
    //     guarantee — multi-dimensional manipulation is the open problem
    //     the paper's Section III-A defers — so we only require that such
    //     a lie never beats the *uniform* exaggeration envelope by more
    //     than the reward spread α (a sanity bound, not a theorem).
    let mut rng = StdRng::seed_from_u64(303);
    let alpha = 10.0;
    let mechanism = MultiTaskMechanism::new(alpha).unwrap();
    let mut instances = 0;
    while instances < 4 {
        let truth = random_multi_task(&mut rng, 10, 3);
        if mechanism.select_winners(&truth).is_err() {
            continue;
        }
        instances += 1;
        let violations =
            check_strategy_proofness_grid(&mechanism, &truth, &EPSILONS, 1e-6).unwrap();
        assert!(
            violations.is_empty(),
            "uniform deviations paid: {violations:?}"
        );
        for user in truth.user_ids() {
            let honest = expected_utility(&mechanism, &truth, &truth, user).unwrap();
            let user_type = truth.user(user).unwrap().clone();
            for (task, _) in user_type.tasks() {
                for lie in [0.01, 0.3, 0.7, 0.95] {
                    let lied = user_type.with_pos(task, Pos::new(lie).unwrap()).unwrap();
                    let declared = truth.with_user_type(lied).unwrap();
                    let utility = expected_utility(&mechanism, &declared, &truth, user).unwrap();
                    assert!(
                        utility <= honest + alpha + 1e-6,
                        "user {user}'s per-task lie on {task} -> {lie} exceeded the \
                         α-bounded envelope: {utility} > {honest} + {alpha}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_papers_vcg_counterexample_is_neutralized() {
    // Section III-A: under VCG, user 3 (cost 1, PoS 0.5) profits by
    // declaring PoS 0.9 when the requirement is 0.9. Under the EC reward
    // scheme the same lie is weakly unprofitable.
    let users = vec![
        UserType::single(UserId::new(0), 3.0, 0.7).unwrap(),
        UserType::single(UserId::new(1), 2.0, 0.7).unwrap(),
        UserType::single(UserId::new(2), 1.0, 0.5).unwrap(),
        UserType::single(UserId::new(3), 4.0, 0.8).unwrap(),
    ];
    let truth = TypeProfile::single_task(Pos::new(0.9).unwrap(), users).unwrap();
    let mechanism = SingleTaskMechanism::new(0.1, 10.0).unwrap();
    let liar = UserId::new(2);
    let honest = expected_utility(&mechanism, &truth, &truth, liar).unwrap();

    let lied = truth
        .user(liar)
        .unwrap()
        .with_pos(TaskId::new(0), Pos::new(0.9).unwrap())
        .unwrap();
    let declared = truth.with_user_type(lied).unwrap();
    let lying = expected_utility(&mechanism, &declared, &truth, liar).unwrap();
    assert!(
        lying <= honest + 1e-9,
        "the VCG manipulation still pays: {lying} > {honest}"
    );
}

#[test]
fn losers_cannot_buy_their_way_in_profitably() {
    // Users outside the winner set can often *win* by exaggerating; the
    // point of the EC scheme is that the resulting expected utility is
    // negative.
    let users = vec![
        UserType::single(UserId::new(0), 2.0, 0.5).unwrap(),
        UserType::single(UserId::new(1), 2.0, 0.5).unwrap(),
        UserType::single(UserId::new(2), 9.0, 0.45).unwrap(), // expensive loser
    ];
    let truth = TypeProfile::single_task(Pos::new(0.7).unwrap(), users).unwrap();
    let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
    let loser = UserId::new(2);
    let allocation = mechanism.select_winners(&truth).unwrap();
    assert!(!allocation.contains(loser));

    for lie in [0.8, 0.9, 0.99] {
        let lied = truth
            .user(loser)
            .unwrap()
            .with_pos(TaskId::new(0), Pos::new(lie).unwrap())
            .unwrap();
        let declared = truth.with_user_type(lied).unwrap();
        let utility = expected_utility(&mechanism, &declared, &truth, loser).unwrap();
        assert!(
            utility <= 1e-9,
            "loser profits by declaring {lie}: {utility}"
        );
    }
}
