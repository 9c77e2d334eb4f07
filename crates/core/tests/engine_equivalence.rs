//! Differential proptest suites: the indexed lazy-greedy engine and the
//! warm-started, parallel payment path must be **bitwise identical** to
//! the straightforward reference implementations in
//! `mcs_core::multi_task::reference` — not approximately equal. Any
//! divergence breaks the platform's determinism contract (payments must
//! not depend on thread counts or on which code path served a round).

use std::collections::BTreeMap;

use mcs_core::indexed::ClearContext;
use mcs_core::mechanism::{RewardScheme, RoundMechanism, WinnerDetermination};
use mcs_core::multi_task::{
    critical_contribution, reference, GreedyWinnerDetermination, MultiTaskMechanism,
};
use mcs_core::single_task::SingleTaskMechanism;
use mcs_core::types::{Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
use mcs_core::McsError;
use proptest::prelude::*;

/// Random multi-task profiles: 2–4 tasks, 3–12 single-minded users, with
/// duplicate task declarations folded by the builder. Roughly half the
/// instances are infeasible, exercising the exhaustion path too.
fn multi_task_profile() -> impl Strategy<Value = TypeProfile> {
    let task_req = 0.3..0.8f64;
    let user = (
        0.0..20.0f64,
        proptest::collection::vec((0u32..4, 0.05..0.6f64), 1..4),
    );
    (
        proptest::collection::vec(task_req, 2..4),
        proptest::collection::vec(user, 3..13),
    )
        .prop_map(|(reqs, users)| {
            let t = reqs.len() as u32;
            let tasks: Vec<Task> = reqs
                .into_iter()
                .enumerate()
                .map(|(j, r)| Task::with_requirement(TaskId::new(j as u32), r).unwrap())
                .collect();
            let users: Vec<UserType> = users
                .into_iter()
                .enumerate()
                .map(|(i, (cost, entries))| {
                    let mut b =
                        UserType::builder(UserId::new(i as u32)).cost(Cost::new(cost).unwrap());
                    for (task, pos) in entries {
                        b = b.task(TaskId::new(task % t), Pos::new(pos).unwrap());
                    }
                    b.build().unwrap()
                })
                .collect();
            TypeProfile::new(users, tasks).unwrap()
        })
}

/// Random single-task profiles: 2–7 users on one task, some infeasible.
fn single_task_profile() -> impl Strategy<Value = TypeProfile> {
    (
        0.3..0.9f64,
        proptest::collection::vec((0.5..20.0f64, 0.05..0.7f64), 2..8),
    )
        .prop_map(|(requirement, users)| {
            let users = users
                .into_iter()
                .enumerate()
                .map(|(i, (cost, pos))| UserType::single(UserId::new(i as u32), cost, pos).unwrap())
                .collect();
            TypeProfile::single_task(Pos::new(requirement).unwrap(), users).unwrap()
        })
}

/// Per-winner reference quotes, written out: the shape's own mechanism
/// searches each winner's critical PoS `p̄`, priced as `(1 − p̄)·α + c` on
/// success and `−p̄·α + c` on failure. Quotes are `(success, failure)`
/// bit patterns.
fn reference_quotes<M: WinnerDetermination + RewardScheme>(
    mechanism: &M,
    profile: &TypeProfile,
) -> Result<BTreeMap<UserId, (u64, u64)>, McsError> {
    let allocation = mechanism.select_winners(profile)?;
    let alpha = mechanism.alpha();
    let mut quotes = BTreeMap::new();
    for winner in allocation.winners() {
        let critical = mechanism
            .critical_pos(profile, &allocation, winner)?
            .value();
        let cost = profile.user(winner)?.cost().value();
        let success = (1.0 - critical) * alpha + cost;
        let failure = -critical * alpha + cost;
        quotes.insert(winner, (success.to_bits(), failure.to_bits()));
    }
    Ok(quotes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tentpole equivalence #1: the lazy-greedy engine reproduces the
    /// reference scan greedy bit for bit — same winners, same iteration
    /// order, same capped contributions, same residual snapshots, same
    /// uncovered task on infeasible instances.
    #[test]
    fn lazy_greedy_run_is_bitwise_equal_to_reference(profile in multi_task_profile()) {
        let lazy = GreedyWinnerDetermination::new().run_to_exhaustion(&profile);
        let scan = reference::run_to_exhaustion(&profile);
        prop_assert_eq!(lazy, scan);
    }

    /// Tentpole equivalence #2: the warm-started, substitution-based
    /// bisection returns the same critical contribution as the cloning
    /// reference bisection — bitwise — and fails with the same error for
    /// the same users.
    #[test]
    fn fast_critical_bid_is_bitwise_equal_to_reference(profile in multi_task_profile()) {
        let wd = GreedyWinnerDetermination::new();
        for user in profile.user_ids() {
            let fast = critical_contribution(&wd, &profile, user);
            let slow = reference::critical_contribution(&profile, user);
            match (fast, slow) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.value().to_bits(), b.value().to_bits()),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (fast, slow) => {
                    return Err(TestCaseError::fail(format!(
                        "outcome shape diverges for {user}: fast {fast:?}, reference {slow:?}"
                    )))
                }
            }
        }
    }

    /// Tentpole equivalence #3: batch payments are identical for 1, 2, 4,
    /// and 8 threads, and identical to the per-user sequential path —
    /// the platform's determinism contract for the payment fan-out knob.
    #[test]
    fn parallel_payments_equal_sequential_for_any_thread_count(profile in multi_task_profile()) {
        let mechanism = MultiTaskMechanism::new(10.0).unwrap();
        let allocation = match mechanism.select_winners(&profile) {
            Ok(allocation) => allocation,
            Err(McsError::Infeasible { .. }) => return Ok(()),
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other}"))),
        };
        let sequential = mechanism
            .critical_pos_all_with(&mut ClearContext::new(), &profile, &allocation)
            .unwrap();
        prop_assert_eq!(sequential.len(), allocation.winner_count());
        for (&winner, critical) in &sequential {
            let single = mechanism.critical_pos(&profile, &allocation, winner).unwrap();
            prop_assert_eq!(critical.value().to_bits(), single.value().to_bits());
        }
        for threads in [2usize, 4, 8] {
            let parallel = mechanism
                .clone()
                .with_payment_threads(threads)
                .critical_pos_all_with(&mut ClearContext::new(), &profile, &allocation)
                .unwrap();
            prop_assert_eq!(&parallel, &sequential);
        }
    }

    /// The platform's one quoting path: `RoundMechanism` picks the FPTAS
    /// exactly when the profile has one task, and its `quote_all` on a
    /// shared (warm) context equals the per-winner reference bit for bit
    /// for 1, 2, and 4 payment threads.
    #[test]
    fn round_mechanism_quotes_equal_per_winner_reference(
        profile in (any::<bool>(), single_task_profile(), multi_task_profile())
            .prop_map(|(single, one, many)| if single { one } else { many }),
    ) {
        const EPSILON: f64 = 0.3;
        const ALPHA: f64 = 10.0;
        let one_task = profile.tasks().len() == 1;
        let expected = if one_task {
            reference_quotes(&SingleTaskMechanism::new(EPSILON, ALPHA).unwrap(), &profile)
        } else {
            reference_quotes(&MultiTaskMechanism::new(ALPHA).unwrap(), &profile)
        };
        let mut context = ClearContext::new();
        for threads in [1usize, 2, 4] {
            let mechanism = RoundMechanism::new(&profile, EPSILON, ALPHA, threads).unwrap();
            prop_assert_eq!(matches!(mechanism, RoundMechanism::SingleTask(_)), one_task);
            let quoted = mechanism
                .allocate(&mut context, &profile)
                .and_then(|allocation| mechanism.quote_all(&mut context, &profile, &allocation))
                .map(|quotes| {
                    quotes
                        .into_iter()
                        .map(|(winner, q)| (winner, (q.success.to_bits(), q.failure.to_bits())))
                        .collect()
                });
            prop_assert!(
                quoted == expected,
                "{threads} payment threads: {quoted:?} != reference {expected:?}"
            );
        }
    }
}

#[test]
fn unknown_users_get_the_same_error_from_both_paths() {
    let users = vec![UserType::builder(UserId::new(0))
        .cost(Cost::new(1.0).unwrap())
        .task(TaskId::new(0), Pos::new(0.8).unwrap())
        .build()
        .unwrap()];
    let tasks = vec![Task::with_requirement(TaskId::new(0), 0.5).unwrap()];
    let profile = TypeProfile::new(users, tasks).unwrap();
    let wd = GreedyWinnerDetermination::new();
    let ghost = UserId::new(42);
    assert_eq!(
        critical_contribution(&wd, &profile, ghost).unwrap_err(),
        reference::critical_contribution(&profile, ghost).unwrap_err(),
    );
}
