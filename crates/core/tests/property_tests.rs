//! Property-based tests (proptest) for the core invariants:
//! log-domain transforms, knapsack DP correctness and monotonicity,
//! approximation guarantees against brute force, greedy monotonicity,
//! and the execution-contingent utility identity.

use mcs_core::knapsack::{frontier_min_feasible, pareto_frontier, DpTable, KnapsackItem, UserSet};
use mcs_core::mechanism::{RewardScheme, WinnerDetermination};
use mcs_core::multi_task::GreedyWinnerDetermination;
use mcs_core::single_task::{FptasWinnerDetermination, SingleTaskMechanism};
use mcs_core::submodular::CoverageFunction;
use mcs_core::types::{Contribution, Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
use proptest::prelude::*;

// ---------- generators ----------

fn pos_strategy() -> impl Strategy<Value = Pos> {
    (0.0..0.95f64).prop_map(|p| Pos::new(p).unwrap())
}

fn single_task_profile(max_users: usize) -> impl Strategy<Value = TypeProfile> {
    let user = (0.1..30.0f64, 0.02..0.8f64);
    (proptest::collection::vec(user, 2..max_users), 0.3..0.9f64).prop_map(|(users, requirement)| {
        let users = users
            .into_iter()
            .enumerate()
            .map(|(i, (cost, pos))| UserType::single(UserId::new(i as u32), cost, pos).unwrap())
            .collect();
        TypeProfile::single_task(Pos::new(requirement).unwrap(), users).unwrap()
    })
}

fn multi_task_profile() -> impl Strategy<Value = TypeProfile> {
    let task_req = 0.3..0.7f64;
    let user = (
        0.1..20.0f64,
        proptest::collection::vec((0u32..4, 0.05..0.6f64), 1..4),
    );
    (
        proptest::collection::vec(task_req, 2..4),
        proptest::collection::vec(user, 3..9),
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

// ---------- probability / contribution transforms ----------

proptest! {
    #[test]
    fn contribution_round_trips(p in pos_strategy()) {
        let back = p.contribution().pos();
        prop_assert!((back.value() - p.value()).abs() < 1e-10);
    }

    #[test]
    fn contributions_add_like_independent_failures(a in pos_strategy(), b in pos_strategy()) {
        // 1 - (1-a)(1-b) through the log domain.
        let combined = (a.contribution() + b.contribution()).pos().value();
        let direct = 1.0 - a.failure() * b.failure();
        prop_assert!((combined - direct).abs() < 1e-10);
    }

    #[test]
    fn contribution_order_matches_pos_order(a in pos_strategy(), b in pos_strategy()) {
        prop_assert_eq!(a < b, a.contribution() < b.contribution());
    }
}

// ---------- UserSet vs a model BTreeSet ----------

proptest! {
    #[test]
    fn user_set_behaves_like_btreeset(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..60)) {
        let mut set = UserSet::new();
        let mut model = std::collections::BTreeSet::new();
        for (index, insert) in ops {
            if insert {
                set.insert(index);
                model.insert(index);
            } else {
                set.remove(index);
                model.remove(&index);
            }
        }
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        for probe in [0usize, 1, 63, 64, 128, 199] {
            prop_assert_eq!(set.contains(probe), model.contains(&probe));
        }
    }
}

// ---------- knapsack DP ----------

/// Unpruned oracle: enumerate all 2^n subsets and take the minimum scaled
/// cost over those meeting the requirement. No dominance pruning, no
/// level cap, no saturation — the ground truth both DP formulations must
/// reproduce.
fn exhaustive_min_feasible(items: &[KnapsackItem], requirement: Contribution) -> Option<u64> {
    let mut best: Option<u64> = None;
    for mask in 0u32..(1 << items.len()) {
        let mut q = Contribution::ZERO;
        let mut scaled = 0u64;
        for (i, item) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                q += item.contribution;
                scaled += item.scaled_cost;
            }
        }
        if q.meets(requirement) && best.is_none_or(|b| scaled < b) {
            best = Some(scaled);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn pruned_dp_matches_the_unpruned_exhaustive_optimum(
        items in proptest::collection::vec((0.01..3.0f64, 0u64..12), 1..9),
        requirement in 0.1..4.0f64,
    ) {
        let items: Vec<KnapsackItem> = items
            .into_iter()
            .enumerate()
            .map(|(index, (q, scaled))| KnapsackItem {
                index,
                contribution: Contribution::new(q).unwrap(),
                scaled_cost: scaled,
                actual_cost: Cost::new(scaled as f64).unwrap(),
            })
            .collect();
        let requirement = Contribution::new(requirement).unwrap();
        let oracle = exhaustive_min_feasible(&items, requirement);

        // The saturating, dominance-pruned table agrees with the oracle.
        let table = DpTable::solve(&items, requirement, None);
        let via_table = table.min_feasible(requirement);
        prop_assert_eq!(via_table.map(|(level, _)| level), oracle);
        if let Some((level, cell)) = via_table {
            // The witness subset really has that scaled cost and is feasible.
            let witness_cost: u64 = cell.members.iter().map(|i| items[i].scaled_cost).sum();
            let witness_q: Contribution = cell.members.iter().map(|i| items[i].contribution).sum();
            prop_assert_eq!(witness_cost, level);
            prop_assert!(witness_q.meets(requirement));
        }

        // The Pareto-frontier formulation agrees too.
        let frontier = pareto_frontier(&items);
        prop_assert_eq!(
            frontier_min_feasible(&frontier, requirement).map(|s| s.scaled_cost),
            oracle
        );

        // Truncating the table at any known-feasible level (the documented
        // pruning contract) preserves the optimum exactly.
        if let Some(best) = oracle {
            let capped = DpTable::solve(&items, requirement, Some(best));
            prop_assert_eq!(capped.min_feasible(requirement).map(|(level, _)| level), Some(best));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn dp_agrees_with_pareto_oracle(
        items in proptest::collection::vec((0.01..3.0f64, 0u64..12), 1..8),
        requirement in 0.1..4.0f64,
    ) {
        let items: Vec<KnapsackItem> = items
            .into_iter()
            .enumerate()
            .map(|(index, (q, scaled))| KnapsackItem {
                index,
                contribution: Contribution::new(q).unwrap(),
                scaled_cost: scaled,
                actual_cost: Cost::new(scaled as f64).unwrap(),
            })
            .collect();
        let requirement = Contribution::new(requirement).unwrap();
        let table = DpTable::solve(&items, requirement, None);
        let frontier = pareto_frontier(&items);
        let via_table = table.min_feasible(requirement).map(|(level, _)| level);
        let via_frontier = frontier_min_feasible(&frontier, requirement).map(|s| s.scaled_cost);
        prop_assert_eq!(via_table, via_frontier);
    }
}

// ---------- FPTAS guarantees ----------

fn brute_force_single(profile: &TypeProfile) -> Option<f64> {
    let requirement = profile.the_task().unwrap().requirement_contribution();
    let users = profile.users();
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << users.len()) {
        let mut q = Contribution::ZERO;
        let mut cost = 0.0;
        for (i, user) in users.iter().enumerate() {
            if mask & (1 << i) != 0 {
                q += user.contribution_for(TaskId::new(0));
                cost += user.cost().value();
            }
        }
        if q.meets(requirement) && best.is_none_or(|b| cost < b) {
            best = Some(cost);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn fptas_within_ratio_of_brute_force(profile in single_task_profile(10), epsilon in 0.05..1.5f64) {
        let fptas = FptasWinnerDetermination::new(epsilon).unwrap();
        match fptas.select_winners(&profile) {
            Ok(allocation) => {
                let got = allocation.social_cost(&profile).unwrap().value();
                let optimum = brute_force_single(&profile).expect("fptas found a solution");
                prop_assert!(got <= (1.0 + epsilon) * optimum + 1e-9,
                    "got {} vs (1+{})·{}", got, epsilon, optimum);
                // And the allocation is genuinely feasible.
                let requirement = profile.the_task().unwrap().requirement_contribution();
                let supply: Contribution = allocation
                    .winners()
                    .map(|id| profile.user(id).unwrap().contribution_for(TaskId::new(0)))
                    .sum();
                prop_assert!(supply.meets(requirement));
            }
            Err(_) => prop_assert!(brute_force_single(&profile).is_none()),
        }
    }

    #[test]
    fn fptas_is_monotone_in_declared_pos(profile in single_task_profile(8), bump in 0.01..0.3f64) {
        let fptas = FptasWinnerDetermination::new(0.4).unwrap();
        let Ok(allocation) = fptas.select_winners(&profile) else { return Ok(()) };
        for winner in allocation.winners() {
            let user = profile.user(winner).unwrap();
            let raised_pos = (user.pos_for(TaskId::new(0)).unwrap().value() + bump).min(0.99);
            let lie = user.with_pos(TaskId::new(0), Pos::new(raised_pos).unwrap()).unwrap();
            let deviated = profile.with_user_type(lie).unwrap();
            let outcome = fptas.select_winners(&deviated).unwrap();
            prop_assert!(outcome.contains(winner), "{} demoted by raising PoS", winner);
        }
    }
}

// ---------- greedy (multi-task) ----------

fn brute_force_multi(profile: &TypeProfile) -> Option<f64> {
    let users = profile.users();
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << users.len()) {
        let feasible = profile.tasks().iter().all(|task| {
            let supply: Contribution = users
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, u)| u.contribution_for(task.id()))
                .sum();
            supply.meets(task.requirement_contribution())
        });
        if feasible {
            let cost: f64 = users
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, u)| u.cost().value())
                .sum();
            if best.is_none_or(|b| cost < b) {
                best = Some(cost);
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn greedy_within_h_gamma_of_brute_force(profile in multi_task_profile()) {
        let greedy = GreedyWinnerDetermination::new();
        match greedy.select_winners(&profile) {
            Ok(allocation) => {
                let got = allocation.social_cost(&profile).unwrap().value();
                let optimum = brute_force_multi(&profile).expect("greedy found a solution");
                let coverage = CoverageFunction::new(&profile, 0.02).unwrap();
                let bound = coverage.greedy_ratio_bound();
                prop_assert!(got <= bound * optimum + 1e-9,
                    "got {} vs H(γ)={} times {}", got, bound, optimum);
            }
            Err(_) => prop_assert!(brute_force_multi(&profile).is_none()),
        }
    }

    #[test]
    fn greedy_is_monotone_in_scaled_contributions(profile in multi_task_profile(), factor in 1.01..3.0f64) {
        let greedy = GreedyWinnerDetermination::new();
        let Ok(allocation) = greedy.select_winners(&profile) else { return Ok(()) };
        for winner in allocation.winners() {
            let raised = profile.user(winner).unwrap().with_scaled_contributions(factor);
            let deviated = profile.with_user_type(raised).unwrap();
            let outcome = greedy.select_winners(&deviated).unwrap();
            prop_assert!(outcome.contains(winner), "{} demoted by scaling ×{}", winner, factor);
        }
    }
}

// ---------- execution-contingent reward identity ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn expected_utility_equals_pos_gap_times_alpha(
        profile in single_task_profile(7),
        alpha in 0.5..20.0f64,
    ) {
        let mechanism = SingleTaskMechanism::new(0.3, alpha).unwrap();
        let Ok(allocation) = mechanism.select_winners(&profile) else { return Ok(()) };
        for winner in allocation.winners() {
            let p = profile.user(winner).unwrap().pos_for(TaskId::new(0)).unwrap().value();
            let critical = mechanism.critical_pos(&profile, &allocation, winner).unwrap().value();
            let quote = mechanism.quote(&profile, &allocation, winner).unwrap();
            let cost = profile.user(winner).unwrap().cost().value();
            let direct = quote.expected(p) - cost;
            let closed = (p - critical) * alpha;
            prop_assert!((direct - closed).abs() < 1e-9);
            // Individual rationality.
            prop_assert!(direct >= -1e-9);
        }
    }
}
