//! Economic-quality metrics for live telemetry: coverage slack, winner
//! redundancy, and overpayment against the social-cost lower bound.
//!
//! The offline harness (`mcs-sim`) evaluates mechanisms on full
//! trajectories; the serving platform needs the same quantities cheaply,
//! per round, from the allocation and quotes it already holds. These
//! helpers are pure functions over core types so both callers agree on
//! definitions.

use crate::mechanism::{Allocation, RewardQuote};
use crate::types::{Contribution, TypeProfile};

/// Total coverage slack `Σ_j (q_j − Q_j)` in the contribution (log)
/// domain: for each task, the winners' summed contribution minus the
/// requirement's contribution, totalled over all tasks.
///
/// Zero means the allocation is tight everywhere; large values mean the
/// mechanism is buying more probability than the requirements demand.
/// Negative values can only appear on infeasible or degraded rounds.
pub fn coverage_slack(profile: &TypeProfile, allocation: &Allocation) -> f64 {
    profile
        .tasks()
        .iter()
        .map(|task| {
            let supply: Contribution = allocation
                .winners()
                .filter_map(|id| profile.user(id).ok())
                .map(|user| user.contribution_for(task.id()))
                .sum();
            supply.value() - task.requirement_contribution().value()
        })
        .sum()
}

/// Mean number of winners covering each task — `1.0` means every task is
/// served by exactly one winner; higher values quantify redundancy the
/// mechanism pays for. Returns `0.0` when the profile has no tasks.
pub fn winner_redundancy(profile: &TypeProfile, allocation: &Allocation) -> f64 {
    let tasks = profile.tasks();
    if tasks.is_empty() {
        return 0.0;
    }
    let covering: usize = tasks
        .iter()
        .map(|task| {
            allocation
                .winners()
                .filter_map(|id| profile.user(id).ok())
                .filter(|user| user.pos_for(task.id()).is_some())
                .count()
        })
        .sum();
    covering as f64 / tasks.len() as f64
}

/// A winner's expected payment under an execution-contingent quote:
/// `p_any · success + (1 − p_any) · failure`, where `p_any` is her
/// probability of completing at least one assigned task.
pub fn expected_payment_from_quotes(p_any: f64, success: f64, failure: f64) -> f64 {
    RewardQuote { success, failure }.expected(p_any)
}

/// The round's overpayment ratio: total expected payment over the social
/// cost of the allocation (the sum of winners' true costs, an
/// individual-rationality lower bound on what any truthful mechanism must
/// spend). `None` when the social cost is not positive — an empty
/// allocation has no meaningful ratio.
pub fn overpayment_ratio(expected_payment_total: f64, social_cost: f64) -> Option<f64> {
    if social_cost > 0.0 {
        Some(expected_payment_total / social_cost)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Pos, UserId, UserType};

    fn profile() -> TypeProfile {
        let users = vec![
            UserType::single(UserId::new(0), 1.0, 0.5).unwrap(),
            UserType::single(UserId::new(1), 2.0, 0.5).unwrap(),
            UserType::single(UserId::new(2), 3.0, 0.4).unwrap(),
        ];
        TypeProfile::single_task(Pos::new(0.7).unwrap(), users).unwrap()
    }

    #[test]
    fn slack_is_supply_minus_requirement_in_log_domain() {
        let p = profile();
        let allocation = Allocation::from_winners([UserId::new(0), UserId::new(1)]);
        // Two users at PoS 0.5 achieve 0.75 against a 0.7 requirement:
        // slack = ln(1-0.7) - 2·ln(1-0.5) in the contribution domain.
        let expected = 2.0 * -(0.5f64.ln()) - -((1.0 - 0.7f64).ln());
        assert!((coverage_slack(&p, &allocation) - expected).abs() < 1e-9);
    }

    #[test]
    fn tight_or_empty_allocations_have_no_positive_slack() {
        let p = profile();
        let empty = Allocation::empty();
        assert!(coverage_slack(&p, &empty) < 0.0);
    }

    #[test]
    fn redundancy_counts_winners_per_task() {
        let p = profile();
        assert_eq!(
            winner_redundancy(&p, &Allocation::from_winners([UserId::new(0)])),
            1.0
        );
        assert_eq!(
            winner_redundancy(
                &p,
                &Allocation::from_winners([UserId::new(0), UserId::new(1), UserId::new(2)])
            ),
            3.0
        );
        assert_eq!(winner_redundancy(&p, &Allocation::empty()), 0.0);
    }

    #[test]
    fn expected_payment_mixes_quotes_by_pos() {
        let payment = expected_payment_from_quotes(0.5, 4.0, 1.0);
        assert!((payment - 2.5).abs() < 1e-12);
        // Degenerate quotes collapse to the sure payment.
        assert_eq!(expected_payment_from_quotes(1.0, 4.0, 1.0), 4.0);
        assert_eq!(expected_payment_from_quotes(0.0, 4.0, 1.0), 1.0);
    }

    #[test]
    fn overpayment_ratio_guards_empty_rounds() {
        assert_eq!(overpayment_ratio(6.0, 3.0), Some(2.0));
        assert_eq!(overpayment_ratio(6.0, 0.0), None);
        assert_eq!(overpayment_ratio(0.0, -1.0), None);
    }

    #[test]
    fn ir_implies_ratio_at_least_one_for_truthful_quotes() {
        // With success/failure quotes at least covering cost in
        // expectation (IR), the ratio is ≥ 1.
        let p = profile();
        let allocation = Allocation::from_winners([UserId::new(0), UserId::new(1)]);
        let social = allocation.social_cost(&p).unwrap().value();
        let total: f64 = allocation
            .winners()
            .filter_map(|id| p.user(id).ok())
            .map(|u| {
                let p_any = u.any_task_pos().value();
                // Quote exactly cost in expectation (IR-tight).
                expected_payment_from_quotes(p_any, u.cost().value() / p_any, 0.0)
            })
            .sum();
        let ratio = overpayment_ratio(total, social).unwrap();
        assert!(ratio >= 1.0 - 1e-12);
    }
}
