//! Platform-side payment analysis: expected payout, budget exposure, and
//! frugality.
//!
//! The paper's `α` "can be adjusted according to the budget constraint of
//! the platform" but it never quantifies the exposure. These helpers do:
//! the execution-contingent reward decomposes into a cost reimbursement
//! plus an `α`-scaled incentive spread around the critical PoS, so the
//! platform's expected payout, worst case, and frugality ratio (payout
//! over social cost) are all closed-form once the critical bids are known.

use crate::error::Result;
use crate::mechanism::{Allocation, Mechanism};
use crate::types::{TypeProfile, UserId};

/// The platform's payment exposure for one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PaymentReport {
    /// Per-winner `(user, expected payment)` under truthful types.
    pub expected: Vec<(UserId, f64)>,
    /// Total payout if *every* winner succeeds — the platform's worst case
    /// (each success reward exceeds the corresponding failure reward).
    pub worst_case: f64,
    /// Total payout if every winner fails (can be negative: failed winners
    /// refund `p̄·α − c`).
    pub best_case: f64,
    /// The social cost of the allocation (Σ true costs).
    pub social_cost: f64,
}

impl PaymentReport {
    /// Total expected payout.
    pub fn expected_total(&self) -> f64 {
        self.expected.iter().map(|&(_, p)| p).sum()
    }

    /// Frugality ratio: expected payout over social cost (∞ when the
    /// allocation is free but paid).
    pub fn frugality(&self) -> f64 {
        if self.social_cost == 0.0 {
            if self.expected_total() == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.expected_total() / self.social_cost
        }
    }
}

/// Computes the platform's payment exposure for `allocation` under
/// `mechanism` and truthful `profile`.
///
/// # Errors
///
/// Propagates reward-scheme errors (e.g. a non-winner in the allocation).
pub fn payment_report<M: Mechanism>(
    mechanism: &M,
    profile: &TypeProfile,
    allocation: &Allocation,
) -> Result<PaymentReport> {
    let mut expected = Vec::with_capacity(allocation.winner_count());
    let mut worst_case = 0.0;
    let mut best_case = 0.0;
    let mut social_cost = 0.0;
    for winner in allocation.winners() {
        let quote = mechanism.quote(profile, allocation, winner)?;
        let user = profile.user(winner)?;
        let p_any = user.any_task_pos().value();
        expected.push((winner, quote.expected(p_any)));
        worst_case += quote.success;
        best_case += quote.failure;
        social_cost += user.cost().value();
    }
    Ok(PaymentReport {
        expected,
        worst_case,
        best_case,
        social_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::WinnerDetermination;
    use crate::single_task::SingleTaskMechanism;
    use crate::types::{Pos, UserType};

    fn profile() -> TypeProfile {
        let users = vec![
            UserType::single(UserId::new(0), 3.0, 0.7).unwrap(),
            UserType::single(UserId::new(1), 2.0, 0.7).unwrap(),
            UserType::single(UserId::new(2), 1.5, 0.5).unwrap(),
            UserType::single(UserId::new(3), 4.0, 0.8).unwrap(),
        ];
        TypeProfile::single_task(Pos::new(0.9).unwrap(), users).unwrap()
    }

    #[test]
    fn report_brackets_expected_between_best_and_worst() {
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let p = profile();
        let allocation = mechanism.select_winners(&p).unwrap();
        let report = payment_report(&mechanism, &p, &allocation).unwrap();
        assert_eq!(report.expected.len(), allocation.winner_count());
        assert!(report.best_case <= report.expected_total() + 1e-9);
        assert!(report.expected_total() <= report.worst_case + 1e-9);
    }

    #[test]
    fn expected_payment_covers_social_cost_for_truthful_winners() {
        // IR: expected payment ≥ cost per winner, so frugality ≥ 1.
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let p = profile();
        let allocation = mechanism.select_winners(&p).unwrap();
        let report = payment_report(&mechanism, &p, &allocation).unwrap();
        for (user, payment) in &report.expected {
            let cost = p.user(*user).unwrap().cost().value();
            assert!(
                payment + 1e-9 >= cost,
                "{user} paid {payment} below cost {cost}"
            );
        }
        assert!(report.frugality() >= 1.0 - 1e-9);
    }

    #[test]
    fn alpha_scales_the_spread_not_the_reimbursement() {
        let p = profile();
        let low = SingleTaskMechanism::new(0.2, 1.0).unwrap();
        let high = SingleTaskMechanism::new(0.2, 20.0).unwrap();
        let allocation = low.select_winners(&p).unwrap();
        let low_report = payment_report(&low, &p, &allocation).unwrap();
        let high_report = payment_report(&high, &p, &allocation).unwrap();
        // Same winners, same critical bids: the worst-case spread grows
        // with α while social cost stays fixed.
        assert_eq!(low_report.social_cost, high_report.social_cost);
        assert!(high_report.worst_case > low_report.worst_case);
        assert!(high_report.frugality() >= low_report.frugality() - 1e-9);
    }

    #[test]
    fn empty_allocation_costs_nothing() {
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let report = payment_report(&mechanism, &profile(), &Allocation::empty()).unwrap();
        assert_eq!(report.expected_total(), 0.0);
        assert_eq!(report.frugality(), 1.0);
    }
}
