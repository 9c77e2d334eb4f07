//! Empirical checkers for the mechanisms' economic properties.
//!
//! These are *testing/auditing* tools: given a concrete instance they search
//! for violations of strategy-proofness, individual rationality, and
//! allocation monotonicity by enumerating a grid of deviations. They cannot
//! prove a property (the theorems do that) but they catch implementation
//! bugs and quantify how baselines fail.

use crate::error::Result;
use crate::mechanism::{validate_alpha, Mechanism, RewardQuote, WinnerDetermination};
use crate::types::{Pos, TypeProfile, UserId};

/// The expected utility of `user` (with true type from `truth`) when the
/// declared profile is `declared` and the mechanism runs on it.
///
/// Losers get utility 0. The success event is "completed at least one task
/// of the (true) task set".
///
/// # Errors
///
/// Propagates reward-scheme errors; an infeasible declared instance yields
/// utility 0 (the auction does not run).
pub fn expected_utility<M: Mechanism>(
    mechanism: &M,
    declared: &TypeProfile,
    truth: &TypeProfile,
    user: UserId,
) -> Result<f64> {
    let allocation = match mechanism.select_winners(declared) {
        Ok(a) => a,
        Err(crate::McsError::Infeasible { .. }) => return Ok(0.0),
        Err(other) => return Err(other),
    };
    if !allocation.contains(user) {
        return Ok(0.0);
    }
    let quote = mechanism.quote(declared, &allocation, user)?;
    let true_type = truth.user(user)?;
    let p_any = true_type.any_task_pos().value();
    Ok(quote.expected(p_any) - true_type.cost().value())
}

/// The expected utility implied by an already-quoted reward pair: the
/// winner succeeds with probability `p_any` and collects `success`,
/// otherwise collects `failure`, and always pays her true `cost`.
///
/// This is the settlement-side twin of [`expected_utility`]: it audits
/// quotes a platform has *already issued* (a cleared round's reward
/// quotes) without re-running the mechanism, so an oracle can check
/// ex-post IR round by round.
pub fn expected_utility_from_quotes(p_any: f64, success: f64, failure: f64, cost: f64) -> f64 {
    RewardQuote { success, failure }.expected(p_any) - cost
}

/// Inverts the execution-contingent reward formula: given the quoted
/// `success` reward and the winner's declared `cost`, recovers the critical
/// PoS `p̄` the scheme must have used, via
/// `success = (1 - p̄)·α + c  ⇒  p̄ = (c + α - success)/α`.
///
/// The result is clamped into `[0, Pos::MAX]` so bisection round-off at the
/// domain edges cannot push it out of range.
///
/// # Errors
///
/// Returns [`McsError::InvalidAlpha`](crate::McsError::InvalidAlpha) for a
/// non-finite or negative `alpha`, and
/// [`McsError::InvalidProbability`](crate::McsError::InvalidProbability) if
/// the inversion is NaN (e.g. `alpha == 0` with `success == cost`).
pub fn implied_critical_pos(alpha: f64, success: f64, cost: f64) -> Result<Pos> {
    let alpha = validate_alpha(alpha)?;
    let raw = (cost + alpha - success) / alpha;
    if raw.is_nan() {
        return Err(crate::McsError::InvalidProbability { value: raw });
    }
    Ok(Pos::saturating(raw.clamp(0.0, Pos::MAX.value())))
}

/// Builds a systematic misreport grid from relative offsets: the factors
/// `{0} ∪ {1 - ε, 1 + ε : ε ∈ epsilons}`, clipped at zero, sorted, and
/// deduplicated. Feeding this to [`check_strategy_proofness`] sweeps
/// symmetric under- and over-reports of every magnitude in `epsilons`,
/// plus the total-withholding edge case.
pub fn misreport_factor_grid(epsilons: &[f64]) -> Vec<f64> {
    let mut factors = vec![0.0];
    for &eps in epsilons {
        factors.push((1.0 - eps).max(0.0));
        factors.push(1.0 + eps);
    }
    factors.sort_by(f64::total_cmp);
    factors.dedup();
    factors
}

/// [`check_strategy_proofness`] over the systematic ±ε grid produced by
/// [`misreport_factor_grid`].
///
/// # Errors
///
/// Propagates mechanism errors on the truthful profile.
pub fn check_strategy_proofness_grid<M: Mechanism>(
    mechanism: &M,
    truth: &TypeProfile,
    epsilons: &[f64],
    tolerance: f64,
) -> Result<Vec<Violation>> {
    let factors = misreport_factor_grid(epsilons);
    check_strategy_proofness(mechanism, truth, &factors, tolerance)
}

/// A failure of critical-bid monotonicity found by
/// [`check_critical_bid_padding`].
#[derive(Debug, Clone, PartialEq)]
pub enum CriticalPadViolation {
    /// The winner stopped winning after padding *toward* (not past) her
    /// critical value — the allocation is not monotone in her declaration.
    Demoted {
        /// The padded winner.
        user: UserId,
        /// The pad fraction λ that demoted her.
        pad: f64,
    },
    /// The winner kept winning but her success-reward changed — the payment
    /// is not independent of her declaration on the winning side.
    PaymentChanged {
        /// The padded winner.
        user: UserId,
        /// The pad fraction λ at which the payment moved.
        pad: f64,
        /// The success reward quoted for the truthful declaration.
        reference: f64,
        /// The success reward quoted for the padded declaration.
        padded: f64,
    },
}

/// Checks critical-bid monotonicity for one winner: declaring a PoS padded
/// from the truthful value *toward* the critical value (a fraction
/// `pad ∈ (0, 1)` of the way) must keep her winning with her success
/// payment unchanged (within `tolerance`).
///
/// This is the testable form of the critical-value characterisation: the
/// payment is pinned to the critical bid, so any declaration strictly on
/// the winning side of it is allocation- and payment-invariant. Returns
/// all violations. Winners already within `1e-9` of their critical total
/// contribution are skipped (the gap is below quote round-off).
///
/// # Errors
///
/// Propagates profile/mechanism errors on the truthful side; an infeasible
/// *padded* instance counts as a demotion, not an error.
pub fn check_critical_bid_padding<M: Mechanism>(
    mechanism: &M,
    truth: &TypeProfile,
    user: UserId,
    critical: Pos,
    reference_success: f64,
    pads: &[f64],
    tolerance: f64,
) -> Result<Vec<CriticalPadViolation>> {
    let declared_total = truth.user(user)?.total_contribution().value();
    let critical_total = critical.contribution().value();
    let gap = declared_total - critical_total;
    let mut violations = Vec::new();
    if declared_total <= 0.0 || gap <= 1e-9 {
        return Ok(violations);
    }
    for &pad in pads {
        debug_assert!(
            (0.0..1.0).contains(&pad),
            "pads move toward, not past, the critical value"
        );
        let target = critical_total + (1.0 - pad) * gap;
        let lie = truth
            .user(user)?
            .with_scaled_contributions(target / declared_total);
        let declared = truth.with_user_type(lie)?;
        let allocation = match mechanism.select_winners(&declared) {
            Ok(a) => a,
            Err(crate::McsError::Infeasible { .. }) => {
                violations.push(CriticalPadViolation::Demoted { user, pad });
                continue;
            }
            Err(other) => return Err(other),
        };
        if !allocation.contains(user) {
            violations.push(CriticalPadViolation::Demoted { user, pad });
            continue;
        }
        let padded = mechanism.quote(&declared, &allocation, user)?.success;
        if (padded - reference_success).abs() > tolerance {
            violations.push(CriticalPadViolation::PaymentChanged {
                user,
                pad,
                reference: reference_success,
                padded,
            });
        }
    }
    Ok(violations)
}

/// A profitable deviation found by [`check_strategy_proofness`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The deviating user.
    pub user: UserId,
    /// The contribution scaling factor of the deviation.
    pub factor: f64,
    /// Expected utility when truthful.
    pub truthful_utility: f64,
    /// Expected utility under the deviation.
    pub deviating_utility: f64,
}

impl Violation {
    /// How much the deviation gains.
    pub fn gain(&self) -> f64 {
        self.deviating_utility - self.truthful_utility
    }
}

/// Searches for profitable uniform-scaling PoS deviations
/// (`q_i^j ← factor·q_i^j` for all `j`) for every user.
///
/// Returns all violations exceeding `tolerance`. An empty result on a rich
/// `factors` grid is strong evidence of incentive compatibility on this
/// instance; the mechanisms' theorems guarantee it in general.
///
/// # Errors
///
/// Propagates mechanism errors on the *truthful* profile (deviations that
/// break feasibility count as losing, not as errors).
pub fn check_strategy_proofness<M: Mechanism>(
    mechanism: &M,
    truth: &TypeProfile,
    factors: &[f64],
    tolerance: f64,
) -> Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for user in truth.user_ids() {
        let truthful_utility = expected_utility(mechanism, truth, truth, user)?;
        for &factor in factors {
            let lie = truth.user(user)?.with_scaled_contributions(factor);
            let declared = truth.with_user_type(lie)?;
            let deviating_utility = expected_utility(mechanism, &declared, truth, user)?;
            if deviating_utility > truthful_utility + tolerance {
                violations.push(Violation {
                    user,
                    factor,
                    truthful_utility,
                    deviating_utility,
                });
            }
        }
    }
    Ok(violations)
}

/// Checks individual rationality: every truthful winner's expected utility
/// is at least `-tolerance`. Returns the offending users.
///
/// # Errors
///
/// Propagates mechanism errors.
pub fn check_individual_rationality<M: Mechanism>(
    mechanism: &M,
    truth: &TypeProfile,
    tolerance: f64,
) -> Result<Vec<(UserId, f64)>> {
    let allocation = mechanism.select_winners(truth)?;
    let mut offenders = Vec::new();
    for winner in allocation.winners() {
        let utility = expected_utility(mechanism, truth, truth, winner)?;
        if utility < -tolerance {
            offenders.push((winner, utility));
        }
    }
    Ok(offenders)
}

/// Checks allocation monotonicity: every winner keeps winning when her
/// contributions are scaled *up* by each factor (> 1). Returns
/// `(user, factor)` pairs that demote a winner.
///
/// # Errors
///
/// Propagates winner-determination errors on the truthful profile.
pub fn check_monotonicity<W: WinnerDetermination>(
    winner_determination: &W,
    truth: &TypeProfile,
    up_factors: &[f64],
) -> Result<Vec<(UserId, f64)>> {
    let allocation = winner_determination.select_winners(truth)?;
    let mut demotions = Vec::new();
    for winner in allocation.winners() {
        for &factor in up_factors {
            debug_assert!(factor >= 1.0, "monotonicity is about raising bids");
            let raised = truth.user(winner)?.with_scaled_contributions(factor);
            let declared = truth.with_user_type(raised)?;
            match winner_determination.select_winners(&declared) {
                Ok(outcome) if outcome.contains(winner) => {}
                Ok(_) => demotions.push((winner, factor)),
                // Raising a bid cannot make the instance infeasible; treat
                // any error as a demotion so it surfaces in tests.
                Err(_) => demotions.push((winner, factor)),
            }
        }
    }
    Ok(demotions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::RewardScheme;
    use crate::multi_task::MultiTaskMechanism;
    use crate::single_task::SingleTaskMechanism;
    use crate::types::{Cost, Pos, Task, TaskId, UserType};

    fn single_profile() -> TypeProfile {
        let users = vec![
            UserType::single(UserId::new(0), 3.0, 0.7).unwrap(),
            UserType::single(UserId::new(1), 2.0, 0.7).unwrap(),
            UserType::single(UserId::new(2), 1.0, 0.5).unwrap(),
            UserType::single(UserId::new(3), 4.0, 0.8).unwrap(),
        ];
        TypeProfile::single_task(Pos::new(0.9).unwrap(), users).unwrap()
    }

    fn multi_profile() -> TypeProfile {
        let task = |id: u32, req: f64| Task::with_requirement(TaskId::new(id), req).unwrap();
        let user = |id: u32, cost: f64, tasks: &[(u32, f64)]| {
            let mut b = UserType::builder(UserId::new(id)).cost(Cost::new(cost).unwrap());
            for &(t, p) in tasks {
                b = b.task(TaskId::new(t), Pos::new(p).unwrap());
            }
            b.build().unwrap()
        };
        TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
                user(4, 2.5, &[(0, 0.4), (2, 0.4)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap()
    }

    const FACTORS: [f64; 8] = [0.0, 0.25, 0.5, 0.75, 1.25, 1.5, 2.0, 4.0];

    #[test]
    fn single_task_mechanism_passes_all_checks() {
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let truth = single_profile();
        assert!(check_strategy_proofness(&mechanism, &truth, &FACTORS, 1e-6)
            .unwrap()
            .is_empty());
        assert!(check_individual_rationality(&mechanism, &truth, 1e-6)
            .unwrap()
            .is_empty());
        assert!(check_monotonicity(&mechanism, &truth, &[1.1, 1.5, 3.0])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn multi_task_mechanism_passes_all_checks() {
        let mechanism = MultiTaskMechanism::new(10.0).unwrap();
        let truth = multi_profile();
        assert!(check_strategy_proofness(&mechanism, &truth, &FACTORS, 1e-6)
            .unwrap()
            .is_empty());
        assert!(check_individual_rationality(&mechanism, &truth, 1e-6)
            .unwrap()
            .is_empty());
        assert!(check_monotonicity(&mechanism, &truth, &[1.1, 1.5, 3.0])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn expected_utility_is_zero_for_losers() {
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let truth = single_profile();
        let allocation = mechanism.select_winners(&truth).unwrap();
        for user in truth.user_ids() {
            if !allocation.contains(user) {
                assert_eq!(
                    expected_utility(&mechanism, &truth, &truth, user).unwrap(),
                    0.0
                );
            }
        }
    }

    #[test]
    fn quote_utility_matches_expected_utility_for_winners() {
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let truth = single_profile();
        let allocation = mechanism.select_winners(&truth).unwrap();
        for winner in allocation.winners() {
            let quote = mechanism.quote(&truth, &allocation, winner).unwrap();
            let t = truth.user(winner).unwrap();
            let from_quotes = expected_utility_from_quotes(
                t.any_task_pos().value(),
                quote.success,
                quote.failure,
                t.cost().value(),
            );
            let direct = expected_utility(&mechanism, &truth, &truth, winner).unwrap();
            assert!((from_quotes - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn implied_critical_pos_inverts_the_reward_formula() {
        let alpha = 10.0;
        let critical = Pos::new(0.65).unwrap();
        let cost = 2.5;
        let success = (1.0 - critical.value()) * alpha + cost;
        let implied = implied_critical_pos(alpha, success, cost).unwrap();
        assert!((implied.value() - critical.value()).abs() < 1e-12);
        // Out-of-range inversions clamp rather than error.
        assert_eq!(
            implied_critical_pos(alpha, cost + 2.0 * alpha, cost)
                .unwrap()
                .value(),
            0.0
        );
        assert!(implied_critical_pos(f64::NAN, success, cost).is_err());
    }

    #[test]
    fn misreport_grid_is_sorted_deduped_and_clipped() {
        let grid = misreport_factor_grid(&[0.5, 0.5, 1.0, 2.0]);
        assert_eq!(grid, vec![0.0, 0.5, 1.5, 2.0, 3.0]);
        assert!(misreport_factor_grid(&[]).contains(&0.0));
    }

    #[test]
    fn grid_check_matches_explicit_factor_check() {
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let truth = single_profile();
        let eps = [0.25, 0.5, 1.0];
        let explicit =
            check_strategy_proofness(&mechanism, &truth, &misreport_factor_grid(&eps), 1e-6)
                .unwrap();
        let grid = check_strategy_proofness_grid(&mechanism, &truth, &eps, 1e-6).unwrap();
        assert_eq!(explicit, grid);
        assert!(grid.is_empty());
    }

    #[test]
    fn padding_toward_critical_preserves_win_and_payment() {
        let mechanism = MultiTaskMechanism::new(10.0).unwrap();
        let truth = multi_profile();
        let allocation = mechanism.select_winners(&truth).unwrap();
        for winner in allocation.winners() {
            let critical = mechanism.critical_pos(&truth, &allocation, winner).unwrap();
            let reference = mechanism
                .quote(&truth, &allocation, winner)
                .unwrap()
                .success;
            let violations = check_critical_bid_padding(
                &mechanism,
                &truth,
                winner,
                critical,
                reference,
                &[0.5, 0.9],
                1e-6,
            )
            .unwrap();
            assert!(violations.is_empty(), "winner {winner}: {violations:?}");
        }
    }

    #[test]
    fn padding_past_a_rivals_bid_is_reported_as_demotion() {
        // Hand a fake "critical" value *above* a rival's winning threshold:
        // padding 90% of the way toward it must demote the winner, and the
        // checker must report that instead of erroring.
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let truth = single_profile();
        let allocation = mechanism.select_winners(&truth).unwrap();
        let winner = allocation.winners().next().unwrap();
        let reference = mechanism
            .quote(&truth, &allocation, winner)
            .unwrap()
            .success;
        let violations = check_critical_bid_padding(
            &mechanism,
            &truth,
            winner,
            Pos::new(0.01).unwrap(),
            reference,
            &[0.99],
            1e-6,
        )
        .unwrap();
        assert!(violations
            .iter()
            .all(|v| matches!(v, CriticalPadViolation::Demoted { .. })));
    }

    #[test]
    fn violation_reports_gain() {
        let v = Violation {
            user: UserId::new(1),
            factor: 2.0,
            truthful_utility: 0.5,
            deviating_utility: 1.25,
        };
        assert!((v.gain() - 0.75).abs() < 1e-12);
    }
}
