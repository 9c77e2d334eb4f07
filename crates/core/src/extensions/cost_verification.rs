//! Cost verification — the assumption behind the paper's single-dimension
//! reduction, made executable.
//!
//! The paper restricts strategic behaviour to the PoS dimension by
//! *assuming* declared costs can be verified: "The platform can monitor
//! the indicators related to cost, such as energy consumption and data
//! transmission fee … and punish the users who lie about the costs"
//! (Section III-A-1). This module implements that audit-and-punish layer
//! and quantifies exactly when it works:
//!
//! With audit probability `π` and a fine of `λ · |declared − actual|`
//! levied on detection, the two directions of cost misreporting behave
//! very differently under critical-bid execution-contingent rewards:
//!
//! * **Overstating** by `Δ` gains at most `Δ` in reimbursement (it also
//!   *raises* the user's critical PoS, shrinking the `(p − p̄)·α` term),
//!   so `π λ ≥ 1` deters it outright.
//! * **Understating** sacrifices `Δ` of reimbursement but *lowers* the
//!   critical PoS — appearing cheap makes the auction easier to win — and
//!   the `α`-scaled gain `α·Δp̄` can exceed `Δ`. How steep `Δp̄` is
//!   depends on the instance, so the deterring fine is instance-dependent;
//!   [`required_fine_factor`] measures it empirically and the checker
//!   verifies a given policy.
//!
//! This quantifies what the paper's blanket assumption really requires:
//! cost verification must be backed by punishment strong enough to offset
//! the *competitive* value of looking cheap, not merely the reimbursement
//! delta.

use serde::{Deserialize, Serialize};

use crate::error::{McsError, Result};
use crate::mechanism::{Allocation, Mechanism};
use crate::types::{Cost, TypeProfile, UserId};

/// An audit-and-punish policy for declared costs.
///
/// # Examples
///
/// ```
/// use mcs_core::extensions::CostAudit;
///
/// let audit = CostAudit::new(0.5, 4.0)?; // audit half the winners, fine 4×
/// assert!(audit.deters_overstatement());
/// // Expected fine on a Δ = 2.0 overstatement: 0.5 · 4 · 2 = 4.
/// assert_eq!(audit.expected_fine(2.0), 4.0);
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostAudit {
    /// Probability that a winner's actual cost gets observed.
    audit_probability: f64,
    /// Fine per unit of detected misstatement.
    fine_factor: f64,
}

impl CostAudit {
    /// Creates an audit policy.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::InvalidProbability`] for an out-of-range audit
    /// probability and [`McsError::InvalidCost`] for a negative or
    /// non-finite fine factor.
    pub fn new(audit_probability: f64, fine_factor: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&audit_probability) || !audit_probability.is_finite() {
            return Err(McsError::InvalidProbability {
                value: audit_probability,
            });
        }
        if !fine_factor.is_finite() || fine_factor < 0.0 {
            return Err(McsError::InvalidCost { value: fine_factor });
        }
        Ok(CostAudit {
            audit_probability,
            fine_factor,
        })
    }

    /// The audit probability `π`.
    pub fn audit_probability(&self) -> f64 {
        self.audit_probability
    }

    /// The fine factor `λ`.
    pub fn fine_factor(&self) -> f64 {
        self.fine_factor
    }

    /// Expected fine for a misstatement of absolute size `delta`.
    pub fn expected_fine(&self, delta: f64) -> f64 {
        self.audit_probability * self.fine_factor * delta.abs()
    }

    /// The deterrence condition for *overstatement*, `π λ ≥ 1`: the
    /// expected fine on an overstatement of `Δ` is at least the `Δ` gained
    /// in reimbursement (overstating additionally worsens the user's
    /// critical bid, so this bound is conservative). Understatement needs
    /// the instance-dependent [`required_fine_factor`].
    pub fn deters_overstatement(&self) -> bool {
        self.audit_probability * self.fine_factor >= 1.0
    }

    /// The smallest fine factor that deters overstatement at this audit
    /// probability (infinite when the platform never audits).
    pub fn deterrence_threshold(&self) -> f64 {
        if self.audit_probability == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.audit_probability
        }
    }
}

/// The smallest fine factor `λ` (at audit probability `π`) that deters
/// every cost misreport on this instance over the given factor grid:
/// `λ* = max over users and factors of (gross gain) / (π · |Δ|)`.
///
/// Returns 0.0 when no misreport is gross-profitable even unfined.
///
/// # Errors
///
/// Propagates mechanism errors, and [`McsError::InvalidProbability`] for a
/// non-positive audit probability (nothing deters a user who is never
/// audited).
pub fn required_fine_factor<M: Mechanism>(
    mechanism: &M,
    audit_probability: f64,
    truth: &TypeProfile,
    factors: &[f64],
) -> Result<f64> {
    if !(audit_probability > 0.0 && audit_probability <= 1.0) {
        return Err(McsError::InvalidProbability {
            value: audit_probability,
        });
    }
    let unfined = CostAudit::new(audit_probability, 0.0)?;
    let mut required: f64 = 0.0;
    for user in truth.user_ids() {
        let true_cost = truth.user(user)?.cost();
        let truthful =
            expected_utility_with_cost_misreport(mechanism, &unfined, truth, user, true_cost)?;
        for &factor in factors {
            let declared = Cost::new(true_cost.value() * factor)?;
            let delta = (declared.value() - true_cost.value()).abs();
            if delta < 1e-12 {
                continue;
            }
            let gross =
                expected_utility_with_cost_misreport(mechanism, &unfined, truth, user, declared)?;
            let gain = gross - truthful;
            if gain > 0.0 {
                required = required.max(gain / (audit_probability * delta));
            }
        }
    }
    Ok(required)
}

/// A found profitable cost misreport.
#[derive(Debug, Clone, PartialEq)]
pub struct CostViolation {
    /// The deviating user.
    pub user: UserId,
    /// The declared (false) cost.
    pub declared_cost: f64,
    /// Expected utility when truthful.
    pub truthful_utility: f64,
    /// Expected utility under the deviation, *including* the expected fine.
    pub deviating_utility: f64,
}

/// Expected utility of `user` (true types in `truth`) when she declares
/// `declared_cost` instead of her true cost, under `mechanism` plus
/// `audit`. Reported PoS values stay truthful — this checker isolates the
/// cost dimension.
///
/// # Errors
///
/// Propagates mechanism errors on valid inputs; an infeasible declared
/// instance yields utility 0.
pub fn expected_utility_with_cost_misreport<M: Mechanism>(
    mechanism: &M,
    audit: &CostAudit,
    truth: &TypeProfile,
    user: UserId,
    declared_cost: Cost,
) -> Result<f64> {
    let true_type = truth.user(user)?;
    let true_cost = true_type.cost();
    let mut lied = crate::types::UserType::builder(user).cost(declared_cost);
    for (task, pos) in true_type.tasks() {
        lied = lied.task(task, pos);
    }
    let declared = truth.with_user_type(lied.build()?)?;

    let allocation: Allocation = match mechanism.select_winners(&declared) {
        Ok(a) => a,
        Err(McsError::Infeasible { .. }) => return Ok(0.0),
        Err(other) => return Err(other),
    };
    if !allocation.contains(user) {
        return Ok(0.0);
    }
    let quote = mechanism.quote(&declared, &allocation, user)?;
    let p_any = true_type.any_task_pos().value();
    let gross = quote.expected(p_any) - true_cost.value();
    let fine = audit.expected_fine(declared_cost.value() - true_cost.value());
    Ok(gross - fine)
}

/// Searches for profitable cost misreports over a grid of multiplicative
/// factors for every user; returns violations exceeding `tolerance`.
///
/// With a deterring audit (`π λ ≥ 1`) this comes back empty — the
/// executable counterpart of the paper's verifiable-cost assumption.
///
/// # Errors
///
/// Propagates mechanism errors on the truthful profile.
pub fn check_cost_truthfulness<M: Mechanism>(
    mechanism: &M,
    audit: &CostAudit,
    truth: &TypeProfile,
    factors: &[f64],
    tolerance: f64,
) -> Result<Vec<CostViolation>> {
    let mut violations = Vec::new();
    for user in truth.user_ids() {
        let true_cost = truth.user(user)?.cost();
        let truthful_utility =
            expected_utility_with_cost_misreport(mechanism, audit, truth, user, true_cost)?;
        for &factor in factors {
            let declared = Cost::new(true_cost.value() * factor)?;
            let deviating_utility =
                expected_utility_with_cost_misreport(mechanism, audit, truth, user, declared)?;
            if deviating_utility > truthful_utility + tolerance {
                violations.push(CostViolation {
                    user,
                    declared_cost: declared.value(),
                    truthful_utility,
                    deviating_utility,
                });
            }
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn audit_parameters_are_validated() {
        assert!(CostAudit::new(-0.1, 1.0).is_err());
        assert!(CostAudit::new(1.1, 1.0).is_err());
        assert!(CostAudit::new(0.5, -1.0).is_err());
        assert!(CostAudit::new(0.5, f64::NAN).is_err());
        let audit = CostAudit::new(0.25, 4.0).unwrap();
        assert!(audit.deters_overstatement());
        assert_eq!(audit.deterrence_threshold(), 4.0);
        assert_eq!(
            CostAudit::new(0.0, 100.0).unwrap().deterrence_threshold(),
            f64::INFINITY
        );
    }

    const FACTORS: [f64; 8] = [0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2.0, 4.0];

    #[test]
    fn computed_fine_factor_removes_cost_manipulation() {
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let pi = 0.5;
        let lambda = required_fine_factor(&mechanism, pi, &profile(), &FACTORS).unwrap();
        let audit = CostAudit::new(pi, lambda + 1e-6).unwrap();
        let violations =
            check_cost_truthfulness(&mechanism, &audit, &profile(), &FACTORS, 1e-6).unwrap();
        assert!(
            violations.is_empty(),
            "cost manipulations survive audit: {violations:?}"
        );
    }

    #[test]
    fn without_audits_cost_manipulation_pays() {
        // The counterfactual that motivates the assumption: unaudited,
        // some cost misreport (in this instance, *understating* to look
        // competitive and slash the critical PoS) is profitable.
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let no_audit = CostAudit::new(0.0, 0.0).unwrap();
        let violations =
            check_cost_truthfulness(&mechanism, &no_audit, &profile(), &FACTORS, 1e-6).unwrap();
        assert!(
            !violations.is_empty(),
            "expected cost misreports to pay without audits"
        );
    }

    #[test]
    fn understating_can_pay_because_it_lowers_the_critical_bid() {
        // The subtle direction: a user who declares a *lower* cost loses
        // reimbursement but wins the auction with a smaller critical PoS,
        // and the α-scaled slack can dominate. This is why deterrence is
        // instance-dependent.
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let no_audit = CostAudit::new(0.0, 0.0).unwrap();
        let truth = profile();
        let mut someone_profits = false;
        for user in truth.user_ids() {
            let true_cost = truth.user(user).unwrap().cost();
            let honest = expected_utility_with_cost_misreport(
                &mechanism, &no_audit, &truth, user, true_cost,
            )
            .unwrap();
            let lowball = Cost::new(true_cost.value() * 0.5).unwrap();
            let lying =
                expected_utility_with_cost_misreport(&mechanism, &no_audit, &truth, user, lowball)
                    .unwrap();
            if lying > honest + 1e-9 {
                someone_profits = true;
            }
        }
        assert!(
            someone_profits,
            "expected understatement to pay for someone here"
        );
    }

    #[test]
    fn required_fine_factor_is_zero_when_nothing_pays() {
        // A lone monopolist cannot improve her allocation by any cost
        // misreport; only overstatement (reimbursement padding) pays, so
        // the required λ is exactly the overstatement bound 1/π.
        let users = vec![UserType::single(UserId::new(0), 3.0, 0.9).unwrap()];
        let truth = TypeProfile::single_task(Pos::new(0.5).unwrap(), users).unwrap();
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        let pi = 0.5;
        let lambda = required_fine_factor(&mechanism, pi, &truth, &FACTORS).unwrap();
        assert!(
            (lambda - 1.0 / pi).abs() < 1e-6,
            "monopolist's required λ should be the overstatement bound, got {lambda}"
        );
    }

    #[test]
    fn required_fine_factor_rejects_zero_audit_probability() {
        let mechanism = SingleTaskMechanism::new(0.2, 10.0).unwrap();
        assert!(required_fine_factor(&mechanism, 0.0, &profile(), &FACTORS).is_err());
    }

    #[test]
    fn expected_fine_is_linear_in_misstatement() {
        let audit = CostAudit::new(0.3, 2.0).unwrap();
        assert_eq!(audit.expected_fine(0.0), 0.0);
        assert!((audit.expected_fine(5.0) - 3.0).abs() < 1e-12);
        assert!((audit.expected_fine(-5.0) - 3.0).abs() < 1e-12);
    }
}
