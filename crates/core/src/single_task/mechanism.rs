//! The complete single-task mechanism: FPTAS winner determination plus the
//! critical-bid, execution-contingent reward scheme.

use crate::error::Result;
use crate::mechanism::{validate_alpha, Allocation, RewardScheme, WinnerDetermination};
use crate::single_task::{critical_pos, FptasWinnerDetermination};
use crate::types::{Pos, TypeProfile, UserId};

/// The paper's single-task mechanism (Algorithms 2 + 3).
///
/// * Winner determination is the `(1+ε)`-approximate FPTAS for minimum
///   knapsack (Theorem 2), monotone in declared PoS (Lemma 1).
/// * Rewards are execution contingent around the winner's critical PoS
///   `p̄_i`: `(1-p̄_i)·α + c_i` on success, `-p̄_i·α + c_i` on failure, so a
///   winner's expected utility is `(p_i - p̄_i)·α` and truthful reporting is
///   a dominant strategy in the PoS dimension (Theorem 1).
///
/// # Examples
///
/// ```
/// use mcs_core::prelude::*;
///
/// let users = vec![
///     UserType::single(UserId::new(0), 2.0, 0.6)?,
///     UserType::single(UserId::new(1), 2.5, 0.7)?,
///     UserType::single(UserId::new(2), 9.0, 0.9)?,
/// ];
/// let profile = TypeProfile::single_task(Pos::new(0.85)?, users)?;
/// let mechanism = SingleTaskMechanism::new(0.2, 10.0)?;
/// let allocation = mechanism.select_winners(&profile)?;
/// for winner in allocation.winners() {
///     let critical = mechanism.critical_pos(&profile, &allocation, winner)?;
///     let true_pos = profile.user(winner)?.pos_for(TaskId::new(0)).unwrap();
///     // Individual rationality: winners clear their critical bids.
///     assert!(true_pos >= critical);
/// }
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SingleTaskMechanism {
    winner_determination: FptasWinnerDetermination,
    alpha: f64,
}

impl SingleTaskMechanism {
    /// Creates the mechanism with FPTAS parameter `ε` and reward scaling
    /// factor `α`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::McsError::InvalidEpsilon`] or
    /// [`crate::McsError::InvalidAlpha`] on out-of-range parameters.
    pub fn new(epsilon: f64, alpha: f64) -> Result<Self> {
        Ok(SingleTaskMechanism {
            winner_determination: FptasWinnerDetermination::new(epsilon)?,
            alpha: validate_alpha(alpha)?,
        })
    }

    /// The FPTAS approximation parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.winner_determination.epsilon()
    }
}

impl WinnerDetermination for SingleTaskMechanism {
    fn select_winners(&self, profile: &TypeProfile) -> Result<Allocation> {
        self.winner_determination.select_winners(profile)
    }
}

impl RewardScheme for SingleTaskMechanism {
    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn critical_pos(
        &self,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
    ) -> Result<Pos> {
        critical_pos(&self.winner_determination, profile, allocation, user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{TaskId, UserType};

    fn profile(requirement: f64, users: &[(f64, f64)]) -> TypeProfile {
        let users = users
            .iter()
            .enumerate()
            .map(|(i, &(cost, pos))| UserType::single(UserId::new(i as u32), cost, pos).unwrap())
            .collect();
        TypeProfile::single_task(Pos::new(requirement).unwrap(), users).unwrap()
    }

    fn expected_utility(
        mechanism: &SingleTaskMechanism,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
        true_pos: f64,
    ) -> f64 {
        let quote = mechanism.quote(profile, allocation, user).unwrap();
        let cost = profile.user(user).unwrap().cost().value();
        quote.expected(true_pos) - cost
    }

    #[test]
    fn winners_have_nonnegative_expected_utility() {
        let p = profile(0.9, &[(3.0, 0.7), (2.0, 0.7), (1.0, 0.5), (4.0, 0.8)]);
        let mechanism = SingleTaskMechanism::new(0.1, 10.0).unwrap();
        let allocation = mechanism.select_winners(&p).unwrap();
        for winner in allocation.winners() {
            let true_pos = p
                .user(winner)
                .unwrap()
                .pos_for(TaskId::new(0))
                .unwrap()
                .value();
            let u = expected_utility(&mechanism, &p, &allocation, winner, true_pos);
            assert!(
                u >= -1e-6,
                "winner {winner} has negative expected utility {u}"
            );
        }
    }

    #[test]
    fn expected_utility_matches_closed_form() {
        // u_i = (p_i - p̄_i) α
        let p = profile(0.9, &[(3.0, 0.7), (2.0, 0.7), (1.0, 0.5), (4.0, 0.8)]);
        let alpha = 10.0;
        let mechanism = SingleTaskMechanism::new(0.1, alpha).unwrap();
        let allocation = mechanism.select_winners(&p).unwrap();
        for winner in allocation.winners() {
            let true_pos = p
                .user(winner)
                .unwrap()
                .pos_for(TaskId::new(0))
                .unwrap()
                .value();
            let critical = mechanism
                .critical_pos(&p, &allocation, winner)
                .unwrap()
                .value();
            let direct = expected_utility(&mechanism, &p, &allocation, winner, true_pos);
            let closed = (true_pos - critical) * alpha;
            assert!((direct - closed).abs() < 1e-9);
        }
    }

    #[test]
    fn success_pays_more_than_failure_by_alpha() {
        let p = profile(0.8, &[(1.0, 0.7), (1.0, 0.6)]);
        let alpha = 7.0;
        let mechanism = SingleTaskMechanism::new(0.2, alpha).unwrap();
        let allocation = mechanism.select_winners(&p).unwrap();
        let winner = allocation.winners().next().unwrap();
        let quote = mechanism.quote(&p, &allocation, winner).unwrap();
        assert!((quote.success - quote.failure - alpha).abs() < 1e-9);
    }

    #[test]
    fn misreporting_pos_never_helps() {
        // Truthfulness (Theorem 1): for each user and a grid of misreports,
        // expected utility never beats the truthful one.
        let p = profile(0.9, &[(3.0, 0.7), (2.0, 0.7), (1.0, 0.5), (4.0, 0.8)]);
        let alpha = 10.0;
        let mechanism = SingleTaskMechanism::new(0.1, alpha).unwrap();
        let truthful_allocation = mechanism.select_winners(&p).unwrap();
        for user in p.user_ids() {
            let true_pos = p
                .user(user)
                .unwrap()
                .pos_for(TaskId::new(0))
                .unwrap()
                .value();
            let truthful_utility = if truthful_allocation.contains(user) {
                expected_utility(&mechanism, &p, &truthful_allocation, user, true_pos)
            } else {
                0.0
            };
            for lie in [0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99] {
                let lied_type = p
                    .user(user)
                    .unwrap()
                    .with_pos(TaskId::new(0), Pos::new(lie).unwrap())
                    .unwrap();
                let deviated = p.with_user_type(lied_type).unwrap();
                let allocation = match mechanism.select_winners(&deviated) {
                    Ok(a) => a,
                    Err(_) => continue,
                };
                let lied_utility = if allocation.contains(user) {
                    // Rewards are computed from the *declared* profile, but
                    // expectation is over the *true* PoS.
                    let quote = mechanism.quote(&deviated, &allocation, user).unwrap();
                    let cost = p.user(user).unwrap().cost().value();
                    quote.expected(true_pos) - cost
                } else {
                    0.0
                };
                assert!(
                    lied_utility <= truthful_utility + 1e-6,
                    "user {user} gains by declaring {lie}: {lied_utility} > {truthful_utility}"
                );
            }
        }
    }

    #[test]
    fn vcg_style_manipulation_is_unprofitable() {
        // The paper's motivating example: under VCG, user 2 (cost 1,
        // PoS 0.5) profits by declaring 0.9. Under our mechanism she may
        // win by exaggerating but her expected utility goes negative.
        let p = profile(0.9, &[(3.0, 0.7), (2.0, 0.7), (1.0, 0.5), (4.0, 0.8)]);
        let alpha = 10.0;
        let mechanism = SingleTaskMechanism::new(0.1, alpha).unwrap();
        let liar = UserId::new(2);
        let lied_type = p
            .user(liar)
            .unwrap()
            .with_pos(TaskId::new(0), Pos::new(0.9).unwrap())
            .unwrap();
        let deviated = p.with_user_type(lied_type).unwrap();
        let allocation = mechanism.select_winners(&deviated).unwrap();
        if allocation.contains(liar) {
            let quote = mechanism.quote(&deviated, &allocation, liar).unwrap();
            let cost = p.user(liar).unwrap().cost().value();
            let true_pos = 0.5;
            let utility = quote.expected(true_pos) - cost;
            assert!(utility <= 1e-9, "liar profits: {utility}");
        }
    }

    #[test]
    fn parameters_are_validated() {
        assert!(SingleTaskMechanism::new(0.0, 10.0).is_err());
        assert!(SingleTaskMechanism::new(0.5, -1.0).is_err());
        let m = SingleTaskMechanism::new(0.5, 10.0).unwrap();
        assert_eq!(m.epsilon(), 0.5);
        assert_eq!(m.alpha(), 10.0);
    }
}
