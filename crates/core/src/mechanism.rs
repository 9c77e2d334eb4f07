//! Mechanism abstractions: winner determination, reward schemes, the
//! combined [`Mechanism`] trait, and [`RoundMechanism`], the one
//! shape-dispatched mechanism a round clears with.
//!
//! A mechanism `M = (A, R)` consists of an allocation algorithm `A` (here
//! [`WinnerDetermination`]) and a reward scheme `R` ([`RewardScheme`]).
//! The reward schemes in this crate are *execution contingent*: a winner is
//! paid a different amount depending on whether she actually completed her
//! task(s), which is what makes truthful PoS reporting optimal.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{McsError, Result};
use crate::indexed::ClearContext;
use crate::multi_task::MultiTaskMechanism;
use crate::single_task::SingleTaskMechanism;
use crate::types::{Cost, Pos, TypeProfile, UserId};

/// The outcome of winner determination: the set of selected (winning) users.
///
/// # Examples
///
/// ```
/// use mcs_core::mechanism::Allocation;
/// use mcs_core::types::UserId;
///
/// let allocation = Allocation::from_winners([UserId::new(2), UserId::new(0)]);
/// assert_eq!(allocation.winner_count(), 2);
/// assert!(allocation.contains(UserId::new(0)));
/// assert!(!allocation.contains(UserId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Allocation {
    winners: BTreeSet<UserId>,
}

impl Allocation {
    /// An empty allocation (no winners).
    pub fn empty() -> Self {
        Allocation::default()
    }

    /// Creates an allocation from winner ids.
    pub fn from_winners<I: IntoIterator<Item = UserId>>(winners: I) -> Self {
        Allocation {
            winners: winners.into_iter().collect(),
        }
    }

    /// Whether `user` was selected.
    pub fn contains(&self, user: UserId) -> bool {
        self.winners.contains(&user)
    }

    /// The number of selected users.
    pub fn winner_count(&self) -> usize {
        self.winners.len()
    }

    /// Whether no user was selected.
    pub fn is_empty(&self) -> bool {
        self.winners.is_empty()
    }

    /// Iterates over winners in ascending id order.
    pub fn winners(&self) -> impl Iterator<Item = UserId> + '_ {
        self.winners.iter().copied()
    }

    /// The social cost of the allocation under `profile`:
    /// `Σ_{i ∈ winners} c_i`.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::NoSuchUser`] if a winner does not appear in
    /// `profile` (e.g. an allocation from a different instance).
    pub fn social_cost(&self, profile: &TypeProfile) -> Result<Cost> {
        let mut total = Cost::ZERO;
        for &id in &self.winners {
            total += profile.user(id)?.cost();
        }
        Ok(total)
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (idx, id) in self.winners.iter().enumerate() {
            if idx > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<UserId> for Allocation {
    fn from_iter<I: IntoIterator<Item = UserId>>(iter: I) -> Self {
        Allocation::from_winners(iter)
    }
}

impl Extend<UserId> for Allocation {
    fn extend<I: IntoIterator<Item = UserId>>(&mut self, iter: I) {
        self.winners.extend(iter);
    }
}

/// A winner-determination (allocation) algorithm.
///
/// Implementations receive the *declared* type profile and select the
/// winning user set. For strategy-proofness the algorithm must be
/// *monotone*: a winner who raises a declared PoS must remain a winner
/// (paper Lemmas 1 and 2). All implementations in this crate are
/// deterministic, which the critical-bid search relies on.
pub trait WinnerDetermination {
    /// Selects the winning users for the declared `profile`.
    ///
    /// # Errors
    ///
    /// * [`McsError::Infeasible`] if even all users together cannot satisfy
    ///   some task's PoS requirement.
    /// * Implementation-specific validation errors (e.g.
    ///   [`McsError::NotSingleTask`] for the single-task algorithms).
    fn select_winners(&self, profile: &TypeProfile) -> Result<Allocation>;
}

impl<T: WinnerDetermination + ?Sized> WinnerDetermination for &T {
    fn select_winners(&self, profile: &TypeProfile) -> Result<Allocation> {
        (**self).select_winners(profile)
    }
}

/// A winner's two execution-contingent rewards, quoted before any outcome
/// is known.
///
/// # Examples
///
/// ```
/// use mcs_core::mechanism::RewardQuote;
/// use mcs_core::types::{Cost, Pos};
///
/// let quote = RewardQuote::contingent(10.0, Pos::new(0.25)?, Cost::new(2.0)?);
/// assert_eq!(quote.success, 9.5);
/// assert_eq!(quote.failure, -0.5);
/// assert_eq!(quote.payout(true) - quote.payout(false), 10.0);
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardQuote {
    /// Paid when the winner completes at least one of her tasks.
    pub success: f64,
    /// Paid (possibly negative) when she completes none.
    pub failure: f64,
}

impl RewardQuote {
    /// The execution-contingent reward formula shared by every scheme:
    /// `(1 - p̄_i)·α + c_i` on completion, `-p̄_i·α + c_i` otherwise, for
    /// critical PoS `p̄_i` and cost `c_i`.
    pub fn contingent(alpha: f64, critical: Pos, cost: Cost) -> Self {
        let critical = critical.value();
        let cost = cost.value();
        RewardQuote {
            success: (1.0 - critical) * alpha + cost,
            failure: -critical * alpha + cost,
        }
    }

    /// The payout for an observed outcome.
    pub fn payout(&self, completed: bool) -> f64 {
        if completed {
            self.success
        } else {
            self.failure
        }
    }

    /// The expected payout `p·success + (1 − p)·failure` to a winner who
    /// completes with probability `p_any`.
    pub fn expected(&self, p_any: f64) -> f64 {
        p_any * self.success + (1.0 - p_any) * self.failure
    }
}

/// An execution-contingent reward scheme.
///
/// The schemes in this crate follow the paper's template: find the winner's
/// *critical bid* `p̄_i` (the minimum PoS declaration that still wins), then
/// pay
///
/// * `(1 - p̄_i)·α + c_i` if the user completed (any of) her task(s), and
/// * `-p̄_i·α + c_i` if she completed none,
///
/// where `α` is the platform's reward scaling factor. A truthful winner's
/// expected utility is `(p_i - p̄_i)·α ≥ 0`.
pub trait RewardScheme {
    /// The reward scaling factor `α`.
    fn alpha(&self) -> f64;

    /// The winner's critical PoS `p̄_i` under `profile` given the realized
    /// `allocation`.
    ///
    /// # Errors
    ///
    /// Returns [`McsError::NotAWinner`] if `user` is not in `allocation`,
    /// plus any error of the underlying re-run allocations.
    fn critical_pos(
        &self,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
    ) -> Result<Pos>;

    /// Both of `user`'s contingent rewards, priced from one
    /// [`RewardScheme::critical_pos`] search.
    ///
    /// # Errors
    ///
    /// Same as [`RewardScheme::critical_pos`].
    fn quote(
        &self,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
    ) -> Result<RewardQuote> {
        let critical = self.critical_pos(profile, allocation, user)?;
        let cost = profile.user(user)?.cost();
        Ok(RewardQuote::contingent(self.alpha(), critical, cost))
    }
}

impl<T: RewardScheme + ?Sized> RewardScheme for &T {
    fn alpha(&self) -> f64 {
        (**self).alpha()
    }

    fn critical_pos(
        &self,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
    ) -> Result<Pos> {
        (**self).critical_pos(profile, allocation, user)
    }
}

/// A complete mechanism: winner determination plus a reward scheme.
///
/// Blanket-implemented for every type that implements both halves.
pub trait Mechanism: WinnerDetermination + RewardScheme {}

impl<T: WinnerDetermination + RewardScheme> Mechanism for T {}

/// The mechanism a round clears with, chosen by the round's shape: the
/// FPTAS mechanism when the profile publishes one task, the greedy
/// mechanism otherwise. The one dispatch on
/// [`TypeProfile::is_single_task`], shared by serving paths and replay
/// oracles so they cannot disagree on which mechanism a round ran.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundMechanism {
    /// Algorithms 2 + 3: FPTAS winner determination, per-winner
    /// critical-bid bisection.
    SingleTask(SingleTaskMechanism),
    /// Algorithms 4 + 5: greedy winner determination, batch critical bids
    /// over `payment_threads` threads.
    MultiTask(MultiTaskMechanism),
}

impl RoundMechanism {
    /// The mechanism for `profile`'s shape, with FPTAS parameter
    /// `epsilon` (single-task only), reward scaling factor `alpha`, and
    /// `payment_threads` batch-payment threads (multi-task only).
    ///
    /// # Errors
    ///
    /// [`McsError::InvalidEpsilon`] or [`McsError::InvalidAlpha`] for an
    /// out-of-range parameter the chosen mechanism uses.
    pub fn new(
        profile: &TypeProfile,
        epsilon: f64,
        alpha: f64,
        payment_threads: usize,
    ) -> Result<Self> {
        Ok(if profile.is_single_task() {
            RoundMechanism::SingleTask(SingleTaskMechanism::new(epsilon, alpha)?)
        } else {
            RoundMechanism::MultiTask(
                MultiTaskMechanism::new(alpha)?.with_payment_threads(payment_threads),
            )
        })
    }

    /// Winner determination, through `context`'s persistent index on the
    /// multi-task arm; bitwise identical to
    /// [`WinnerDetermination::select_winners`].
    ///
    /// # Errors
    ///
    /// Same as [`WinnerDetermination::select_winners`].
    pub fn allocate(
        &self,
        context: &mut ClearContext,
        profile: &TypeProfile,
    ) -> Result<Allocation> {
        match self {
            RoundMechanism::SingleTask(mechanism) => mechanism.select_winners(profile),
            RoundMechanism::MultiTask(mechanism) => mechanism.allocate_with(context, profile),
        }
    }

    /// Every winner's [`RewardQuote`], one critical-PoS search each: per
    /// winner on the single-task arm, one shared batch through `context`
    /// on the multi-task arm. Bitwise identical to calling
    /// [`RewardScheme::quote`] per winner, for every `payment_threads`.
    ///
    /// # Errors
    ///
    /// Same as [`RewardScheme::critical_pos`]; the smallest failing
    /// winner id's error.
    pub fn quote_all(
        &self,
        context: &mut ClearContext,
        profile: &TypeProfile,
        allocation: &Allocation,
    ) -> Result<BTreeMap<UserId, RewardQuote>> {
        let criticals = match self {
            RoundMechanism::SingleTask(mechanism) => allocation
                .winners()
                .map(|winner| Ok((winner, mechanism.critical_pos(profile, allocation, winner)?)))
                .collect::<Result<BTreeMap<_, _>>>()?,
            RoundMechanism::MultiTask(mechanism) => {
                mechanism.critical_pos_all_with(context, profile, allocation)?
            }
        };
        criticals
            .into_iter()
            .map(|(winner, critical)| {
                let cost = profile.user(winner)?.cost();
                Ok((
                    winner,
                    RewardQuote::contingent(self.alpha(), critical, cost),
                ))
            })
            .collect()
    }

    /// The chosen arm, which the trait impls delegate to.
    fn inner(&self) -> &dyn Mechanism {
        match self {
            RoundMechanism::SingleTask(mechanism) => mechanism,
            RoundMechanism::MultiTask(mechanism) => mechanism,
        }
    }
}

impl WinnerDetermination for RoundMechanism {
    fn select_winners(&self, profile: &TypeProfile) -> Result<Allocation> {
        self.inner().select_winners(profile)
    }
}

impl RewardScheme for RoundMechanism {
    fn alpha(&self) -> f64 {
        self.inner().alpha()
    }

    fn critical_pos(
        &self,
        profile: &TypeProfile,
        allocation: &Allocation,
        user: UserId,
    ) -> Result<Pos> {
        self.inner().critical_pos(profile, allocation, user)
    }
}

/// Validates a reward scaling factor.
///
/// # Errors
///
/// Returns [`McsError::InvalidAlpha`] if `alpha` is NaN, negative, or
/// infinite.
pub fn validate_alpha(alpha: f64) -> Result<f64> {
    if alpha.is_finite() && alpha >= 0.0 {
        Ok(alpha)
    } else {
        Err(McsError::InvalidAlpha { value: alpha })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Pos, UserType};

    #[test]
    fn allocation_orders_and_dedups_winners() {
        let allocation =
            Allocation::from_winners(vec![UserId::new(3), UserId::new(1), UserId::new(3)]);
        assert_eq!(allocation.winner_count(), 2);
        let ids: Vec<UserId> = allocation.winners().collect();
        assert_eq!(ids, vec![UserId::new(1), UserId::new(3)]);
    }

    #[test]
    fn allocation_displays_as_set() {
        let allocation = Allocation::from_winners(vec![UserId::new(0), UserId::new(2)]);
        assert_eq!(allocation.to_string(), "{u0, u2}");
        assert_eq!(Allocation::empty().to_string(), "{}");
    }

    #[test]
    fn social_cost_sums_winner_costs() {
        let users = vec![
            UserType::single(UserId::new(0), 3.0, 0.5).unwrap(),
            UserType::single(UserId::new(1), 2.0, 0.5).unwrap(),
        ];
        let profile = TypeProfile::single_task(Pos::new(0.5).unwrap(), users).unwrap();
        let allocation = Allocation::from_winners(vec![UserId::new(0), UserId::new(1)]);
        assert_eq!(allocation.social_cost(&profile).unwrap().value(), 5.0);

        let foreign = Allocation::from_winners(vec![UserId::new(9)]);
        assert!(foreign.social_cost(&profile).is_err());
    }

    #[test]
    fn alpha_validation() {
        assert!(validate_alpha(10.0).is_ok());
        assert!(validate_alpha(0.0).is_ok());
        assert!(validate_alpha(-1.0).is_err());
        assert!(validate_alpha(f64::NAN).is_err());
        assert!(validate_alpha(f64::INFINITY).is_err());
    }

    #[test]
    fn allocation_collects_from_iterator() {
        let allocation: Allocation = (0..3).map(UserId::new).collect();
        assert_eq!(allocation.winner_count(), 3);
        let mut extended = allocation.clone();
        extended.extend([UserId::new(9)]);
        assert!(extended.contains(UserId::new(9)));
    }
}
