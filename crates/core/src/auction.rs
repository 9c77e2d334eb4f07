//! An end-to-end sealed-bid reverse auction with simulated task execution.
//!
//! [`ReverseAuction`] drives one full round of the paper's protocol
//! (Figure 1, steps 3–6): collect declared types, run winner determination,
//! let the winners *attempt* their tasks (independent Bernoulli draws from
//! their **true** PoS values), then pay execution-contingent rewards based
//! on the **declared** types and observed outcomes.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;

use crate::error::Result;
use crate::mechanism::{Allocation, Mechanism, RewardQuote};
use crate::types::{Cost, TaskId, TypeProfile, UserId};

/// What a single winner actually accomplished in one auction round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutionResult {
    completed: BTreeSet<TaskId>,
}

impl ExecutionResult {
    /// The tasks the user completed.
    pub fn completed_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.completed.iter().copied()
    }

    /// Whether the user completed `task`.
    pub fn completed(&self, task: TaskId) -> bool {
        self.completed.contains(&task)
    }

    /// Whether the user completed at least one task — the success event of
    /// the execution-contingent reward scheme.
    pub fn completed_any(&self) -> bool {
        !self.completed.is_empty()
    }
}

/// The complete outcome of one auction round.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionOutcome {
    /// The winning users.
    pub allocation: Allocation,
    /// Per-winner execution results (Bernoulli draws from true PoS).
    pub executions: BTreeMap<UserId, ExecutionResult>,
    /// Per-winner rewards actually paid, given the execution results.
    pub rewards: BTreeMap<UserId, f64>,
    /// Per-winner *realized* utilities: reward minus true cost.
    pub utilities: BTreeMap<UserId, f64>,
    /// Per-winner *expected* utilities under the true types:
    /// `p·r_success + (1-p)·r_failure − c` with `p` the probability of
    /// completing at least one task.
    pub expected_utilities: BTreeMap<UserId, f64>,
    /// The social cost `Σ c_i` over winners (true costs).
    pub social_cost: Cost,
}

impl AuctionOutcome {
    /// The expected (not realized) probability that `task` gets completed
    /// by at least one winner, under the *true* profile used for execution.
    ///
    /// Returns `None` if no winner covers the task at all (probability 0 is
    /// returned as `Some(0.0)` only when some winner covers it with PoS 0).
    pub fn achieved_pos(&self, truth: &TypeProfile, task: TaskId) -> Option<f64> {
        let mut any = false;
        let mut failure = 1.0;
        for winner in self.allocation.winners() {
            if let Ok(user) = truth.user(winner) {
                if let Some(pos) = user.pos_for(task) {
                    any = true;
                    failure *= pos.failure();
                }
            }
        }
        any.then_some(1.0 - failure)
    }

    /// Whether `task` was *actually* completed by some winner this round.
    pub fn task_completed(&self, task: TaskId) -> bool {
        self.executions.values().any(|e| e.completed(task))
    }

    /// Total payout of the platform this round.
    pub fn total_rewards(&self) -> f64 {
        self.rewards.values().sum()
    }
}

/// A sealed-bid reverse auction driven by a [`Mechanism`].
///
/// # Examples
///
/// ```
/// use mcs_core::prelude::*;
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// let users = vec![
///     UserType::single(UserId::new(0), 2.0, 0.6)?,
///     UserType::single(UserId::new(1), 2.5, 0.7)?,
///     UserType::single(UserId::new(2), 3.0, 0.5)?,
/// ];
/// let profile = TypeProfile::single_task(Pos::new(0.85)?, users)?;
/// let auction = ReverseAuction::new(SingleTaskMechanism::new(0.2, 10.0)?);
/// let mut rng = StdRng::seed_from_u64(7);
/// let outcome = auction.run(&profile, &mut rng)?;
/// // Winners are paid and every truthful winner has non-negative
/// // *expected* utility (individual rationality).
/// for (_, &u) in &outcome.expected_utilities {
///     assert!(u >= -1e-9);
/// }
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReverseAuction<M> {
    mechanism: M,
}

impl<M: Mechanism> ReverseAuction<M> {
    /// Creates an auction around `mechanism`.
    pub fn new(mechanism: M) -> Self {
        ReverseAuction { mechanism }
    }

    /// The underlying mechanism.
    pub fn mechanism(&self) -> &M {
        &self.mechanism
    }

    /// Runs one truthful round: the declared profile is also the truth.
    ///
    /// # Errors
    ///
    /// Propagates winner-determination and reward-scheme errors
    /// (e.g. [`crate::McsError::Infeasible`]).
    pub fn run<R: Rng + ?Sized>(
        &self,
        profile: &TypeProfile,
        rng: &mut R,
    ) -> Result<AuctionOutcome> {
        self.run_with_truth(profile, profile, rng)
    }

    /// Runs one round where `declared` may deviate from `truth`:
    /// allocation and rewards use `declared`, execution draws and utilities
    /// use `truth`. Winners present in `declared` but absent from `truth`
    /// are executed with their declared types (useful for synthetic
    /// what-if analyses).
    ///
    /// # Errors
    ///
    /// Propagates winner-determination and reward-scheme errors.
    pub fn run_with_truth<R: Rng + ?Sized>(
        &self,
        declared: &TypeProfile,
        truth: &TypeProfile,
        rng: &mut R,
    ) -> Result<AuctionOutcome> {
        Ok(self.prepare_with_truth(declared, truth)?.execute(rng))
    }

    /// Prepares a truthful auction (declared = truth) for repeated
    /// execution.
    ///
    /// # Errors
    ///
    /// Same as [`ReverseAuction::run`].
    pub fn prepare<'a>(&self, profile: &'a TypeProfile) -> Result<PreparedAuction<'a>> {
        self.prepare_with_truth(profile, profile)
    }

    /// Runs winner determination and the reward scheme once, returning a
    /// reusable round template. The critical-bid searches — the expensive
    /// part — do not depend on execution outcomes, so repeated rounds cost
    /// only their Bernoulli draws.
    ///
    /// # Errors
    ///
    /// Same as [`ReverseAuction::run_with_truth`].
    pub fn prepare_with_truth<'a>(
        &self,
        declared: &TypeProfile,
        truth: &'a TypeProfile,
    ) -> Result<PreparedAuction<'a>> {
        let allocation = self.mechanism.select_winners(declared)?;
        let mut winners = Vec::with_capacity(allocation.winner_count());
        for winner in allocation.winners() {
            let true_type = truth.user(winner).or_else(|_| declared.user(winner))?;
            winners.push(PreparedWinner {
                user: winner,
                quote: self.mechanism.quote(declared, &allocation, winner)?,
                tasks: true_type.tasks().collect(),
                p_any: true_type.any_task_pos().value(),
                cost: true_type.cost(),
            });
        }
        Ok(PreparedAuction {
            truth,
            allocation,
            winners,
        })
    }
}

/// A winner's precomputed round template.
#[derive(Debug, Clone)]
struct PreparedWinner {
    user: UserId,
    quote: RewardQuote,
    tasks: Vec<(TaskId, crate::types::Pos)>,
    p_any: f64,
    cost: Cost,
}

/// An auction with winner determination and rewards already settled; each
/// [`PreparedAuction::execute`] call simulates one execution round.
///
/// # Examples
///
/// ```
/// use mcs_core::prelude::*;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let users = vec![
///     UserType::single(UserId::new(0), 2.0, 0.6)?,
///     UserType::single(UserId::new(1), 2.5, 0.7)?,
/// ];
/// let profile = TypeProfile::single_task(Pos::new(0.85)?, users)?;
/// let auction = ReverseAuction::new(SingleTaskMechanism::new(0.2, 10.0)?);
/// let prepared = auction.prepare(&profile)?;
/// let mut rng = StdRng::seed_from_u64(7);
/// // A thousand rounds cost only the coin flips.
/// let completed = (0..1000)
///     .filter(|_| prepared.execute(&mut rng).task_completed(TaskId::new(0)))
///     .count();
/// assert!(completed > 800);
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PreparedAuction<'a> {
    truth: &'a TypeProfile,
    allocation: Allocation,
    winners: Vec<PreparedWinner>,
}

impl PreparedAuction<'_> {
    /// The settled allocation.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The truthful profile executions draw from.
    pub fn truth(&self) -> &TypeProfile {
        self.truth
    }

    /// Simulates one execution round and settles payments.
    pub fn execute<R: Rng + ?Sized>(&self, rng: &mut R) -> AuctionOutcome {
        let mut executions = BTreeMap::new();
        let mut rewards = BTreeMap::new();
        let mut utilities = BTreeMap::new();
        let mut expected_utilities = BTreeMap::new();
        let mut social_cost = Cost::ZERO;
        for winner in &self.winners {
            let mut result = ExecutionResult::default();
            for &(task, pos) in &winner.tasks {
                if rng.gen_bool(pos.value()) {
                    result.completed.insert(task);
                }
            }
            let reward = winner.quote.payout(result.completed_any());
            expected_utilities.insert(
                winner.user,
                winner.quote.expected(winner.p_any) - winner.cost.value(),
            );
            utilities.insert(winner.user, reward - winner.cost.value());
            rewards.insert(winner.user, reward);
            executions.insert(winner.user, result);
            social_cost += winner.cost;
        }
        AuctionOutcome {
            allocation: self.allocation.clone(),
            executions,
            rewards,
            utilities,
            expected_utilities,
            social_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_task::MultiTaskMechanism;
    use crate::single_task::SingleTaskMechanism;
    use crate::types::{Pos, Task, UserType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn single_profile() -> TypeProfile {
        let users = vec![
            UserType::single(UserId::new(0), 3.0, 0.7).unwrap(),
            UserType::single(UserId::new(1), 2.0, 0.7).unwrap(),
            UserType::single(UserId::new(2), 1.0, 0.5).unwrap(),
            UserType::single(UserId::new(3), 4.0, 0.8).unwrap(),
        ];
        TypeProfile::single_task(Pos::new(0.9).unwrap(), users).unwrap()
    }

    #[test]
    fn outcome_is_internally_consistent() {
        let profile = single_profile();
        let auction = ReverseAuction::new(SingleTaskMechanism::new(0.1, 10.0).unwrap());
        let mut rng = StdRng::seed_from_u64(42);
        let outcome = auction.run(&profile, &mut rng).unwrap();
        assert_eq!(outcome.allocation.winner_count(), outcome.rewards.len());
        assert_eq!(outcome.rewards.len(), outcome.utilities.len());
        assert_eq!(outcome.rewards.len(), outcome.executions.len());
        let recomputed = outcome.allocation.social_cost(&profile).unwrap();
        assert_eq!(outcome.social_cost, recomputed);
        // Realized utility = reward − cost.
        for winner in outcome.allocation.winners() {
            let cost = profile.user(winner).unwrap().cost().value();
            assert!((outcome.utilities[&winner] - (outcome.rewards[&winner] - cost)).abs() < 1e-12);
        }
    }

    #[test]
    fn execution_is_seed_deterministic() {
        let profile = single_profile();
        let auction = ReverseAuction::new(SingleTaskMechanism::new(0.1, 10.0).unwrap());
        let a = auction
            .run(&profile, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let b = auction
            .run(&profile, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn achieved_pos_meets_requirement_in_expectation() {
        let profile = single_profile();
        let auction = ReverseAuction::new(SingleTaskMechanism::new(0.1, 10.0).unwrap());
        let outcome = auction
            .run(&profile, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let achieved = outcome.achieved_pos(&profile, TaskId::new(0)).unwrap();
        assert!(achieved >= 0.9 - 1e-9, "achieved {achieved} < required 0.9");
    }

    #[test]
    fn empirical_completion_rate_tracks_achieved_pos() {
        let profile = single_profile();
        let auction = ReverseAuction::new(SingleTaskMechanism::new(0.1, 10.0).unwrap());
        let mut rng = StdRng::seed_from_u64(123);
        let trials = 2000;
        let mut completed = 0;
        let mut achieved = 0.0;
        for _ in 0..trials {
            let outcome = auction.run(&profile, &mut rng).unwrap();
            achieved = outcome.achieved_pos(&profile, TaskId::new(0)).unwrap();
            if outcome.task_completed(TaskId::new(0)) {
                completed += 1;
            }
        }
        let rate = completed as f64 / trials as f64;
        assert!(
            (rate - achieved).abs() < 0.05,
            "empirical {rate} far from expected {achieved}"
        );
    }

    #[test]
    fn multi_task_round_runs_end_to_end() {
        let task = |id: u32, req: f64| Task::with_requirement(TaskId::new(id), req).unwrap();
        let user = |id: u32, cost: f64, tasks: &[(u32, f64)]| {
            let mut b =
                UserType::builder(UserId::new(id)).cost(crate::types::Cost::new(cost).unwrap());
            for &(t, p) in tasks {
                b = b.task(TaskId::new(t), Pos::new(p).unwrap());
            }
            b.build().unwrap()
        };
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap();
        let auction = ReverseAuction::new(MultiTaskMechanism::new(10.0).unwrap());
        let outcome = auction
            .run(&profile, &mut StdRng::seed_from_u64(9))
            .unwrap();
        for task_id in profile.task_ids() {
            let achieved = outcome.achieved_pos(&profile, task_id).unwrap();
            let required = profile.task(task_id).unwrap().requirement().value();
            assert!(achieved >= required - 1e-9);
        }
        for &u in outcome.expected_utilities.values() {
            assert!(u >= -1e-9);
        }
    }

    #[test]
    fn infeasible_instance_propagates_error() {
        let users = vec![UserType::single(UserId::new(0), 1.0, 0.2).unwrap()];
        let profile = TypeProfile::single_task(Pos::new(0.9).unwrap(), users).unwrap();
        let auction = ReverseAuction::new(SingleTaskMechanism::new(0.5, 10.0).unwrap());
        assert!(auction
            .run(&profile, &mut StdRng::seed_from_u64(0))
            .is_err());
    }
}
