//! # mcs-core — fault-tolerant mechanism design for mobile crowdsensing
//!
//! A production-quality implementation of the mechanisms from
//! *"Mechanism Design for Mobile Crowdsensing with Execution Uncertainty"*
//! (Zheng, Yang, Wu, Chen — ICDCS 2017).
//!
//! ## The setting
//!
//! A crowdsensing platform publishes location-aware sensing tasks, each with
//! a probability-of-success (PoS) requirement `T_j`. Mobile users bid a type
//! `θ_i = (S_i, c_i, {p_i^j})`: a task set, a cost, and a *private* PoS per
//! task — users may fail to execute a task (mobility, connectivity, hardware)
//! and only they can estimate how likely they are to succeed. The platform
//! runs a sealed-bid reverse auction that must:
//!
//! 1. select a redundant user set so that every task is completed with
//!    probability at least `T_j` (fault tolerance),
//! 2. approximately minimize the social cost `Σ c_i` (the exact problem is
//!    NP-hard: min-knapsack / weighted set cover), and
//! 3. be *strategy-proof in the PoS dimension*: no user can gain by
//!    misreporting her PoS (costs are assumed verifiable).
//!
//! ## What's in the crate
//!
//! * [`types`] — validated domain types ([`Pos`](types::Pos),
//!   [`Contribution`](types::Contribution), [`Cost`](types::Cost),
//!   [`UserType`](types::UserType), [`TypeProfile`](types::TypeProfile), …).
//! * [`knapsack`] — the dominance-pruned dynamic program (paper
//!   Algorithm 1) shared by the FPTAS and the exact solver.
//! * [`single_task`] — the single-task mechanism: FPTAS winner
//!   determination (Algorithm 2, `(1+ε)`-approximation) and the
//!   critical-bid, execution-contingent reward scheme (Algorithm 3).
//! * [`multi_task`] — the multi-task single-minded mechanism: greedy
//!   submodular set cover (Algorithm 4, `H(γ)`-approximation) and its
//!   per-iteration critical-bid reward scheme (Algorithm 5).
//! * [`baselines`] — the evaluation baselines: exact optimal solvers,
//!   the Min-Greedy 2-approximation, and the (deliberately broken)
//!   ST-VCG / MT-VCG mechanisms.
//! * [`indexed`] — the dense, index-based profile view and CELF-style
//!   lazy-greedy engine behind the multi-task fast paths (allocation,
//!   critical-bid bisection, parallel payments).
//! * [`mechanism`] — the [`WinnerDetermination`](mechanism::WinnerDetermination),
//!   [`RewardScheme`](mechanism::RewardScheme) and
//!   [`Mechanism`](mechanism::Mechanism) traits tying the pieces together,
//!   the [`RewardQuote`](mechanism::RewardQuote) pair every scheme prices
//!   from one critical bid, and
//!   [`RoundMechanism`](mechanism::RoundMechanism), the shape-dispatched
//!   mechanism a platform round clears with.
//! * [`auction`] — an end-to-end reverse-auction runner with simulated
//!   (Bernoulli) task execution.
//! * [`submodular`] — the coverage function `f(I)` of the paper's
//!   Definition 1, with helpers for checking submodularity.
//! * [`analysis`] — social cost / achieved-PoS metrics and empirical
//!   checkers for strategy-proofness, individual rationality,
//!   monotonicity, and approximation ratios.
//!
//! ## Quickstart
//!
//! ```
//! use mcs_core::prelude::*;
//!
//! // Four users bid on one task that must succeed with probability ≥ 0.9.
//! let users = vec![
//!     UserType::single(UserId::new(0), 3.0, 0.7)?,
//!     UserType::single(UserId::new(1), 2.0, 0.7)?,
//!     UserType::single(UserId::new(2), 1.0, 0.5)?,
//!     UserType::single(UserId::new(3), 4.0, 0.8)?,
//! ];
//! let profile = TypeProfile::single_task(Pos::new(0.9)?, users)?;
//!
//! // Winner determination: the FPTAS with ε = 0.1.
//! let mechanism = SingleTaskMechanism::new(0.1, 10.0)?;
//! let allocation = mechanism.select_winners(&profile)?;
//! assert!(allocation.winner_count() >= 2); // one user is never enough here
//!
//! // Rewards are execution-contingent: a winner who completes the task is
//! // paid more than one who fails, and truthful reporting maximizes
//! // expected utility.
//! let winner = allocation.winners().next().unwrap();
//! let quote = mechanism.quote(&profile, &allocation, winner)?;
//! assert!(quote.success > quote.failure);
//! # Ok::<(), mcs_core::McsError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod auction;
pub mod baselines;
mod error;
pub mod extensions;
pub mod indexed;
pub mod knapsack;
pub mod mechanism;
pub mod multi_task;
pub mod single_task;
pub mod submodular;
pub mod types;

pub use error::{McsError, Result};

/// Convenient glob import for applications:
/// `use mcs_core::prelude::*;`.
pub mod prelude {
    pub use crate::auction::{AuctionOutcome, PreparedAuction, ReverseAuction};
    pub use crate::mechanism::{Allocation, Mechanism, RewardScheme, WinnerDetermination};
    pub use crate::multi_task::MultiTaskMechanism;
    pub use crate::single_task::SingleTaskMechanism;
    pub use crate::types::{Contribution, Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
    pub use crate::{McsError, Result};
}
