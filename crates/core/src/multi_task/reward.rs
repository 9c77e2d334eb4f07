//! Critical bids and execution-contingent rewards for the multi-task,
//! single-minded mechanism (paper Algorithm 5, hardened).
//!
//! # The critical bid, and a correction to Algorithm 5
//!
//! A winner `i`'s critical bid is the minimum *total* contribution she
//! could have declared and still won. The paper's Algorithm 5 estimates it
//! from a rerun without her: in each iteration where user `k` was selected
//! with capped contribution `f̄_k = Σ_j min(q_k^j, Q̄_j)` and cost `c_k`,
//! the candidate threshold is `(c_i / c_k) · f̄_k`, and the minimum over
//! iterations is taken.
//!
//! That estimate is exact only while the residual caps `min(q_i^j, Q̄_j)`
//! do not bind. When they do, late iterations (with small residuals `Q̄`)
//! produce candidates *below* a truthful loser's total contribution, so a
//! loser could exaggerate her PoS, win, and still collect positive
//! expected utility — precisely the manipulation Theorem 4 is meant to
//! exclude. (The theorem's proof implicitly assumes a truthful loser's
//! total contribution is below every candidate, which the caps break.)
//!
//! [`critical_contribution`] therefore computes the critical bid the
//! robust way, mirroring the single-task scheme: binary search over
//! uniform scalings of the winner's declared contribution vector against
//! the actual (monotone, Lemma 2) winner-determination algorithm. On
//! instances where caps never bind the two computations agree (see the
//! tests); [`algorithm5_critical_contribution`] preserves the paper's
//! original rule for comparison and ablation.
//!
//! # Performance: warm-started bisection on the indexed engine
//!
//! The bisection here runs on [`crate::indexed`]: probes never clone the
//! profile (a [`RunOptions::substitute`] override expresses the scaled
//! declaration) and never record iteration bookkeeping. On top of that,
//! Algorithm 5's estimate is recycled as a *certificate*: if user `i` wins
//! at scale `s`, the greedy run before her first selection coincides with
//! the `θ_{-i}` rerun, so she must have beaten some selected rival `k` at
//! ratio `f̄_k / c_k` — hence `s · Σ_j q_i^j ≥ min_k (c_i / c_k) · f̄_k`.
//! Any probe strictly below that bound (with a relative float-safety
//! margin) is declared lost without running the greedy at all, which
//! typically skips the bottom half of the bisection. The answer is
//! **bitwise identical** to the reference search
//! ([`crate::multi_task::reference::critical_contribution`]); the proptest
//! suite in `tests/engine_equivalence.rs` enforces it.
//!
//! For whole-round payments, [`crate::multi_task::MultiTaskMechanism::critical_pos_all_with`]
//! computes every winner's critical bid in parallel; per-winner
//! computations are independent, so the merge is deterministic for any
//! thread count.

use crate::error::{McsError, Result};
use crate::indexed::{HeapSeeds, IndexedProfile, Record, RunOptions, Workspace, WorkspacePool};
use crate::mechanism::{Allocation, WinnerDetermination};
use crate::multi_task::reference::BISECTION_STEPS;
use crate::multi_task::GreedyWinnerDetermination;
use crate::types::{Contribution, Pos, TypeProfile, UserId, CONTRIBUTION_TOLERANCE};

/// Relative safety margin for the Algorithm-5 warm-start certificate: a
/// probe scale is skipped as a certain loss only when it is below the
/// certified threshold by more than accumulated float rounding could
/// account for (the certificate's own error is ~1e-13 relative), so
/// skipping never changes a probe outcome.
const WARM_START_MARGIN: f64 = 1e-9;

/// Computes the critical contribution `q̄_i` of winning user `user` as
/// `s̄ · Σ_j q_i^j`, where `s̄` is the smallest uniform scaling of her
/// declared contribution vector that still wins.
///
/// With the execution-contingent reward built on this value, truthful
/// reporting is a dominant strategy along uniform-scaling deviations: the
/// critical point on a user's deviation ray does not depend on her declared
/// scale, winners clear it (individual rationality), and losers can only
/// win by paying an expected-utility penalty.
///
/// # Errors
///
/// * [`McsError::NotAWinner`] if `user` does not win under her current
///   declaration.
/// * Any validation error from the underlying reruns.
pub fn critical_contribution(
    winner_determination: &GreedyWinnerDetermination,
    profile: &TypeProfile,
    user: UserId,
) -> Result<Contribution> {
    let current = winner_determination.select_winners(profile)?;
    if !current.contains(user) {
        return Err(McsError::NotAWinner { user });
    }
    let indexed = IndexedProfile::from_profile(profile);
    let seeds = indexed.heap_seeds();
    critical_of_winner(&indexed, Some(&seeds), &mut Workspace::new(), user)
}

/// The fast critical-bid search for a user already verified to win the
/// (feasible) instance. Shared by [`critical_contribution`] and the
/// parallel batch path in
/// [`crate::multi_task::MultiTaskMechanism::critical_pos_all_with`].
///
/// `seeds`, when provided, must match `indexed` exactly; every one of the
/// ~60 bisection probes then skips the full candidate rescan.
pub(crate) fn critical_of_winner(
    indexed: &IndexedProfile,
    seeds: Option<&HeapSeeds>,
    workspace: &mut Workspace,
    user: UserId,
) -> Result<Contribution> {
    let position = indexed
        .position_of(user)
        .ok_or(McsError::NotAWinner { user })?;
    let declared_total = indexed.total(position);
    if declared_total <= CONTRIBUTION_TOLERANCE {
        // A zero-contribution winner can only be a degenerate monopoly;
        // her critical bid is zero.
        return Ok(Contribution::ZERO);
    }

    // Warm start: certify a loss region from the Algorithm-5 estimate on
    // the θ_{-i} rerun. Winning at scale s implies beating some selected
    // rival k with c_k > 0 at her recorded ratio (a free rival is
    // unbeatable for c_i > 0, and a stalled rerun makes i a monopolist),
    // so s · Σ_j q_i^j ≥ min_k (c_i / c_k) · f̄_k. Below that, probes
    // cannot win and are skipped.
    let cost_i = indexed.cost(position);
    let mut certified = 0.0f64;
    let mut base = std::mem::take(&mut workspace.base);
    base.invalidate();
    if cost_i > 0.0 && indexed.user_count() > 1 {
        let without = indexed.run_in(
            workspace,
            RunOptions {
                excluded: Some(position),
                seeds,
                ..RunOptions::default()
            },
            Record::Full,
        );
        if without.is_complete() {
            let mut bound = f64::INFINITY;
            for (&rival, &capped) in without.selection.iter().zip(without.capped) {
                let cost_k = indexed.cost(rival);
                if cost_k > 0.0 {
                    bound = bound.min(capped * cost_i / cost_k);
                }
            }
            if bound.is_finite() {
                certified = bound;
            }
            // Keep the full run around: probes whose scaled declaration
            // never beats a base pick are certain losses and skip the
            // greedy entirely (see `IndexedProfile::probe_loses`).
            without.store_into(&mut base);
        }
    }
    let skip_below = (certified / declared_total) * (1.0 - WARM_START_MARGIN);

    // Bisection over uniform scalings, exactly the reference trajectory:
    // she wins at her declaration (scale 1); zero contribution never wins.
    // The scaled row lives in the workspace so probes allocate nothing.
    let mut scaled = std::mem::take(&mut workspace.scaled);
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..BISECTION_STEPS {
        let mid = 0.5 * (lo + hi);
        workspace.prof.probes_requested += 1;
        let wins = if mid < skip_below {
            workspace.prof.probes_saved_warm_start += 1;
            false
        } else {
            // The probe declaration round-trips each scaled entry through
            // the probability domain, replicating
            // `UserType::with_scaled_contributions` bit for bit.
            scaled.clear();
            scaled.extend(
                indexed
                    .contributions_of(position)
                    .iter()
                    .map(|&q| scaled_entry(q, mid)),
            );
            if base.is_complete() && indexed.probe_loses(position, &scaled, &base) {
                workspace.prof.probes_saved_loss_scan += 1;
                false
            } else {
                workspace.prof.probes_run += 1;
                let probe = indexed.run_in(
                    workspace,
                    RunOptions {
                        substitute: Some((position, scaled.as_slice())),
                        seeds,
                        ..RunOptions::default()
                    },
                    Record::Selection,
                );
                // Scaling down so far that the instance becomes infeasible
                // certainly does not win.
                probe.is_complete() && probe.selected(position)
            }
        };
        if wins {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    workspace.scaled = scaled;
    workspace.base = base;
    Contribution::new(hi * declared_total)
}

/// One contribution entry of a probe declaration: `q` scaled by `scale`,
/// round-tripped through [`Pos`] exactly like
/// [`crate::types::UserType::with_scaled_contributions`] (which saturates
/// at [`Pos::MAX`] rather than failing).
fn scaled_entry(q: f64, scale: f64) -> f64 {
    Contribution::new(q * scale)
        .map(Contribution::pos)
        .unwrap_or(Pos::MAX)
        .contribution()
        .value()
}

/// Critical contributions for a batch of verified winners, fanned out
/// over `threads` OS threads (`std::thread::scope`).
///
/// Each winner's search is an independent pure function of the shared
/// [`IndexedProfile`], and each result lands in its winner's own
/// pre-assigned slot — so the output is bitwise identical for every
/// thread count, including the inlined `threads == 1` path.
pub(crate) fn critical_contributions_parallel(
    indexed: &IndexedProfile,
    seeds: Option<&HeapSeeds>,
    winners: &[UserId],
    threads: usize,
    workspaces: &WorkspacePool,
) -> Vec<Result<Contribution>> {
    let threads = threads.max(1).min(winners.len().max(1));
    if threads == 1 {
        let mut workspace = workspaces.checkout();
        let results = winners
            .iter()
            .map(|&winner| critical_of_winner(indexed, seeds, &mut workspace, winner))
            .collect();
        workspaces.give_back(workspace);
        return results;
    }
    let chunk = winners.len().div_ceil(threads);
    let mut results: Vec<Option<Result<Contribution>>> = vec![None; winners.len()];
    std::thread::scope(|scope| {
        for (winner_chunk, result_chunk) in winners.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                let mut workspace = workspaces.checkout();
                for (&winner, slot) in winner_chunk.iter().zip(result_chunk.iter_mut()) {
                    *slot = Some(critical_of_winner(indexed, seeds, &mut workspace, winner));
                }
                workspaces.give_back(workspace);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("chunks cover every winner slot"))
        .collect()
}

/// The paper's original Algorithm 5: the minimum over iterations of a
/// rerun without `user` of `(c_i / c_k) · Σ_j min(q_k^j, Q̄_j)`.
///
/// Exact when residual caps never bind; an *underestimate* of the true
/// critical bid otherwise (see the module documentation). Kept for
/// comparison with [`critical_contribution`] and for the ablation
/// benchmarks — and doubling as the warm-start certificate of the robust
/// search.
///
/// If the remaining users cannot complete the tasks at all, `user` is a
/// monopolist: she is selected under any feasible declaration, so her
/// critical contribution is zero (the paper leaves this case implicit; a
/// zero critical bid keeps individual rationality and truthfulness, since
/// her reward no longer depends on her declaration).
///
/// # Errors
///
/// Same as [`critical_contribution`].
pub fn algorithm5_critical_contribution(
    winner_determination: &GreedyWinnerDetermination,
    profile: &TypeProfile,
    user: UserId,
) -> Result<Contribution> {
    let current = winner_determination.select_winners(profile)?;
    if !current.contains(user) {
        return Err(McsError::NotAWinner { user });
    }
    let indexed = IndexedProfile::from_profile(profile);
    let position = indexed
        .position_of(user)
        .ok_or(McsError::NotAWinner { user })?;
    let cost_i = indexed.cost(position);

    let mut workspace = Workspace::new();
    let (without, monopoly) = if indexed.user_count() == 1 {
        (None, true)
    } else {
        let run = indexed.run_in(
            &mut workspace,
            RunOptions {
                excluded: Some(position),
                ..RunOptions::default()
            },
            Record::Iterations,
        );
        let monopoly = !run.is_complete();
        (Some(run), monopoly)
    };

    let mut critical: Option<Contribution> = monopoly.then_some(Contribution::ZERO);
    if let Some(run) = &without {
        for (&rival, &capped) in run.selection.iter().zip(run.capped) {
            // To be selected instead of user k, i's capped contribution must
            // reach (c_i / c_k) · f̄_k. Free rivals (c_k = 0) are unbeatable
            // unless i is free too.
            let cost_k = indexed.cost(rival);
            let candidate = if cost_k > 0.0 {
                Some(capped * cost_i / cost_k)
            } else if cost_i == 0.0 {
                Some(capped)
            } else {
                None
            };
            if let Some(value) = candidate {
                let candidate = Contribution::new(value)?;
                critical = Some(critical.map_or(candidate, |c| c.min(candidate)));
            }
        }
    }

    critical.ok_or(McsError::NotAWinner { user })
}

/// The critical PoS `p̄_i = 1 - e^{-q̄_i}` of a winning user (robust
/// critical bid).
///
/// # Errors
///
/// Same as [`critical_contribution`].
pub fn critical_pos(
    winner_determination: &GreedyWinnerDetermination,
    profile: &TypeProfile,
    allocation: &Allocation,
    user: UserId,
) -> Result<Pos> {
    if !allocation.contains(user) {
        return Err(McsError::NotAWinner { user });
    }
    Ok(critical_contribution(winner_determination, profile, user)?.pos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::WinnerDetermination;
    use crate::multi_task::reference;
    use crate::types::{Cost, Task, TaskId, UserType};

    fn task(id: u32, req: f64) -> Task {
        Task::with_requirement(TaskId::new(id), req).unwrap()
    }

    fn user(id: u32, cost: f64, tasks: &[(u32, f64)]) -> UserType {
        let mut b = UserType::builder(UserId::new(id)).cost(Cost::new(cost).unwrap());
        for &(t, p) in tasks {
            b = b.task(TaskId::new(t), Pos::new(p).unwrap());
        }
        b.build().unwrap()
    }

    #[test]
    fn loser_has_no_critical_bid() {
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.9)]), user(1, 50.0, &[(0, 0.9)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        for f in [critical_contribution, algorithm5_critical_contribution] {
            let err = f(&wd, &profile, UserId::new(1)).unwrap_err();
            assert_eq!(
                err,
                McsError::NotAWinner {
                    user: UserId::new(1)
                }
            );
        }
    }

    #[test]
    fn critical_bid_matches_rival_ratio() {
        // Two identical-cost users; only one needed. Winner 0's critical
        // contribution equals rival 1's capped contribution (same cost) —
        // and here the robust search and Algorithm 5 agree.
        let profile = TypeProfile::new(
            vec![user(0, 2.0, &[(0, 0.8)]), user(1, 2.0, &[(0, 0.7)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let expected = Pos::new(0.5).unwrap().contribution();
        let robust = critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert!((robust.value() - expected.value()).abs() < 1e-9);
        let paper = algorithm5_critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert!((paper.value() - expected.value()).abs() < 1e-12);
    }

    #[test]
    fn cheaper_user_needs_proportionally_less() {
        // Winner 0 costs half of rival 1 ⇒ needs half the contribution.
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.8)]), user(1, 2.0, &[(0, 0.7)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let rival_capped = Pos::new(0.5).unwrap().contribution();
        let robust = critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert!((robust.value() - rival_capped.value() / 2.0).abs() < 1e-9);
        let paper = algorithm5_critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert!((paper.value() - rival_capped.value() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn monopolist_pays_the_feasibility_threshold() {
        // The robust critical bid of a monopolist is the declaration that
        // just keeps the instance feasible (below it the platform cannot
        // run the auction at all, so she does not win); the paper's
        // Algorithm 5 instead gives her a free ride at 0.
        let profile =
            TypeProfile::new(vec![user(0, 3.0, &[(0, 0.5)])], vec![task(0, 0.5)]).unwrap();
        let wd = GreedyWinnerDetermination::new();
        let robust = critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        let threshold = Pos::new(0.5).unwrap().contribution();
        assert!(
            (robust.value() - threshold.value()).abs() < 1e-9,
            "monopolist critical bid {robust}, expected feasibility threshold {threshold}"
        );
        let paper = algorithm5_critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert_eq!(paper, Contribution::ZERO);
    }

    #[test]
    fn partial_monopoly_pays_the_binding_tasks_threshold() {
        // User 1 covers task 0 but nobody else covers task 1, so user 0 is
        // a monopolist on task 1: her critical scale is set by task 1's
        // feasibility, i.e. s̄·q(0.6) = Q(0.5).
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.5), (1, 0.6)]),
                user(1, 1.0, &[(0, 0.7)]),
            ],
            vec![task(0, 0.5), task(1, 0.5)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        assert!(allocation.contains(UserId::new(0)));
        let robust = critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        let q_task1 = Pos::new(0.6).unwrap().contribution().value();
        let total = profile
            .user(UserId::new(0))
            .unwrap()
            .total_contribution()
            .value();
        let expected = (Pos::new(0.5).unwrap().contribution().value() / q_task1) * total;
        assert!(
            (robust.value() - expected).abs() < 1e-6,
            "critical bid {robust}, expected {expected}"
        );
        let paper = algorithm5_critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert_eq!(paper, Contribution::ZERO);
    }

    #[test]
    fn critical_bid_is_below_declaration_for_winners() {
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
                user(4, 2.5, &[(0, 0.4), (2, 0.4)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        for winner in allocation.winners() {
            let declared = profile.user(winner).unwrap().total_contribution();
            let critical = critical_contribution(&wd, &profile, winner).unwrap();
            assert!(
                critical.value() <= declared.value() + 1e-9,
                "critical {critical} above declaration {declared} for {winner}"
            );
        }
    }

    #[test]
    fn robust_bid_never_below_algorithm5_when_caps_bind() {
        // In cap-heavy instances Algorithm 5 underestimates; the robust
        // search may only be larger or equal (up to search tolerance).
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.5), (1, 0.5), (2, 0.5)]),
                user(1, 2.2, &[(0, 0.5), (1, 0.5), (2, 0.5)]),
                user(2, 2.4, &[(0, 0.5), (1, 0.5), (2, 0.5)]),
                user(3, 2.6, &[(0, 0.5), (1, 0.5), (2, 0.5)]),
            ],
            vec![task(0, 0.7), task(1, 0.7), task(2, 0.7)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        for winner in allocation.winners() {
            let robust = critical_contribution(&wd, &profile, winner).unwrap();
            let paper = algorithm5_critical_contribution(&wd, &profile, winner).unwrap();
            assert!(
                robust.value() >= paper.value() - 1e-9,
                "robust {robust} below Algorithm 5's {paper} for {winner}"
            );
        }
    }

    #[test]
    fn winning_just_above_critical_and_losing_below() {
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
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        for winner in allocation.winners() {
            let declared = profile.user(winner).unwrap().total_contribution().value();
            let critical = critical_contribution(&wd, &profile, winner)
                .unwrap()
                .value();
            if critical < 1e-9 {
                continue; // monopolist: wins at any positive declaration
            }
            let scale_above = (critical / declared) * 1.001;
            let above = profile
                .user(winner)
                .unwrap()
                .with_scaled_contributions(scale_above.min(1.0));
            let outcome = wd.select_winners(&profile.with_user_type(above).unwrap());
            if let Ok(outcome) = outcome {
                assert!(
                    outcome.contains(winner),
                    "{winner} lost just above her critical bid"
                );
            }
            let scale_below = (critical / declared) * 0.97;
            let below = profile
                .user(winner)
                .unwrap()
                .with_scaled_contributions(scale_below);
            match wd.select_winners(&profile.with_user_type(below).unwrap()) {
                Ok(outcome) => assert!(
                    !outcome.contains(winner),
                    "{winner} still wins well below her critical bid"
                ),
                Err(McsError::Infeasible { .. }) => {} // losing by infeasibility
                Err(other) => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn critical_pos_requires_winner_in_allocation() {
        let profile =
            TypeProfile::new(vec![user(0, 1.0, &[(0, 0.9)])], vec![task(0, 0.5)]).unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = Allocation::empty();
        let err = critical_pos(&wd, &profile, &allocation, UserId::new(0)).unwrap_err();
        assert_eq!(
            err,
            McsError::NotAWinner {
                user: UserId::new(0)
            }
        );
    }

    #[test]
    fn fast_search_is_bitwise_equal_to_the_reference_search() {
        // Not approximately equal: the warm-started, substitution-based
        // bisection must reproduce the cloning reference bit for bit.
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
                user(4, 2.5, &[(0, 0.4), (2, 0.4)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        assert!(!allocation.is_empty());
        for winner in allocation.winners() {
            let fast = critical_contribution(&wd, &profile, winner).unwrap();
            let slow = reference::critical_contribution(&profile, winner).unwrap();
            assert_eq!(fast.value().to_bits(), slow.value().to_bits(), "{winner}");
        }
    }
}
