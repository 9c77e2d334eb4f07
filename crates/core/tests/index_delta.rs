//! Proptest suite for the persistent, delta-patched [`IndexedProfile`]:
//! after any sequence of add/remove/modify user churn and requirement
//! changes, an index kept alive with `sync_with` must be **identical** to
//! a fresh `from_profile` rebuild — same CSR contents, and bitwise the
//! same engine outcomes with and without precomputed heap seeds. The
//! fresh rebuild is the oracle; the patch path is what campaigns and
//! shard workers actually run on.

use mcs_core::indexed::{IndexedProfile, Record, RunOptions, SyncMode, Workspace};
use mcs_core::types::{Cost, Pos, Task, TaskId, TypeProfile, UserId, UserType};
use proptest::prelude::*;

/// One user as `(id, cost, [(task, pos)])` — the raw shape churn ops edit.
type RawUser = (u32, f64, Vec<(u32, f64)>);

/// Mutable instance state the churn ops rewrite between rounds.
#[derive(Debug, Clone)]
struct Instance {
    next_id: u32,
    users: Vec<RawUser>,
    requirements: Vec<f64>,
}

impl Instance {
    fn profile(&self) -> TypeProfile {
        let tasks: Vec<Task> = self
            .requirements
            .iter()
            .enumerate()
            .map(|(j, &r)| Task::with_requirement(TaskId::new(j as u32), r).unwrap())
            .collect();
        let users: Vec<UserType> = self
            .users
            .iter()
            .map(|&(id, cost, ref entries)| {
                let mut b = UserType::builder(UserId::new(id)).cost(Cost::new(cost).unwrap());
                for &(task, pos) in entries {
                    b = b.task(TaskId::new(task), Pos::new(pos).unwrap());
                }
                b.build().unwrap()
            })
            .collect();
        TypeProfile::new(users, tasks).unwrap()
    }

    /// Applies one churn op. `kind` selects modify/reshape/append/remove/
    /// requirement-change; the other fields parameterize it.
    fn apply(&mut self, kind: u8, user_sel: usize, task_sel: u32, value: f64) {
        let t = self.requirements.len() as u32;
        match kind % 5 {
            0 => {
                // Modify one PoS of an existing user.
                let u = user_sel % self.users.len();
                let entries = &mut self.users[u].2;
                let k = (task_sel as usize) % entries.len();
                entries[k].1 = value;
            }
            1 => {
                // Reshape a user's task set entirely.
                let u = user_sel % self.users.len();
                self.users[u].2 = vec![(task_sel % t, value)];
            }
            2 => {
                // Append a new user (ids stay ascending).
                let id = self.next_id;
                self.next_id += 1;
                self.users
                    .push((id, 1.0 + value * 20.0, vec![(task_sel % t, value)]));
            }
            3 => {
                // Remove the last user (forces a prefix mismatch only when
                // a later op re-appends with a different id — the shrink
                // itself always reflattens).
                if self.users.len() > 1 {
                    self.users.pop();
                }
            }
            _ => {
                // Re-publish a task at a new requirement (same id/order —
                // the residual re-auction same-set case).
                let j = (task_sel % t) as usize;
                self.requirements[j] = 0.3 + value * 0.4;
            }
        }
    }
}

fn instance() -> impl Strategy<Value = Instance> {
    let user = (
        0.5..20.0f64,
        proptest::collection::vec((0u32..3, 0.05..0.6f64), 1..4),
    );
    (
        proptest::collection::vec(0.3..0.8f64, 2..4),
        proptest::collection::vec(user, 2..8),
    )
        .prop_map(|(requirements, raw_users)| {
            let t = requirements.len() as u32;
            let users: Vec<RawUser> = raw_users
                .into_iter()
                .enumerate()
                .map(|(i, (cost, entries))| {
                    let entries = entries
                        .into_iter()
                        .map(|(task, pos)| (task % t, pos))
                        .collect();
                    (i as u32, cost, entries)
                })
                .collect();
            Instance {
                next_id: users.len() as u32,
                users,
                requirements,
            }
        })
}

fn churn_ops() -> impl Strategy<Value = Vec<(u8, usize, u32, f64)>> {
    proptest::collection::vec((0u8..5, 0usize..64, 0u32..8, 0.05..0.6f64), 1..12)
}

/// Runs the default greedy on `indexed` both with freshly built seeds and
/// with a plain scan, returning the capped log as bits for comparison.
fn fingerprint_runs(indexed: &IndexedProfile) -> (Vec<usize>, Vec<u64>, Option<usize>) {
    let (mut workspace, mut seeded_workspace) = (Workspace::new(), Workspace::new());
    let seeds = indexed.heap_seeds();
    let scanned = indexed.run_in(&mut workspace, RunOptions::default(), Record::Full);
    let seeded = indexed.run_in(
        &mut seeded_workspace,
        RunOptions {
            seeds: Some(&seeds),
            ..RunOptions::default()
        },
        Record::Full,
    );
    assert_eq!(scanned, seeded, "seeded run diverged from scanned run");
    (
        scanned.selection.to_vec(),
        scanned.capped.iter().map(|c| c.to_bits()).collect(),
        scanned.uncovered,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole delta-patch contract: across every churn sequence, the
    /// persistent synced index equals a fresh rebuild (structural
    /// equality over the whole CSR), and both drive the engine to bitwise
    /// identical selections and capped logs — seeded or scanned.
    #[test]
    fn delta_patched_index_is_identical_to_fresh_rebuild(
        base in instance(),
        rounds in proptest::collection::vec(churn_ops(), 1..6),
    ) {
        let mut state = base;
        let mut persistent = IndexedProfile::from_profile(&state.profile());
        for ops in rounds {
            for (kind, user_sel, task_sel, value) in ops {
                state.apply(kind, user_sel, task_sel, value);
            }
            let profile = state.profile();
            persistent.sync_with(&profile);
            let fresh = IndexedProfile::from_profile(&profile);
            prop_assert_eq!(&persistent, &fresh);
            prop_assert_eq!(fingerprint_runs(&persistent), fingerprint_runs(&fresh));
        }
    }

    /// Syncing against an unchanged profile touches nothing; syncing after
    /// a pure requirement change stays on the patch path (the residual
    /// re-auction shape) and still equals the rebuild.
    #[test]
    fn same_task_set_requirement_changes_stay_on_the_patch_path(
        base in instance(),
        bump in 0.0..0.4f64,
    ) {
        let mut state = base;
        let mut persistent = IndexedProfile::from_profile(&state.profile());
        let unchanged = persistent.sync_with(&state.profile());
        prop_assert_eq!(unchanged.mode, SyncMode::Unchanged);
        state.requirements[0] = 0.3 + bump;
        let profile = state.profile();
        let stats = persistent.sync_with(&profile);
        prop_assert!(stats.mode != SyncMode::Reflattened);
        prop_assert_eq!(&persistent, &IndexedProfile::from_profile(&profile));
    }
}
