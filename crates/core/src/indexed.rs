//! A dense, index-based view of a [`TypeProfile`] and the lazy-greedy
//! allocation engine built on top of it.
//!
//! [`TypeProfile`] is the validated boundary type: `BTreeMap`-backed,
//! id-keyed, convenient to build and to mutate one declaration at a time.
//! The multi-task mechanism, however, replays winner determination
//! hundreds of times per round — every critical bid is a bisection whose
//! each probe re-runs the full greedy — and at that call rate the map
//! probes and profile clones dominate the runtime. [`IndexedProfile`]
//! flattens the instance **once** into contiguous arrays (CSR-style
//! per-user `(task index, contribution)` entries plus per-task
//! requirements), so every re-run touches nothing but dense `f64` slices
//! and never allocates a modified profile: excluding a user or scaling her
//! contributions is expressed through [`RunOptions`] instead of cloning.
//!
//! The engine is the paper's greedy (Algorithm 4) accelerated with the
//! CELF lazy-evaluation trick from the submodular-maximization literature:
//! a max-heap holds every candidate's capped contribution–cost ratio as a
//! *stale upper bound*. Capped contributions `Σ_j min(q_i^j, Q̄_j)` are
//! monotone non-increasing as the residuals `Q̄` shrink (this also holds
//! for the rounded floating-point sums, because `fl(a+b)` is monotone in
//! both arguments), so a popped entry whose bound is already fresh is the
//! exact argmax and can be selected without rescanning anyone else.
//!
//! ## Memory-bound clearing (10^5–10^6 bidders)
//!
//! Three layers keep the steady state free of per-probe heap traffic
//! (DESIGN.md §12 documents the full protocol):
//!
//! * **Workspace-owned run buffers.** [`IndexedProfile::run_in`] writes
//!   selection order, capped log, flattened residual snapshots, and the
//!   winner [`BitSet`] into the [`Workspace`] and returns a borrowed
//!   [`RunView`] — a bisection's 60 probes reuse the same capacity and
//!   allocate nothing.
//! * **Precomputed heap seeds.** Every probe used to rebuild the heap
//!   with a full `O(Σ entries)` capped rescan plus `n` sift-up pushes.
//!   [`HeapSeeds`] stores the initial entries once per round; a probe
//!   copies them (one memcpy), patches at most two slots (the excluded
//!   or substituted user), and re-establishes the heap invariant with
//!   Floyd's `O(n)` bottom-up heapify. Because [`beats`] is a *strict
//!   total order* (distinct users never compare equal), a valid max-heap
//!   pops in exactly descending order regardless of its internal layout —
//!   so the seeded heap's pop sequence is bitwise identical to the
//!   push-built one.
//! * **Delta-patched cross-round reuse.** [`IndexedProfile::sync_with`]
//!   patches user rows and task requirements in place when the task list
//!   and the retained user prefix are unchanged (the common campaign
//!   round-over-round case), falling back to a buffer-reusing
//!   [`IndexedProfile::reflatten`] otherwise. [`ClearContext`] bundles the
//!   persistent index, its seeds, and a [`WorkspacePool`]; shard workers
//!   and campaign rounds check contexts out of a shared [`ContextPool`].
//!
//! ## Bitwise equivalence
//!
//! The engine is not "approximately" the reference implementation
//! ([`crate::multi_task::reference`]): selections, capped contributions,
//! residual snapshots, and every critical bid derived from them are
//! **bitwise identical**. The float operations are kept in the reference
//! order — capped sums add a user's entries in task publication order
//! (skipping an absent task adds an exact `0.0`, which is a no-op on
//! non-negative sums; the blocked inner loop below changes only how the
//! `min` operands are *selected*, never the order they are summed in),
//! residual subtraction is the same saturating `max(0, Q̄ - q)`, and ties
//! break by the same cross-multiplied ratio comparison followed by
//! smaller-user-id-wins. The equivalence is enforced by the proptest
//! suites in `tests/engine_equivalence.rs` and `tests/index_delta.rs`.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::error::{McsError, Result};
use crate::mechanism::Allocation;
use crate::types::{TaskId, TypeProfile, UserId, UserType, CONTRIBUTION_TOLERANCE};

/// A fixed-capacity bit mask over dense positions, packed into `u64`
/// words. Backs the winner mask of a greedy run: membership tests are one
/// shift-and-test instead of an `O(|winners|)` scan over the selection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty mask.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Clears the mask and resizes it to cover `len` positions, retaining
    /// the word buffer's capacity.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Sets the bit at `index` (must be within the reset length).
    pub fn insert(&mut self, index: usize) {
        debug_assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.words[index >> 6] |= 1u64 << (index & 63);
    }

    /// Whether the bit at `index` is set; out-of-range indices are `false`.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index >> 6)
            .is_some_and(|word| (word >> (index & 63)) & 1 == 1)
    }

    /// The number of positions the mask covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Clearing-kernel profiling counters: what the hot path actually did.
///
/// Counting is branch-free — plain `u64` increments on fields that live
/// in the already-hot [`Workspace`]/[`ClearContext`] cache lines — so the
/// counters are always maintained; the *surfacing* (atomic drains into
/// engine metrics) is what an engine's profiling flag gates. Counters are
/// pure telemetry: nothing in the clearing path ever reads them back, so
/// selections, payments, and fingerprints are bitwise independent of them.
///
/// Two conservation laws hold by construction and are checked by the
/// harness oracle:
///
/// * `probes_saved_warm_start + probes_saved_loss_scan + probes_run ==
///   probes_requested` — every bisection step is decided exactly once.
/// * `reuse_hits + sync_patched + sync_reflattened == prepares` — every
///   prepared round syncs in exactly one mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfCounters {
    /// Rounds prepared through a [`ClearContext`] (arena checkouts).
    pub prepares: u64,
    /// Prepares whose [`IndexedProfile::sync_with`] found the index
    /// bitwise up to date ([`SyncMode::Unchanged`]) — the reuse hits.
    pub reuse_hits: u64,
    /// Prepares that delta-patched rows/requirements in place.
    pub sync_patched: u64,
    /// Prepares that re-flattened the index from scratch.
    pub sync_reflattened: u64,
    /// Heap-seed rebuilds (one per prepare that changed the index).
    pub seed_rebuilds: u64,
    /// Retained user rows patched across all syncs.
    pub users_patched: u64,
    /// User rows appended across all syncs.
    pub users_appended: u64,
    /// Resident arena footprint of the last prepared index + seeds, bytes
    /// (a gauge: latest value, not a sum).
    pub resident_bytes: u64,
    /// Lazy-greedy heap pops across all runs.
    pub heap_pops: u64,
    /// Pops whose bound was stale: re-evaluated against the current
    /// residuals and re-queued instead of selected.
    pub stale_reevals: u64,
    /// Bisection steps requested across all critical-bid searches.
    pub probes_requested: u64,
    /// Steps that ran the real greedy probe.
    pub probes_run: u64,
    /// Steps skipped by the Algorithm-5 warm-start certificate.
    pub probes_saved_warm_start: u64,
    /// Steps skipped by the θ₋ᵢ base-run loss scan
    /// ([`IndexedProfile::probe_loses`]).
    pub probes_saved_loss_scan: u64,
}

impl ProfCounters {
    /// Folds `other` into this accumulator (sums counters, takes the
    /// latest non-zero resident-bytes gauge).
    pub fn merge(&mut self, other: &ProfCounters) {
        self.prepares += other.prepares;
        self.reuse_hits += other.reuse_hits;
        self.sync_patched += other.sync_patched;
        self.sync_reflattened += other.sync_reflattened;
        self.seed_rebuilds += other.seed_rebuilds;
        self.users_patched += other.users_patched;
        self.users_appended += other.users_appended;
        if other.resident_bytes != 0 {
            self.resident_bytes = other.resident_bytes;
        }
        self.heap_pops += other.heap_pops;
        self.stale_reevals += other.stale_reevals;
        self.probes_requested += other.probes_requested;
        self.probes_run += other.probes_run;
        self.probes_saved_warm_start += other.probes_saved_warm_start;
        self.probes_saved_loss_scan += other.probes_saved_loss_scan;
    }

    /// Total bisection steps skipped without running the greedy.
    pub fn probes_saved(&self) -> u64 {
        self.probes_saved_warm_start + self.probes_saved_loss_scan
    }

    /// Whether the counters satisfy their conservation laws (see the
    /// struct docs) — the harness oracle's check.
    pub fn is_conserved(&self) -> bool {
        self.probes_saved() + self.probes_run == self.probes_requested
            && self.reuse_hits + self.sync_patched + self.sync_reflattened == self.prepares
            && self.reuse_hits <= self.prepares
            && self.stale_reevals <= self.heap_pops
    }
}

/// A dense snapshot of a [`TypeProfile`], built once per round and shared
/// (immutably) by every greedy re-run and payment computation — or kept
/// alive *across* rounds and delta-patched via
/// [`IndexedProfile::sync_with`].
///
/// User positions follow declaration order, task positions follow
/// publication order — the same orders the reference implementation
/// iterates in, which is what makes the float arithmetic reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedProfile {
    user_ids: Vec<UserId>,
    costs: Vec<f64>,
    /// Declared total contribution per user, `Σ_j q_i^j` — taken verbatim
    /// from [`crate::types::UserType::total_contribution`], which sums in
    /// ascending `TaskId` order (not necessarily publication order), so it
    /// is stored rather than recomputed from the entries below.
    totals: Vec<f64>,
    /// CSR offsets: user `i`'s entries live at `offsets[i]..offsets[i+1]`.
    offsets: Vec<usize>,
    /// Task position (publication order) of each entry, ascending per
    /// user. `u32` halves the index column's cache footprint; a round
    /// publishes far fewer than 2^32 tasks.
    entry_task: Vec<u32>,
    /// Contribution `q_i^j` of each entry.
    entry_q: Vec<f64>,
    /// Requirement contribution `Q_j` per task, in publication order.
    requirements: Vec<f64>,
    task_ids: Vec<TaskId>,
    /// Whether `user_ids` is strictly ascending, making `position_of` a
    /// direct binary search (the common case: validated profiles list
    /// users in id order).
    ids_sorted: bool,
    /// When `ids_sorted` is false: user positions sorted by user id, the
    /// indirection `position_of` binary-searches instead.
    lookup: Vec<u32>,
}

impl IndexedProfile {
    fn empty() -> Self {
        IndexedProfile {
            user_ids: Vec::new(),
            costs: Vec::new(),
            totals: Vec::new(),
            offsets: Vec::new(),
            entry_task: Vec::new(),
            entry_q: Vec::new(),
            requirements: Vec::new(),
            task_ids: Vec::new(),
            ids_sorted: true,
            lookup: Vec::new(),
        }
    }

    /// Flattens `profile` into the dense form.
    pub fn from_profile(profile: &TypeProfile) -> Self {
        let mut indexed = IndexedProfile::empty();
        indexed.reflatten(profile);
        indexed
    }

    /// Re-flattens `profile` into this index from scratch, reusing every
    /// buffer's capacity. Equivalent to `*self =
    /// IndexedProfile::from_profile(profile)` without the allocations.
    pub fn reflatten(&mut self, profile: &TypeProfile) {
        let task_position: BTreeMap<TaskId, u32> = profile
            .task_ids()
            .enumerate()
            .map(|(position, task)| (task, position as u32))
            .collect();
        self.user_ids.clear();
        self.costs.clear();
        self.totals.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.entry_task.clear();
        self.entry_q.clear();
        self.requirements.clear();
        self.requirements.extend(
            profile
                .tasks()
                .iter()
                .map(|t| t.requirement_contribution().value()),
        );
        self.task_ids.clear();
        self.task_ids.extend(profile.task_ids());
        let mut scratch = Vec::new();
        for user in profile.users() {
            self.push_row(user, &task_position, &mut scratch);
        }
        self.rebuild_lookup();
    }

    /// Brings this index up to date with `profile` by patching in place
    /// where the shapes allow it, re-flattening otherwise.
    ///
    /// The patch path applies when the published task list is positionally
    /// identical (same ids, same order) and the retained user prefix kept
    /// its identity and order — the common campaign case, where most of
    /// the population re-bids and new arrivals append. Requirement values,
    /// costs, totals, and contribution rows are then overwritten (or
    /// spliced, when a user's task set changed shape) without rebuilding
    /// the CSR arrays. The result is **bitwise identical** to a fresh
    /// [`IndexedProfile::from_profile`] rebuild — value comparisons are
    /// done on raw bits, so even a `-0.0`/`+0.0` flip is patched through —
    /// which `tests/index_delta.rs` proves by proptest.
    pub fn sync_with(&mut self, profile: &TypeProfile) -> SyncStats {
        let tasks_match = profile.tasks().len() == self.task_ids.len()
            && profile
                .task_ids()
                .zip(self.task_ids.iter())
                .all(|(new, &old)| new == old);
        if !tasks_match {
            self.reflatten(profile);
            return SyncStats::reflattened();
        }
        let old_n = self.user_ids.len();
        let users = profile.users();
        let prefix_matches = users.len() >= old_n
            && users[..old_n]
                .iter()
                .zip(&self.user_ids)
                .all(|(user, &id)| user.id() == id);
        if !prefix_matches {
            self.reflatten(profile);
            return SyncStats::reflattened();
        }

        let mut stats = SyncStats::unchanged();
        for (position, task) in profile.tasks().iter().enumerate() {
            let requirement = task.requirement_contribution().value();
            if requirement.to_bits() != self.requirements[position].to_bits() {
                self.requirements[position] = requirement;
                stats.requirements_patched += 1;
            }
        }

        let task_position: BTreeMap<TaskId, u32> = self
            .task_ids
            .iter()
            .enumerate()
            .map(|(position, &task)| (task, position as u32))
            .collect();
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        // Splices shift every later entry; `shift` tracks the running
        // displacement so each user's *current* span is derived from the
        // original offsets, which stay untouched ahead of the cursor.
        let mut shift: isize = 0;
        for (position, user) in users.iter().enumerate().take(old_n) {
            let start = self.offsets[position];
            let old_end = self.offsets[position + 1];
            let cur_end = (old_end as isize + shift) as usize;
            let mut touched = false;
            let cost = user.cost().value();
            if cost.to_bits() != self.costs[position].to_bits() {
                self.costs[position] = cost;
                touched = true;
            }
            let total = user.total_contribution().value();
            if total.to_bits() != self.totals[position].to_bits() {
                self.totals[position] = total;
                touched = true;
            }
            flatten_row(user, &task_position, &mut scratch);
            let same_shape = scratch.len() == cur_end - start
                && scratch
                    .iter()
                    .zip(&self.entry_task[start..cur_end])
                    .all(|(&(task, _), &old)| task == old);
            if same_shape {
                for (k, &(_, q)) in scratch.iter().enumerate() {
                    if q.to_bits() != self.entry_q[start + k].to_bits() {
                        self.entry_q[start + k] = q;
                        touched = true;
                    }
                }
            } else {
                self.entry_task
                    .splice(start..cur_end, scratch.iter().map(|&(task, _)| task));
                self.entry_q
                    .splice(start..cur_end, scratch.iter().map(|&(_, q)| q));
                shift += scratch.len() as isize - (cur_end - start) as isize;
                touched = true;
            }
            self.offsets[position + 1] = (old_end as isize + shift) as usize;
            if touched {
                stats.users_patched += 1;
            }
        }
        for user in &users[old_n..] {
            self.push_row(user, &task_position, &mut scratch);
            stats.users_appended += 1;
        }
        if stats.users_appended > 0 {
            self.rebuild_lookup();
        }
        if stats.users_patched + stats.users_appended + stats.requirements_patched > 0 {
            stats.mode = SyncMode::Patched;
        }
        stats
    }

    fn push_row(
        &mut self,
        user: &UserType,
        task_position: &BTreeMap<TaskId, u32>,
        scratch: &mut Vec<(u32, f64)>,
    ) {
        self.user_ids.push(user.id());
        self.costs.push(user.cost().value());
        self.totals.push(user.total_contribution().value());
        flatten_row(user, task_position, scratch);
        for &(position, q) in scratch.iter() {
            self.entry_task.push(position);
            self.entry_q.push(q);
        }
        self.offsets.push(self.entry_task.len());
    }

    fn rebuild_lookup(&mut self) {
        self.ids_sorted = self.user_ids.windows(2).all(|w| w[0] < w[1]);
        self.lookup.clear();
        if !self.ids_sorted {
            let ids = &self.user_ids;
            self.lookup.extend(0..ids.len() as u32);
            self.lookup
                .sort_unstable_by_key(|&position| ids[position as usize]);
        }
    }

    /// Number of users `n`.
    pub fn user_count(&self) -> usize {
        self.user_ids.len()
    }

    /// Number of tasks `t`.
    pub fn task_count(&self) -> usize {
        self.task_ids.len()
    }

    /// The id of the user at `position` (declaration order).
    pub fn user_id(&self, position: usize) -> UserId {
        self.user_ids[position]
    }

    /// The winners a complete `run` selected, or
    /// [`McsError::Infeasible`] for the first task it left uncovered.
    ///
    /// # Errors
    ///
    /// [`McsError::Infeasible`] if `run` is incomplete.
    pub fn allocation(&self, run: &RunView<'_>) -> Result<Allocation> {
        match run.uncovered {
            Some(task) => Err(McsError::Infeasible {
                task: self.task_id(task),
            }),
            None => Ok(run.selection.iter().map(|&p| self.user_id(p)).collect()),
        }
    }

    /// The id of the task at `position` (publication order).
    pub fn task_id(&self, position: usize) -> TaskId {
        self.task_ids[position]
    }

    /// The cost `c_i` of the user at `position`.
    pub fn cost(&self, position: usize) -> f64 {
        self.costs[position]
    }

    /// The declared total contribution `Σ_j q_i^j` of the user at `position`.
    pub fn total(&self, position: usize) -> f64 {
        self.totals[position]
    }

    /// The position of `user`, if she is in the profile — a binary search
    /// over the id-sorted view (direct when declarations arrived in id
    /// order, through a sorted permutation otherwise).
    pub fn position_of(&self, user: UserId) -> Option<usize> {
        if self.ids_sorted {
            self.user_ids.binary_search(&user).ok()
        } else {
            self.lookup
                .binary_search_by(|&position| self.user_ids[position as usize].cmp(&user))
                .ok()
                .map(|found| self.lookup[found] as usize)
        }
    }

    /// The contribution entries `q_i^j` of the user at `position`, in task
    /// publication order — the slice shape a [`RunOptions::substitute`]
    /// override must match.
    pub fn contributions_of(&self, position: usize) -> &[f64] {
        &self.entry_q[self.offsets[position]..self.offsets[position + 1]]
    }

    /// `Σ_{j ∈ S_i} min(q_i^j, Q̄_j)` — the capped marginal contribution,
    /// accumulated exactly like the reference (`Contribution::min` picks
    /// `q` on ties; absent tasks contribute an exact `0.0`, skipped here).
    fn capped(&self, position: usize, residual: &[f64], options: &RunOptions<'_>) -> f64 {
        let span = self.offsets[position]..self.offsets[position + 1];
        let tasks = &self.entry_task[span.clone()];
        let qs: &[f64] = match options.substitute {
            Some((substituted, qs)) if substituted == position => qs,
            _ => &self.entry_q[span],
        };
        capped_span(tasks, qs, residual)
    }

    /// Precomputes the initial heap for runs against the *full*
    /// requirements: every candidate whose unmodified capped contribution
    /// clears the tolerance, in position order.
    pub fn heap_seeds(&self) -> HeapSeeds {
        let mut seeds = HeapSeeds::default();
        self.rebuild_seeds(&mut seeds);
        seeds
    }

    /// Rebuilds `seeds` in place for the current index contents (reusing
    /// its buffers). Must be re-run after any [`IndexedProfile::sync_with`]
    /// that reported changes.
    pub fn rebuild_seeds(&self, seeds: &mut HeapSeeds) {
        seeds.entries.clear();
        seeds.slot_of.clear();
        seeds.slot_of.resize(self.user_count(), NO_SLOT);
        let options = RunOptions::default();
        for position in 0..self.user_count() {
            let capped = self.capped(position, &self.requirements, &options);
            if capped > CONTRIBUTION_TOLERANCE {
                seeds.slot_of[position] = seeds.entries.len() as u32;
                seeds.entries.push(HeapEntry {
                    capped,
                    cost: self.costs[position],
                    id: self.user_ids[position],
                    position: position as u32,
                    version: 0,
                });
            }
        }
    }

    /// Builds the initial heap by scanning every candidate — the seedless
    /// path. Exclusion splits the scan range instead of testing each
    /// candidate, so the inner loop carries no per-candidate branch.
    fn scan_heap(&self, heap: &mut Vec<HeapEntry>, options: &RunOptions<'_>) {
        heap.clear();
        let n = self.user_count();
        let (before, after) = match options.excluded {
            Some(excluded) if excluded < n => (0..excluded, excluded + 1..n),
            _ => (0..n, n..n),
        };
        for position in before.chain(after) {
            let capped = self.capped(position, &self.requirements, options);
            if capped > CONTRIBUTION_TOLERANCE {
                heap_push(
                    heap,
                    HeapEntry {
                        capped,
                        cost: self.costs[position],
                        id: self.user_ids[position],
                        position: position as u32,
                        version: 0,
                    },
                );
            }
        }
    }

    /// Builds the initial heap from precomputed seeds: one memcpy, at most
    /// two slot patches (the excluded and/or substituted user), then a
    /// Floyd bottom-up heapify. Pops in exactly the same order as the
    /// scanned heap because [`beats`] is a strict total order — the heap's
    /// internal layout never influences which element is the maximum.
    fn seed_heap(&self, heap: &mut Vec<HeapEntry>, seeds: &HeapSeeds, options: &RunOptions<'_>) {
        debug_assert_eq!(
            seeds.slot_of.len(),
            self.user_count(),
            "heap seeds out of sync with the index"
        );
        heap.clear();
        heap.extend_from_slice(&seeds.entries);
        // `swap_remove` relocates the last entry; remember where it went
        // so the substitute patch below still finds its slot.
        let mut moved: Option<(usize, usize)> = None;
        if let Some(excluded) = options.excluded {
            if let Some(slot) = seeds.slot(excluded) {
                let last = heap.len() - 1;
                heap.swap_remove(slot);
                if slot != last {
                    moved = Some((last, slot));
                }
            }
        }
        if let Some((position, _)) = options.substitute {
            if options.excluded != Some(position) {
                let capped = self.capped(position, &self.requirements, options);
                let slot = seeds.slot(position).map(|slot| match moved {
                    Some((from, to)) if slot == from => to,
                    _ => slot,
                });
                match (slot, capped > CONTRIBUTION_TOLERANCE) {
                    (Some(slot), true) => heap[slot].capped = capped,
                    (Some(slot), false) => {
                        heap.swap_remove(slot);
                    }
                    (None, true) => heap.push(HeapEntry {
                        capped,
                        cost: self.costs[position],
                        id: self.user_ids[position],
                        position: position as u32,
                        version: 0,
                    }),
                    (None, false) => {}
                }
            }
        }
        heapify(heap);
    }

    /// Bytes resident in this index's flattened arrays (capacities, not
    /// lengths — what the arena actually holds onto across rounds).
    pub fn resident_bytes(&self) -> usize {
        self.user_ids.capacity() * size_of::<UserId>()
            + (self.costs.capacity() + self.totals.capacity() + self.entry_q.capacity())
                * size_of::<f64>()
            + self.offsets.capacity() * size_of::<usize>()
            + (self.entry_task.capacity() + self.lookup.capacity()) * size_of::<u32>()
            + self.requirements.capacity() * size_of::<f64>()
            + self.task_ids.capacity() * size_of::<TaskId>()
    }

    /// Runs the lazy greedy to exhaustion, recording into `workspace` and
    /// returning a borrowed view over its buffers — the zero-allocation
    /// path every bisection probe takes. See [`Record`] for what gets
    /// recorded; probes use [`Record::Selection`] and skip all
    /// bookkeeping.
    pub fn run_in<'w>(
        &self,
        workspace: &'w mut Workspace,
        options: RunOptions<'_>,
        record: Record,
    ) -> RunView<'w> {
        let task_count = self.task_count();
        workspace.residual.clear();
        workspace.residual.extend_from_slice(&self.requirements);
        workspace.selection.clear();
        workspace.capped.clear();
        workspace.snapshots.clear();
        workspace.winner_mask.reset(self.user_count());
        let mut unmet = workspace
            .residual
            .iter()
            .filter(|&&r| r > CONTRIBUTION_TOLERANCE)
            .count();

        match options.seeds {
            Some(seeds) => self.seed_heap(&mut workspace.heap, seeds, &options),
            None => self.scan_heap(&mut workspace.heap, &options),
        }

        let mut version = 0u32;
        let mut uncovered = None;
        while unmet > 0 {
            let Some(top) = heap_pop(&mut workspace.heap) else {
                uncovered = workspace
                    .residual
                    .iter()
                    .position(|&r| r > CONTRIBUTION_TOLERANCE);
                break;
            };
            workspace.prof.heap_pops += 1;
            if top.version != version {
                workspace.prof.stale_reevals += 1;
                // Stale upper bound: refresh against the current residuals
                // and re-queue. Capped contributions only shrink, so a
                // candidate that drops to zero is gone for good — exactly
                // the users the reference scan filters out.
                let capped = self.capped(top.position as usize, &workspace.residual, &options);
                if capped > CONTRIBUTION_TOLERANCE {
                    heap_push(
                        &mut workspace.heap,
                        HeapEntry {
                            capped,
                            version,
                            ..top
                        },
                    );
                }
                continue;
            }
            // Fresh bound at the top of the heap: `top` is the exact argmax
            // of the capped-contribution–cost ratio — select it.
            let position = top.position as usize;
            if record >= Record::Full {
                let residual = &workspace.residual;
                workspace.snapshots.extend_from_slice(residual);
            }
            if record >= Record::Iterations {
                workspace.capped.push(top.capped);
            }
            workspace.selection.push(position);
            workspace.winner_mask.insert(position);
            let span = self.offsets[position]..self.offsets[position + 1];
            let tasks = &self.entry_task[span.clone()];
            let qs: &[f64] = match options.substitute {
                Some((substituted, qs)) if substituted == position => qs,
                _ => &self.entry_q[span],
            };
            for (&task, &q) in tasks.iter().zip(qs) {
                let r = &mut workspace.residual[task as usize];
                let was_unmet = *r > CONTRIBUTION_TOLERANCE;
                *r = (*r - q).max(0.0);
                if was_unmet && *r <= CONTRIBUTION_TOLERANCE {
                    unmet -= 1;
                }
            }
            version += 1;
        }
        RunView {
            selection: &workspace.selection,
            capped: &workspace.capped,
            snapshots: &workspace.snapshots,
            stride: task_count,
            winner_mask: &workspace.winner_mask,
            uncovered,
        }
    }

    /// Decides a bisection probe **loss** without running the greedy.
    ///
    /// With `scaled` substituted at `position`, the probe's selection
    /// sequence equals the θ₋ᵢ `base` run's for as long as the probed user
    /// never beats the base's pick: at each step the base pick is the
    /// argmax over every *other* candidate, so the probe argmax is simply
    /// `max(base pick, probed user)` under the same strict [`beats`]
    /// order the heap maximizes, evaluated at the recorded residual
    /// snapshot. If she never wins a comparison (or her capped
    /// contribution falls to the tolerance, which is monotone in the
    /// shrinking residuals and drops her from candidacy for good), the
    /// probe replays the base run verbatim and she is never selected —
    /// the probe verdict is a loss, *exactly*, without assuming anything
    /// about the probe run's completeness. If she does win a comparison
    /// the caller must run the real probe: she would be selected there,
    /// and the runs diverge from that point on.
    ///
    /// Requires `base.is_complete()`: against an incomplete base the
    /// greedy would select her as a last resort once every rival is
    /// exhausted, which no prefix comparison can rule out.
    pub fn probe_loses(&self, position: usize, scaled: &[f64], base: &BaseRun) -> bool {
        debug_assert!(base.complete, "loss scan requires a complete base run");
        let span = self.offsets[position]..self.offsets[position + 1];
        let tasks = &self.entry_task[span];
        let cost = self.costs[position];
        let id = self.user_ids[position];
        for (step, (&rival, &rival_capped)) in base.selection.iter().zip(&base.capped).enumerate() {
            let residual = &base.snapshots[step * base.stride..(step + 1) * base.stride];
            let capped = capped_span(tasks, scaled, residual);
            if capped <= CONTRIBUTION_TOLERANCE {
                return true;
            }
            let probed = HeapEntry {
                capped,
                cost,
                id,
                position: position as u32,
                version: 0,
            };
            let pick = HeapEntry {
                capped: rival_capped,
                cost: self.costs[rival],
                id: self.user_ids[rival],
                position: rival as u32,
                version: 0,
            };
            if beats(&probed, &pick) {
                return false;
            }
        }
        true
    }
}

/// Flattens one user's `(task position, contribution)` row into `scratch`
/// in task publication order.
///
/// [`UserType::tasks`] iterates in ascending task-id order; when the
/// publication order agrees (the overwhelmingly common case — tasks are
/// published id-ascending), the row comes out already sorted and the sort
/// is skipped entirely.
fn flatten_row(
    user: &UserType,
    task_position: &BTreeMap<TaskId, u32>,
    scratch: &mut Vec<(u32, f64)>,
) {
    scratch.clear();
    scratch.extend(
        user.tasks()
            .map(|(task, pos)| (task_position[&task], pos.contribution().value())),
    );
    if !scratch.windows(2).all(|w| w[0].0 < w[1].0) {
        scratch.sort_unstable_by_key(|&(position, _)| position);
    }
}

/// The blocked capped-sum kernel: selects `min(q, Q̄)` per entry with a
/// branch-free compare the auto-vectorizer can lower to SIMD selects, but
/// adds the minima **strictly left to right** — the accumulation order
/// (and hence every rounded intermediate) is identical to the reference
/// scan's.
#[inline]
fn capped_span(tasks: &[u32], qs: &[f64], residual: &[f64]) -> f64 {
    const BLOCK: usize = 8; // one 64-byte cache line of f64 minima
    let len = tasks.len().min(qs.len());
    let mut sum = 0.0;
    let mut mins = [0.0f64; BLOCK];
    let mut i = 0;
    while i + BLOCK <= len {
        for k in 0..BLOCK {
            let q = qs[i + k];
            let r = residual[tasks[i + k] as usize];
            mins[k] = if q <= r { q } else { r };
        }
        for &m in &mins {
            sum += m;
        }
        i += BLOCK;
    }
    while i < len {
        let q = qs[i];
        let r = residual[tasks[i] as usize];
        sum += if q <= r { q } else { r };
        i += 1;
    }
    sum
}

/// Instance modifications for a greedy re-run, replacing the profile
/// clones the reference implementation builds per probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Run on `θ_{-i}`: the user at this position does not participate.
    pub excluded: Option<usize>,
    /// Override the contribution entries of the user at this position with
    /// the given slice (same length and task order as her stored entries).
    /// This is how bisection probes express a uniformly scaled declaration.
    pub substitute: Option<(usize, &'a [f64])>,
    /// Precomputed initial heap ([`IndexedProfile::heap_seeds`]); when
    /// set, the run skips the full candidate rescan. The seeds must have
    /// been built (or rebuilt) against the exact current index contents.
    pub seeds: Option<&'a HeapSeeds>,
}

/// How much bookkeeping a greedy run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Record {
    /// Selection order and the uncovered marker only — what a bisection
    /// probe needs.
    Selection,
    /// Additionally each iteration's capped contribution (Algorithm 5
    /// inspects these on the `θ_{-i}` re-run).
    Iterations,
    /// Additionally a residual snapshot per iteration — the full
    /// [`crate::multi_task::GreedyRun`] record.
    Full,
}

/// A borrowed view of a greedy run's outcome, entirely backed by the
/// [`Workspace`] it ran in — nothing here was allocated for this run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunView<'w> {
    /// Selected user positions, in selection order.
    pub selection: &'w [usize],
    /// Capped contribution per iteration ([`Record::Iterations`] and up).
    pub capped: &'w [f64],
    /// Residual snapshots, flattened row-major at [`RunView::stride`]
    /// floats per iteration ([`Record::Full`]).
    pub snapshots: &'w [f64],
    /// Row length of [`RunView::snapshots`] (the instance's task count).
    pub stride: usize,
    /// Bit per user position: set iff selected.
    pub winner_mask: &'w BitSet,
    /// First task position (publication order) left uncovered when the
    /// candidates ran out, if the instance was infeasible for them.
    pub uncovered: Option<usize>,
}

impl RunView<'_> {
    /// Whether every requirement was covered.
    pub fn is_complete(&self) -> bool {
        self.uncovered.is_none()
    }

    /// Whether the user at `position` was selected — one bit test.
    pub fn selected(&self, position: usize) -> bool {
        self.winner_mask.contains(position)
    }

    /// The residual snapshot at iteration start ([`Record::Full`] runs).
    pub fn snapshot(&self, iteration: usize) -> &[f64] {
        &self.snapshots[iteration * self.stride..(iteration + 1) * self.stride]
    }

    /// Copies the view into `base` (reusing its buffers) so a later run in
    /// the same workspace can compare against it — [`Record::Full`] runs
    /// only, since the loss scan needs every residual snapshot.
    pub fn store_into(&self, base: &mut BaseRun) {
        base.selection.clear();
        base.selection.extend_from_slice(self.selection);
        base.capped.clear();
        base.capped.extend_from_slice(self.capped);
        base.snapshots.clear();
        base.snapshots.extend_from_slice(self.snapshots);
        base.stride = self.stride;
        base.complete = self.is_complete();
    }
}

/// A completed greedy run copied out of its workspace — the θ₋ᵢ base run
/// that bisection probes compare against via
/// [`IndexedProfile::probe_loses`]. Buffers are reused across winners, so
/// the steady state stays allocation-free.
#[derive(Debug, Default)]
pub struct BaseRun {
    selection: Vec<usize>,
    capped: Vec<f64>,
    snapshots: Vec<f64>,
    stride: usize,
    complete: bool,
}

impl BaseRun {
    /// Marks the base unusable until the next [`RunView::store_into`].
    pub fn invalidate(&mut self) {
        self.complete = false;
    }

    /// Whether a complete run is stored — the loss scan's precondition.
    pub fn is_complete(&self) -> bool {
        self.complete
    }
}

/// Reusable scratch space for greedy runs: the residual vector, the heap,
/// and every run-output buffer, recycled across the hundreds of re-runs a
/// payment computation performs so the hot path never allocates.
#[derive(Debug, Default)]
pub struct Workspace {
    residual: Vec<f64>,
    heap: Vec<HeapEntry>,
    selection: Vec<usize>,
    capped: Vec<f64>,
    snapshots: Vec<f64>,
    winner_mask: BitSet,
    /// Scratch for bisection probes' scaled contribution rows.
    pub(crate) scaled: Vec<f64>,
    /// The θ₋ᵢ base run the payment probes' loss scan compares against.
    pub(crate) base: BaseRun,
    /// Kernel profiling counters accumulated by runs in this workspace;
    /// [`WorkspacePool::give_back`] folds them into the pool accumulator.
    pub(crate) prof: ProfCounters,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }
}

/// The precomputed initial heap of a full-requirements greedy run: every
/// candidate whose capped contribution clears the tolerance, in position
/// order, plus the position→slot map the per-probe patches use.
///
/// Built once per round ([`IndexedProfile::heap_seeds`]), consumed by
/// every probe via [`RunOptions::seeds`] — replacing an `O(Σ entries)`
/// capped rescan plus `n log n` sift-up pushes with a memcpy, at most two
/// slot patches, and an `O(n)` heapify.
#[derive(Debug, Clone, Default)]
pub struct HeapSeeds {
    entries: Vec<HeapEntry>,
    slot_of: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

impl HeapSeeds {
    /// Empty seeds; fill with [`IndexedProfile::rebuild_seeds`].
    pub fn new() -> Self {
        HeapSeeds::default()
    }

    fn slot(&self, position: usize) -> Option<usize> {
        match self.slot_of.get(position) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }

    /// How many candidates clear the tolerance at full requirements.
    pub fn candidate_count(&self) -> usize {
        self.entries.len()
    }
}

/// One candidate in the lazy-greedy heap: her capped contribution as of
/// `version`, which is an upper bound on the current value.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    capped: f64,
    cost: f64,
    id: UserId,
    position: u32,
    version: u32,
}

/// The strict total order the heap maximizes: the cross-multiplied ratio
/// comparison of the reference greedy (`a.capped/a.cost > b.capped/b.cost`
/// without dividing, so free users order correctly), ties broken by
/// smaller user id. Distinct users never compare equal — which is why the
/// pop order of a valid max-heap over these entries is independent of the
/// heap's internal layout.
fn beats(a: &HeapEntry, b: &HeapEntry) -> bool {
    let left = a.capped * b.cost;
    let right = b.capped * a.cost;
    match left.partial_cmp(&right).expect("finite ratio products") {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => a.id < b.id,
    }
}

fn heap_push(heap: &mut Vec<HeapEntry>, entry: HeapEntry) {
    heap.push(entry);
    let mut child = heap.len() - 1;
    while child > 0 {
        let parent = (child - 1) / 2;
        if beats(&heap[child], &heap[parent]) {
            heap.swap(child, parent);
            child = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [HeapEntry], mut parent: usize) {
    loop {
        let left = 2 * parent + 1;
        if left >= heap.len() {
            break;
        }
        let right = left + 1;
        let mut best = left;
        if right < heap.len() && beats(&heap[right], &heap[left]) {
            best = right;
        }
        if beats(&heap[best], &heap[parent]) {
            heap.swap(best, parent);
            parent = best;
        } else {
            break;
        }
    }
}

/// Floyd's bottom-up heap construction: `O(n)` versus `n` pushes'
/// `O(n log n)`, and bitwise-equivalent in effect because pop order
/// depends only on the entry *set* (see [`beats`]).
fn heapify(heap: &mut [HeapEntry]) {
    for parent in (0..heap.len() / 2).rev() {
        sift_down(heap, parent);
    }
}

fn heap_pop(heap: &mut Vec<HeapEntry>) -> Option<HeapEntry> {
    if heap.is_empty() {
        return None;
    }
    let last = heap.len() - 1;
    heap.swap(0, last);
    let top = heap.pop();
    sift_down(heap, 0);
    top
}

/// What [`IndexedProfile::sync_with`] did to bring the index up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// The profile was bitwise identical to the index; nothing changed.
    Unchanged,
    /// Rows, requirements, and/or appended users were patched in place.
    Patched,
    /// Shapes diverged (task list or retained-user prefix changed); the
    /// index was re-flattened from scratch into its existing buffers.
    Reflattened,
}

/// Change accounting from one [`IndexedProfile::sync_with`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// How the index was brought up to date.
    pub mode: SyncMode,
    /// Retained users whose cost, total, or contribution row changed.
    pub users_patched: usize,
    /// Users appended beyond the retained prefix.
    pub users_appended: usize,
    /// Task requirements whose value changed.
    pub requirements_patched: usize,
}

impl SyncStats {
    fn unchanged() -> Self {
        SyncStats {
            mode: SyncMode::Unchanged,
            users_patched: 0,
            users_appended: 0,
            requirements_patched: 0,
        }
    }

    fn reflattened() -> Self {
        SyncStats {
            mode: SyncMode::Reflattened,
            ..SyncStats::unchanged()
        }
    }
}

/// A free list of [`Workspace`]s shared by the payment fan-out threads of
/// one clearing context: threads check a workspace out at start and give
/// it back at the end, so steady-state rounds reuse grown buffers instead
/// of allocating a fresh workspace per thread per round.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<Workspace>>,
    /// Profiling counters folded out of returned workspaces, drained by
    /// [`ClearContext::take_prof`].
    prof: Mutex<ProfCounters>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// Takes a pooled workspace, or a fresh one if the pool is empty.
    pub fn checkout(&self) -> Workspace {
        self.free
            .lock()
            .expect("workspace pool mutex")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a workspace (and its grown buffers) to the pool, folding
    /// its profiling counters into the pool accumulator.
    pub fn give_back(&self, mut workspace: Workspace) {
        let counters = std::mem::take(&mut workspace.prof);
        self.prof
            .lock()
            .expect("workspace prof mutex")
            .merge(&counters);
        self.free
            .lock()
            .expect("workspace pool mutex")
            .push(workspace);
    }

    /// Drains (returns and zeroes) the accumulated profiling counters of
    /// every workspace returned so far.
    pub fn drain_prof(&self) -> ProfCounters {
        std::mem::take(&mut *self.prof.lock().expect("workspace prof mutex"))
    }

    /// How many workspaces are parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("workspace pool mutex").len()
    }
}

/// The per-round clearing arena: a persistent [`IndexedProfile`], its
/// [`HeapSeeds`], and a [`WorkspacePool`] — everything a round's
/// allocation and whole-round payment computation touch, kept alive
/// across rounds so the steady state performs no per-round rebuilds and
/// no per-probe allocations.
#[derive(Debug, Default)]
pub struct ClearContext {
    index: Option<IndexedProfile>,
    seeds: HeapSeeds,
    workspaces: WorkspacePool,
    /// Context-level profiling: prepare/sync/seed accounting; workspace
    /// counters merge in on [`ClearContext::take_prof`].
    prof: ProfCounters,
}

impl ClearContext {
    /// An empty context; the first [`ClearContext::prepare`] builds the
    /// index from scratch.
    pub fn new() -> Self {
        ClearContext::default()
    }

    /// Brings the context up to date with `profile` — delta-patching the
    /// persistent index where possible, re-flattening otherwise, and
    /// rebuilding the heap seeds iff anything changed — and hands out the
    /// borrows a clearing needs.
    pub fn prepare(&mut self, profile: &TypeProfile) -> PreparedRound<'_> {
        let sync = match self.index.as_mut() {
            Some(index) => index.sync_with(profile),
            None => {
                self.index = Some(IndexedProfile::from_profile(profile));
                SyncStats::reflattened()
            }
        };
        let index = self.index.as_ref().expect("index just ensured");
        if sync.mode != SyncMode::Unchanged {
            index.rebuild_seeds(&mut self.seeds);
            self.prof.seed_rebuilds += 1;
        }
        self.prof.prepares += 1;
        match sync.mode {
            SyncMode::Unchanged => self.prof.reuse_hits += 1,
            SyncMode::Patched => self.prof.sync_patched += 1,
            SyncMode::Reflattened => self.prof.sync_reflattened += 1,
        }
        self.prof.users_patched += sync.users_patched as u64;
        self.prof.users_appended += sync.users_appended as u64;
        self.prof.resident_bytes = (index.resident_bytes()
            + self.seeds.entries.capacity() * size_of::<HeapEntry>()
            + self.seeds.slot_of.capacity() * size_of::<u32>())
            as u64;
        PreparedRound {
            index,
            seeds: &self.seeds,
            workspaces: &self.workspaces,
            sync,
        }
    }

    /// The persistent index, if a round has been prepared.
    pub fn index(&self) -> Option<&IndexedProfile> {
        self.index.as_ref()
    }

    /// Drains (returns and zeroes) every profiling counter this context
    /// accumulated: its own prepare/sync accounting plus the counters of
    /// every workspace returned to its pool. Requires all checked-out
    /// workspaces to have been given back — counters still held by a
    /// live workspace are simply not in this drain yet.
    pub fn take_prof(&mut self) -> ProfCounters {
        let mut counters = std::mem::take(&mut self.prof);
        counters.merge(&self.workspaces.drain_prof());
        counters
    }
}

/// Borrows of a [`ClearContext`] synced to one round's profile.
#[derive(Debug)]
pub struct PreparedRound<'a> {
    /// The up-to-date dense index.
    pub index: &'a IndexedProfile,
    /// Heap seeds matching the index ([`RunOptions::seeds`]).
    pub seeds: &'a HeapSeeds,
    /// The context's workspace free list.
    pub workspaces: &'a WorkspacePool,
    /// What syncing did (telemetry: patched vs reflattened).
    pub sync: SyncStats,
}

/// A shared free list of [`ClearContext`]s. Shard workers and campaign
/// rounds check a context out, clear with it, and give it back — so a
/// population that re-bids round over round keeps hitting the same
/// delta-patched index instead of re-flattening a million rows.
///
/// Cloning the pool clones the *handle*; all clones drain and refill the
/// same free list.
#[derive(Debug, Clone, Default)]
pub struct ContextPool {
    free: Arc<Mutex<Vec<ClearContext>>>,
}

impl ContextPool {
    /// An empty pool.
    pub fn new() -> Self {
        ContextPool::default()
    }

    /// Takes a pooled context, or a fresh one if the pool is empty.
    pub fn checkout(&self) -> ClearContext {
        self.free
            .lock()
            .expect("context pool mutex")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a context (and its persistent index) to the pool.
    pub fn give_back(&self, context: ClearContext) {
        self.free.lock().expect("context pool mutex").push(context);
    }

    /// How many contexts are parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("context pool mutex").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cost, Pos, Task, UserType};

    fn profile(users: &[(f64, &[(u32, f64)])], tasks: &[(u32, f64)]) -> TypeProfile {
        let tasks = tasks
            .iter()
            .map(|&(id, req)| Task::with_requirement(TaskId::new(id), req).unwrap())
            .collect();
        let users = users
            .iter()
            .enumerate()
            .map(|(i, &(cost, entries))| {
                let mut b = UserType::builder(UserId::new(i as u32)).cost(Cost::new(cost).unwrap());
                for &(t, p) in entries {
                    b = b.task(TaskId::new(t), Pos::new(p).unwrap());
                }
                b.build().unwrap()
            })
            .collect();
        TypeProfile::new(users, tasks).unwrap()
    }

    #[test]
    fn heap_is_a_max_heap_under_the_ratio_order() {
        let mut heap = Vec::new();
        for (i, (capped, cost)) in [(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (3.0, 1.0)]
            .into_iter()
            .enumerate()
        {
            heap_push(
                &mut heap,
                HeapEntry {
                    capped,
                    cost,
                    id: UserId::new(i as u32),
                    position: i as u32,
                    version: 0,
                },
            );
        }
        // Ratios: 0.5, 3.0, 1.0, 3.0 — the tie at 3.0 breaks to user 1.
        let order: Vec<u32> = std::iter::from_fn(|| heap_pop(&mut heap))
            .map(|e| e.position)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn heapified_and_pushed_heaps_pop_identically() {
        // The strict total order makes pop order a function of the entry
        // set alone — Floyd heapify and n× sift-up pushes must agree.
        let entries: Vec<HeapEntry> = (0..64)
            .map(|i| HeapEntry {
                capped: ((i * 37) % 13) as f64 * 0.25 + 0.5,
                cost: ((i * 11) % 7) as f64 + 1.0,
                id: UserId::new(i),
                position: i,
                version: 0,
            })
            .collect();
        let mut pushed = Vec::new();
        for &entry in &entries {
            heap_push(&mut pushed, entry);
        }
        let mut floyd = entries.clone();
        heapify(&mut floyd);
        let pop_all = |heap: &mut Vec<HeapEntry>| {
            std::iter::from_fn(|| heap_pop(heap))
                .map(|e| (e.position, e.capped.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pop_all(&mut pushed), pop_all(&mut floyd));
    }

    #[test]
    fn bitset_insert_contains_reset() {
        let mut mask = BitSet::new();
        mask.reset(130);
        assert_eq!(mask.len(), 130);
        for i in [0, 63, 64, 129] {
            assert!(!mask.contains(i));
            mask.insert(i);
            assert!(mask.contains(i));
        }
        assert_eq!(mask.count(), 4);
        assert!(!mask.contains(1000)); // out of range is just false
        mask.reset(10);
        assert_eq!(mask.count(), 0);
        assert!(!mask.contains(0));
    }

    #[test]
    fn indexing_preserves_orders_and_values() {
        // Task ids published out of numeric order: publication order must
        // win over id order for entries, while totals follow the user's
        // own (id-ordered) sum.
        let p = profile(
            &[(2.0, &[(7, 0.5), (1, 0.3)]), (1.0, &[(1, 0.4)])],
            &[(7, 0.6), (1, 0.5)],
        );
        let indexed = IndexedProfile::from_profile(&p);
        assert_eq!(indexed.user_count(), 2);
        assert_eq!(indexed.task_count(), 2);
        assert_eq!(indexed.task_id(0), TaskId::new(7));
        assert_eq!(indexed.position_of(UserId::new(1)), Some(1));
        assert_eq!(indexed.position_of(UserId::new(9)), None);
        // User 0's entries in publication order: task 7 first. Her tasks
        // iterate id-ascending (1 then 7), so this exercises the
        // out-of-order sort path of `flatten_row`.
        assert_eq!(indexed.entry_task[0..2], [0, 1]);
        let q7 = Pos::new(0.5).unwrap().contribution().value();
        assert_eq!(indexed.entry_q[0], q7);
        let expected_total = p.user(UserId::new(0)).unwrap().total_contribution().value();
        assert_eq!(indexed.total(0), expected_total);
    }

    #[test]
    fn position_of_searches_declaration_order_ids() {
        // Users declared in non-ascending id order force the sorted
        // permutation fallback; positions still follow declaration order.
        let users = vec![
            UserType::builder(UserId::new(5))
                .cost(Cost::new(1.0).unwrap())
                .task(TaskId::new(0), Pos::new(0.5).unwrap())
                .build()
                .unwrap(),
            UserType::builder(UserId::new(0))
                .cost(Cost::new(1.0).unwrap())
                .task(TaskId::new(0), Pos::new(0.5).unwrap())
                .build()
                .unwrap(),
            UserType::builder(UserId::new(3))
                .cost(Cost::new(1.0).unwrap())
                .task(TaskId::new(0), Pos::new(0.5).unwrap())
                .build()
                .unwrap(),
        ];
        let tasks = vec![Task::with_requirement(TaskId::new(0), 0.4).unwrap()];
        let p = TypeProfile::new(users, tasks).unwrap();
        let indexed = IndexedProfile::from_profile(&p);
        assert!(!indexed.ids_sorted);
        assert_eq!(indexed.position_of(UserId::new(5)), Some(0));
        assert_eq!(indexed.position_of(UserId::new(0)), Some(1));
        assert_eq!(indexed.position_of(UserId::new(3)), Some(2));
        assert_eq!(indexed.position_of(UserId::new(4)), None);
    }

    #[test]
    fn excluded_user_never_wins() {
        let p = profile(&[(1.0, &[(0, 0.6)]), (5.0, &[(0, 0.6)])], &[(0, 0.5)]);
        let indexed = IndexedProfile::from_profile(&p);
        let (mut ws, mut ws_without) = (Workspace::new(), Workspace::new());
        let run = indexed.run_in(&mut ws, RunOptions::default(), Record::Selection);
        assert_eq!(run.selection, [0]);
        assert!(run.selected(0));
        assert!(!run.selected(1));
        let without = indexed.run_in(
            &mut ws_without,
            RunOptions {
                excluded: Some(0),
                ..RunOptions::default()
            },
            Record::Selection,
        );
        assert_eq!(without.selection, [1]);
        assert!(without.is_complete());
    }

    #[test]
    fn infeasible_run_reports_first_uncovered_task_position() {
        let p = profile(&[(1.0, &[(0, 0.9)])], &[(0, 0.5), (1, 0.5)]);
        let indexed = IndexedProfile::from_profile(&p);
        let mut ws = Workspace::new();
        let run = indexed.run_in(&mut ws, RunOptions::default(), Record::Full);
        assert_eq!(run.uncovered, Some(1));
        assert_eq!(run.selection, [0]);
        // One snapshot row of `stride` (= two tasks) residuals.
        assert_eq!(run.stride, 2);
        assert_eq!(run.snapshots.len(), run.stride);
    }

    #[test]
    fn seeded_runs_match_scanned_runs_bitwise() {
        let p = profile(
            &[
                (2.0, &[(0, 0.3), (1, 0.4)]),
                (1.5, &[(0, 0.2), (2, 0.3)]),
                (3.0, &[(1, 0.5), (2, 0.5)]),
                (1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
                (2.5, &[(0, 0.4), (2, 0.4)]),
            ],
            &[(0, 0.5), (1, 0.6), (2, 0.55)],
        );
        let indexed = IndexedProfile::from_profile(&p);
        let seeds = indexed.heap_seeds();
        let (mut ws, mut ws_seeded) = (Workspace::new(), Workspace::new());
        let mut compare = |options: RunOptions<'_>, seeded: RunOptions<'_>| {
            let plain = indexed.run_in(&mut ws, options, Record::Full);
            let fast = indexed.run_in(&mut ws_seeded, seeded, Record::Full);
            assert_eq!(plain, fast);
            for (a, b) in plain.capped.iter().zip(fast.capped) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        };
        compare(
            RunOptions::default(),
            RunOptions {
                seeds: Some(&seeds),
                ..RunOptions::default()
            },
        );
        for excluded in 0..indexed.user_count() {
            compare(
                RunOptions {
                    excluded: Some(excluded),
                    ..RunOptions::default()
                },
                RunOptions {
                    excluded: Some(excluded),
                    seeds: Some(&seeds),
                    ..RunOptions::default()
                },
            );
        }
        for position in 0..indexed.user_count() {
            for scale in [0.0, 0.05, 0.5, 1.0] {
                let scaled: Vec<f64> = indexed
                    .contributions_of(position)
                    .iter()
                    .map(|&q| q * scale)
                    .collect();
                compare(
                    RunOptions {
                        substitute: Some((position, &scaled)),
                        ..RunOptions::default()
                    },
                    RunOptions {
                        substitute: Some((position, &scaled)),
                        seeds: Some(&seeds),
                        ..RunOptions::default()
                    },
                );
            }
        }
        // Exclusion + substitution of *different* users combined.
        let scaled: Vec<f64> = indexed
            .contributions_of(2)
            .iter()
            .map(|&q| q * 0.4)
            .collect();
        compare(
            RunOptions {
                excluded: Some(4),
                substitute: Some((2, &scaled)),
                ..RunOptions::default()
            },
            RunOptions {
                excluded: Some(4),
                substitute: Some((2, &scaled)),
                seeds: Some(&seeds),
            },
        );
    }

    #[test]
    fn sync_patches_rows_and_requirements_in_place() {
        let base = profile(
            &[(2.0, &[(0, 0.3), (1, 0.4)]), (1.5, &[(0, 0.2)])],
            &[(0, 0.5), (1, 0.6)],
        );
        let mut indexed = IndexedProfile::from_profile(&base);

        // Same profile again: untouched.
        let stats = indexed.sync_with(&base);
        assert_eq!(stats.mode, SyncMode::Unchanged);

        // One user's PoS changes: a row patch, bitwise equal to a rebuild.
        let changed = base
            .with_user_type(
                base.user(UserId::new(1))
                    .unwrap()
                    .with_pos(TaskId::new(0), Pos::new(0.25).unwrap())
                    .unwrap(),
            )
            .unwrap();
        let stats = indexed.sync_with(&changed);
        assert_eq!(stats.mode, SyncMode::Patched);
        assert_eq!(stats.users_patched, 1);
        assert_eq!(indexed, IndexedProfile::from_profile(&changed));

        // A task-set shape change on user 0 splices her row.
        let reshaped = changed
            .with_user_type(
                UserType::builder(UserId::new(0))
                    .cost(Cost::new(2.0).unwrap())
                    .task(TaskId::new(1), Pos::new(0.4).unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let stats = indexed.sync_with(&reshaped);
        assert_eq!(stats.mode, SyncMode::Patched);
        assert_eq!(indexed, IndexedProfile::from_profile(&reshaped));

        // A different task list forces a reflatten.
        let shrunk = profile(&[(2.0, &[(0, 0.3)]), (1.5, &[(0, 0.2)])], &[(0, 0.5)]);
        let stats = indexed.sync_with(&shrunk);
        assert_eq!(stats.mode, SyncMode::Reflattened);
        assert_eq!(indexed, IndexedProfile::from_profile(&shrunk));
    }

    #[test]
    fn context_pool_round_trips_contexts() {
        let pool = ContextPool::new();
        let p = profile(&[(1.0, &[(0, 0.6)])], &[(0, 0.5)]);
        let mut context = pool.checkout();
        {
            let prepared = context.prepare(&p);
            assert_eq!(prepared.sync.mode, SyncMode::Reflattened);
            let mut ws = prepared.workspaces.checkout();
            let run = prepared.index.run_in(
                &mut ws,
                RunOptions {
                    seeds: Some(prepared.seeds),
                    ..RunOptions::default()
                },
                Record::Selection,
            );
            assert!(run.is_complete());
            assert!(run.selected(0));
            prepared.workspaces.give_back(ws);
        }
        // Second prepare against the same profile: unchanged, no rebuild.
        assert_eq!(context.prepare(&p).sync.mode, SyncMode::Unchanged);
        pool.give_back(context);
        assert_eq!(pool.idle(), 1);
        let again = pool.checkout();
        assert!(again.index().is_some());
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn prof_counters_account_for_prepares_and_pops() {
        let p = profile(&[(1.0, &[(0, 0.6)]), (2.0, &[(0, 0.5)])], &[(0, 0.5)]);
        let mut context = ClearContext::new();
        {
            let prepared = context.prepare(&p);
            let mut ws = prepared.workspaces.checkout();
            let run = prepared.index.run_in(
                &mut ws,
                RunOptions {
                    seeds: Some(prepared.seeds),
                    ..RunOptions::default()
                },
                Record::Selection,
            );
            assert!(run.is_complete());
            prepared.workspaces.give_back(ws);
        }
        context.prepare(&p); // unchanged: a reuse hit
        let prof = context.take_prof();
        assert_eq!(prof.prepares, 2);
        assert_eq!(prof.reuse_hits, 1);
        assert_eq!(prof.sync_reflattened, 1);
        assert_eq!(prof.seed_rebuilds, 1);
        assert!(prof.heap_pops >= 1);
        assert!(prof.resident_bytes > 0);
        assert!(prof.is_conserved(), "{prof:?}");
        // Drained: a second take starts from zero.
        assert_eq!(context.take_prof(), ProfCounters::default());
    }

    #[test]
    fn prof_counters_merge_sums_and_keeps_latest_gauge() {
        let mut a = ProfCounters {
            prepares: 1,
            reuse_hits: 1,
            resident_bytes: 64,
            heap_pops: 3,
            ..ProfCounters::default()
        };
        let b = ProfCounters {
            prepares: 2,
            sync_patched: 2,
            resident_bytes: 128,
            heap_pops: 5,
            stale_reevals: 1,
            probes_requested: 4,
            probes_run: 1,
            probes_saved_warm_start: 2,
            probes_saved_loss_scan: 1,
            ..ProfCounters::default()
        };
        assert!(b.is_conserved());
        a.merge(&b);
        assert_eq!(a.prepares, 3);
        assert_eq!(a.heap_pops, 8);
        assert_eq!(a.resident_bytes, 128);
        assert_eq!(a.probes_saved(), 3);
        assert!(a.is_conserved(), "{a:?}");
        // A zero gauge never clobbers the latest value.
        a.merge(&ProfCounters::default());
        assert_eq!(a.resident_bytes, 128);
    }
}
