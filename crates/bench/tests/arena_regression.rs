//! Pinned-seed regression for the arena path at n = 10k: one synthetic
//! 50-task instance cleared end to end (allocation + whole-round
//! payments) through a persistent [`ClearContext`], digested with FNV-1a
//! and pinned. A change to the engine's float evaluation order, heap
//! tie-breaking, or delta-patch logic shows up here as a digest mismatch
//! long before it would surface in a campaign.

use mcs_bench::synthetic_multi_task;
use mcs_core::indexed::ClearContext;
use mcs_core::multi_task::MultiTaskMechanism;
use mcs_core::types::TypeProfile;
use mcs_obs::Fnv;

const N: usize = 10_000;
const TASKS: usize = 50;
const SEED: u64 = 4242;

/// Clears `profile` on `context` and digests `(winner id, critical PoS
/// bits)` in id order.
fn clear_digest(
    mechanism: &MultiTaskMechanism,
    context: &mut ClearContext,
    profile: &TypeProfile,
) -> (usize, u64) {
    let allocation = mechanism
        .allocate_with(context, profile)
        .expect("instance is feasible");
    let criticals = mechanism
        .critical_pos_all_with(context, profile, &allocation)
        .expect("winners have critical bids");
    let mut fnv = Fnv::new();
    for (user, pos) in &criticals {
        fnv.write_u64(user.index() as u64);
        fnv.write_u64(pos.value().to_bits());
    }
    (criticals.len(), fnv.finish())
}

#[test]
fn arena_clear_at_ten_thousand_users_is_pinned() {
    let profile = synthetic_multi_task(N, TASKS, 0.8, SEED);
    let mechanism = MultiTaskMechanism::new(10.0).expect("valid alpha");

    // Round 1: cold arena (first prepare flattens the profile).
    let mut context = ClearContext::new();
    let (winners, digest) = clear_digest(&mechanism, &mut context, &profile);

    // The pinned values. If an intentional engine change moves them,
    // re-pin — but only after explaining why the floats moved.
    assert_eq!(winners, 11, "winner count moved at n = {N}");
    assert_eq!(
        digest, 0xf9b6_1a94_7820_aedb,
        "critical-bid digest moved at n = {N}"
    );

    // Round 2: the same population re-published at a lower requirement —
    // the residual re-auction shape. The persistent arena delta-patches;
    // a fresh context is the oracle.
    let relaxed = synthetic_multi_task(N, TASKS, 0.75, SEED);
    let warm = clear_digest(&mechanism, &mut context, &relaxed);
    let fresh = clear_digest(&mechanism, &mut ClearContext::new(), &relaxed);
    assert_eq!(warm, fresh, "delta-patched round diverged from rebuild");
}
