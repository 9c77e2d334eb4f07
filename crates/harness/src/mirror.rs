//! The engine-vs-mirror drive loop every harness driver shares.
//!
//! The engine never exposes the declared profile of a round it cleared,
//! and batch faults (delayed ticks) can split a logical round across
//! engine rounds. So a [`MirroredEngine`] runs a *mirror* [`Batcher`]
//! with the engine's policy and a mirror [`AdmissionController`] with
//! its admission config, fed the exact same submissions, ticks and
//! flushes. Batching, admission and validation are deterministic, so the
//! mirror closes bitwise-identical rounds with identical ids. That gives
//! the driver a per-round [`TypeProfile`] to hand the oracles, and an
//! independent prediction of which bids the engine must shed or reject.
//!
//! Every engine/mirror disagreement is a violation:
//! [`OracleViolation::ShedUnaccounted`] when the two sides shed
//! differently or the engine's bid counters drift from the mirror's
//! tally, and [`OracleViolation::StreamDesync`] for any other split.
//! Every newly cleared round is checked by [`check_round`] (on the
//! admitted prefix when the clearing budget cut it short) and, while the
//! flight recorder has not wrapped, by [`check_round_trace`]; every
//! quarantined round needs a complete post-mortem. [`MirroredEngine::finish`]
//! closes the books: the next round ids must agree, every mirrored round
//! must have cleared or been quarantined, and the ledger must equal the
//! summed settlements in total and per user.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcs_core::types::{Task, TypeProfile, UserId};
use mcs_obs::{Fnv, PostMortem};
use mcs_platform::admission::{Admission, AdmissionController};
use mcs_platform::batch::{Batcher, Round, RoundId};
use mcs_platform::config::EngineConfig;
use mcs_platform::degrade::{QuarantinedRound, RoundError};
use mcs_platform::engine::Engine;
use mcs_platform::fault::FaultInjector;
use mcs_platform::ingest::Bid;
use mcs_platform::settle::RoundSettlement;
use mcs_platform::shard::ClearedRound;

use crate::oracle::{check_round, check_round_trace, OracleConfig, OracleViolation};

/// What happened to one submitted bid.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Submitted {
    /// Admitted on both sides; carries the round the bid closed, if any.
    Admitted(Option<RoundId>),
    /// Rejected or shed identically on both sides (and counted), or the
    /// two sides disagreed (and a violation was recorded).
    Refused,
}

/// Bids counted by outcome. Every submitted bid is exactly one of
/// admitted, rejected or shed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BidTally {
    pub(crate) submitted: u64,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) shed: u64,
}

/// Everything a mirrored drive produced, accumulated across rebuilds.
#[derive(Debug)]
pub(crate) struct Mirrored {
    /// The final engine incarnation, for the driver's own checks.
    pub(crate) engine: Engine,
    /// Every cleared round, keyed by engine round id.
    pub(crate) results: BTreeMap<RoundId, ClearedRound>,
    /// Every settlement, keyed by engine round id.
    pub(crate) settlements: BTreeMap<RoundId, RoundSettlement>,
    /// Every quarantine record, in settlement order.
    pub(crate) quarantine: Vec<QuarantinedRound>,
    /// Every post-mortem, in settlement order.
    pub(crate) post_mortems: Vec<PostMortem>,
    /// Every violation, in detection order.
    pub(crate) violations: Vec<OracleViolation>,
    /// Bid outcomes over every incarnation.
    pub(crate) bids: BidTally,
    /// Rounds cleared only up to the clearing budget.
    pub(crate) partial_rounds: u64,
    /// Bidders deferred by those partial clears.
    pub(crate) deferred: u64,
    /// The deepest engine backlog seen after any submission.
    pub(crate) max_backlog: usize,
    /// Rounds the mirror closed.
    pub(crate) rounds_closed: u64,
}

/// An [`Engine`] driven in lockstep with its mirror batcher and mirror
/// admission controller (see the module docs).
#[derive(Debug)]
pub(crate) struct MirroredEngine {
    out: Mirrored,
    tasks: Vec<Task>,
    injector: Arc<dyn FaultInjector>,
    oracle: OracleConfig,
    batcher: Batcher,
    admission: AdmissionController,
    /// Bids in rounds the mirror closed that the engine has not drained
    /// yet: the mirror side of `Engine::backlog_bids`.
    backlog: usize,
    /// The declared profile of every round the mirror closed.
    profiles: BTreeMap<RoundId, TypeProfile>,
    /// This incarnation's bid outcomes; a restored engine starts fresh
    /// metrics, so this resets on rebuild.
    tally: BidTally,
    absorbed_quarantine: usize,
    absorbed_post_mortems: usize,
}

impl MirroredEngine {
    /// A fresh engine and mirror over `tasks`.
    pub(crate) fn new(
        config: EngineConfig,
        tasks: Vec<Task>,
        injector: Arc<dyn FaultInjector>,
        oracle: OracleConfig,
    ) -> Self {
        MirroredEngine {
            out: Mirrored {
                engine: Engine::with_injector(config, tasks.clone(), injector.clone()),
                results: BTreeMap::new(),
                settlements: BTreeMap::new(),
                quarantine: Vec::new(),
                post_mortems: Vec::new(),
                violations: Vec::new(),
                bids: BidTally::default(),
                partial_rounds: 0,
                deferred: 0,
                max_backlog: 0,
                rounds_closed: 0,
            },
            batcher: Batcher::new(config.batch, tasks.clone()),
            admission: AdmissionController::new(config.admission),
            tasks,
            injector,
            oracle,
            backlog: 0,
            profiles: BTreeMap::new(),
            tally: BidTally::default(),
            absorbed_quarantine: 0,
            absorbed_post_mortems: 0,
        }
    }

    /// Submits `bid` to both sides and classifies the pair of answers.
    /// `round` is the driver's logical round, used only in messages.
    pub(crate) fn submit(&mut self, bid: &Bid, round: u64) -> Submitted {
        self.tally.submitted += 1;
        // The mirror controller decides first, on the mirror-side
        // backlog; the engine must agree.
        let (_, predicted) = self
            .admission
            .admit(self.batcher.pending_bids() + self.backlog);
        let engine_side = self.out.engine.submit(bid);
        self.out.max_backlog = self.out.max_backlog.max(self.out.engine.backlog_bids());
        if let Admission::Shed(reason) = predicted {
            // A shed bid never reaches the mirror batcher.
            if let Ok(Admission::Shed(_)) = engine_side {
                self.tally.shed += 1;
                return Submitted::Refused;
            }
            return self.diverged(OracleViolation::ShedUnaccounted {
                detail: format!(
                    "round {round} user u{}: mirror shed ({reason}) but engine returned \
                     {engine_side:?}",
                    bid.user
                ),
            });
        }
        let mirror_side = self.batcher.submit(bid);
        match (engine_side, mirror_side) {
            (Ok(Admission::Admitted), Ok(closed)) => {
                self.tally.admitted += 1;
                Submitted::Admitted(closed.map(|closed| self.closed(closed)))
            }
            // Compare rejections by rendered message, not PartialEq: a
            // NaN-cost rejection carries the NaN in its payload, and
            // NaN != NaN.
            (Err(engine_error), Err(mirror_error))
                if engine_error.to_string() == mirror_error.to_string() =>
            {
                self.tally.rejected += 1;
                Submitted::Refused
            }
            (Ok(Admission::Shed(reason)), _) => self.diverged(OracleViolation::ShedUnaccounted {
                detail: format!(
                    "round {round} user u{}: engine shed ({reason}) a bid the mirror \
                     admitted",
                    bid.user
                ),
            }),
            (engine_side, mirror_side) => self.diverged(OracleViolation::StreamDesync {
                detail: format!(
                    "round {round} user u{}: engine {engine_side:?} vs mirror {:?}",
                    bid.user,
                    mirror_side.map(|closed| closed.map(|closed| closed.id))
                ),
            }),
        }
    }

    /// Advances the batch clock on both sides; returns the round the
    /// mirror closed, if any.
    pub(crate) fn tick(&mut self) -> Option<RoundId> {
        self.out.engine.tick();
        self.batcher.tick().map(|round| self.closed(round))
    }

    /// Closes the partially filled round on both sides; returns its id.
    pub(crate) fn flush(&mut self) -> Option<RoundId> {
        self.out.engine.flush();
        self.batcher.flush().map(|round| self.closed(round))
    }

    /// Drains the engine and oracle-checks everything it produced since
    /// the last drain.
    pub(crate) fn drain(&mut self) {
        self.out.engine.drain();
        self.backlog = 0;
        self.absorb();
    }

    /// Closes this incarnation's books, then replaces the engine with one
    /// restored from its checkpoint. The mirror batcher carries on (a
    /// checkpoint keeps the round-id sequence); the mirror admission
    /// controller starts fresh, as the restored engine's does. Call it
    /// right after a flush and a drain: a checkpoint holds neither
    /// pending rounds nor a partially filled batch.
    pub(crate) fn rebuild(&mut self) {
        self.close_incarnation();
        let engine = &self.out.engine;
        let config = *engine.config();
        self.out.engine = Engine::restore(
            config,
            self.tasks.clone(),
            engine.checkpoint(),
            self.injector.clone(),
        );
        self.admission = AdmissionController::new(config.admission);
        self.absorbed_quarantine = 0;
        self.absorbed_post_mortems = 0;
    }

    /// Runs the end-of-drive checks and hands back the accumulated
    /// outcome. Anything still pending is not drained: flush and drain
    /// first.
    pub(crate) fn finish(mut self) -> Mirrored {
        self.close_incarnation();
        let out = &mut self.out;

        // Stream synchronisation: after identical drive sequences the
        // engine and the mirror must agree on the next round id.
        let engine_next = out.engine.next_round_id().0;
        if engine_next != self.batcher.next_round_id() {
            out.violations.push(OracleViolation::StreamDesync {
                detail: format!(
                    "engine next round id {engine_next} != mirror {}",
                    self.batcher.next_round_id()
                ),
            });
        }

        // Zero silent drops: every round the mirror closed must have
        // been cleared or quarantined, in any incarnation.
        for &id in self.profiles.keys() {
            let cleared = out.results.contains_key(&id);
            let quarantined = out.quarantine.iter().any(|q| q.id == id);
            if !cleared && !quarantined {
                out.violations
                    .push(OracleViolation::SilentDrop { round: id });
            }
        }

        // Ledger conservation: balances equal summed payouts, in total
        // and per user, across every rebuild.
        let ledger = out.engine.ledger();
        let mut expected: BTreeMap<UserId, f64> = BTreeMap::new();
        let mut expected_total = 0.0;
        for settlement in out.settlements.values() {
            for (&user, &payout) in &settlement.payouts {
                *expected.entry(user).or_insert(0.0) += payout;
            }
            expected_total += settlement.total;
        }
        if (ledger.total_paid() - expected_total).abs() > 1e-9 {
            out.violations.push(OracleViolation::LedgerDrift {
                detail: format!(
                    "ledger total {} != summed settlements {expected_total}",
                    ledger.total_paid()
                ),
            });
        }
        if ledger.balances().keys().ne(expected.keys()) {
            out.violations.push(OracleViolation::LedgerDrift {
                detail: "ledger and settlements pay different user sets".to_string(),
            });
        }
        for (&user, &sum) in &expected {
            if (ledger.balance(user) - sum).abs() > 1e-9 {
                out.violations.push(OracleViolation::LedgerDrift {
                    detail: format!(
                        "{user}: balance {} != summed payouts {sum}",
                        ledger.balance(user)
                    ),
                });
            }
        }
        self.out
    }

    fn diverged(&mut self, violation: OracleViolation) -> Submitted {
        self.out.violations.push(violation);
        Submitted::Refused
    }

    /// Records a round the mirror closed.
    fn closed(&mut self, round: Round) -> RoundId {
        self.backlog += round.profile.user_count();
        self.out.rounds_closed += 1;
        self.profiles.insert(round.id, round.profile);
        round.id
    }

    /// The `ShedUnaccounted` conservation oracle: every bid this
    /// incarnation received is exactly one of admitted / rejected /
    /// shed, and the engine's own counters agree with the mirror's
    /// tally. Folds the tally into the lifetime counts.
    fn close_incarnation(&mut self) {
        let tally = std::mem::take(&mut self.tally);
        let snapshot = self.out.engine.metrics().snapshot();
        let checks = [
            ("bids_received", snapshot.bids_received, tally.submitted),
            ("bids_rejected", snapshot.bids_rejected, tally.rejected),
            ("bids_shed", snapshot.bids_shed, tally.shed),
            (
                "admitted + rejected + shed",
                tally.admitted + tally.rejected + tally.shed,
                tally.submitted,
            ),
        ];
        for (what, observed, expected) in checks {
            if observed != expected {
                self.out.violations.push(OracleViolation::ShedUnaccounted {
                    detail: format!("{what}: observed {observed}, expected {expected}"),
                });
            }
        }
        let bids = &mut self.out.bids;
        bids.submitted += tally.submitted;
        bids.admitted += tally.admitted;
        bids.rejected += tally.rejected;
        bids.shed += tally.shed;
    }

    /// Copies everything the engine produced since the last absorption
    /// into the accumulators, oracle-checking each newly cleared round's
    /// results *and* its flight-recorder trace, and requiring a complete
    /// post-mortem for each newly quarantined round.
    fn absorb(&mut self) {
        let out = &mut self.out;
        let engine = &out.engine;
        let engine_config = engine.config();
        let recorder = engine.recorder();
        // A lapped ring legitimately loses old events; drivers size the
        // ring to never wrap, so a wrap only disables the trace oracle,
        // it is not itself a violation.
        let trace_intact = recorder.capacity() > 0 && !recorder.wrapped();
        for (&id, round) in engine.results() {
            if out.results.contains_key(&id) {
                continue;
            }
            let settlement = &engine.settlements()[&id];
            match self.profiles.get(&id) {
                Some(profile) => {
                    // A round over the clearing budget cleared only its
                    // admitted prefix; the oracle must replay exactly
                    // that prefix. The trace still documents the whole
                    // round.
                    let budget = engine_config.admission.clear_budget;
                    let full_count = profile.user_count();
                    let prefix;
                    let checked = if budget > 0 && full_count > budget {
                        prefix = TypeProfile::new(
                            profile.users()[..budget].to_vec(),
                            profile.tasks().to_vec(),
                        )
                        .expect("a prefix of a valid profile is a valid profile");
                        let deferred = full_count - budget;
                        let accounted = engine.quarantine().iter().any(|q| {
                            q.id == id
                                && q.bidders == deferred
                                && matches!(q.error, RoundError::DeadlineExceeded {
                                    budget: b, cleared, deferred: d,
                                } if b == budget && cleared == budget && d == deferred)
                        });
                        if !accounted {
                            out.violations.push(OracleViolation::ShedUnaccounted {
                                detail: format!(
                                    "{id}: cleared {budget} of {full_count} bidders but the \
                                     {deferred} deferred are not quarantined as \
                                     DeadlineExceeded"
                                ),
                            });
                        }
                        &prefix
                    } else {
                        profile
                    };
                    out.violations.extend(check_round(
                        &self.oracle,
                        checked,
                        round,
                        settlement,
                        engine_config,
                    ));
                    if trace_intact {
                        out.violations.extend(check_round_trace(
                            id,
                            &recorder.round_trace(id.0),
                            full_count,
                            round.allocation.winner_count(),
                        ));
                    }
                }
                None => out.violations.push(OracleViolation::StreamDesync {
                    detail: format!("{id} cleared but was never mirrored"),
                }),
            }
            out.results.insert(id, round.clone());
            out.settlements.insert(id, settlement.clone());
        }
        for record in &engine.quarantine()[self.absorbed_quarantine..] {
            if let RoundError::DeadlineExceeded { deferred, .. } = record.error {
                out.partial_rounds += 1;
                out.deferred += deferred as u64;
            }
            let post_mortem = engine
                .post_mortems()
                .iter()
                .find(|pm| pm.round == record.id.0);
            match post_mortem {
                Some(pm) if trace_intact && !pm.wrapped && !pm.complete => {
                    out.violations.push(OracleViolation::TraceIncomplete {
                        round: record.id,
                        detail: format!(
                            "post-mortem rebuilt {} of {} bids",
                            pm.bids.len(),
                            record.bidders
                        ),
                    });
                }
                Some(_) => {}
                None => out.violations.push(OracleViolation::TraceIncomplete {
                    round: record.id,
                    detail: "quarantined without a post-mortem".to_string(),
                }),
            }
            out.quarantine.push(record.clone());
        }
        self.absorbed_quarantine = engine.quarantine().len();
        out.post_mortems
            .extend_from_slice(&engine.post_mortems()[self.absorbed_post_mortems..]);
        self.absorbed_post_mortems = engine.post_mortems().len();
    }
}

/// Folds every cleared round (id, winners, quotes, reports, social
/// cost) and every settlement (id, payouts, total) into `fnv`, hashing
/// f64 bit patterns: the part every driver's outcome fingerprint shares.
pub(crate) fn hash_rounds(
    fnv: &mut Fnv,
    results: &BTreeMap<RoundId, ClearedRound>,
    settlements: &BTreeMap<RoundId, RoundSettlement>,
) {
    for (id, round) in results {
        fnv.write_u64(id.0);
        for winner in round.allocation.winners() {
            fnv.write_u64(winner.index() as u64);
        }
        for (user, quote) in &round.quotes {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(quote.success.to_bits());
            fnv.write_u64(quote.failure.to_bits());
        }
        for (user, &completed) in &round.reports {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(completed as u64);
        }
        fnv.write_u64(round.social_cost.to_bits());
    }
    for (id, settlement) in settlements {
        fnv.write_u64(id.0);
        for (user, payout) in &settlement.payouts {
            fnv.write_u64(user.index() as u64);
            fnv.write_u64(payout.to_bits());
        }
        fnv.write_u64(settlement.total.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use mcs_core::types::TaskId;
    use mcs_platform::fault::NoFaults;

    use super::*;

    #[test]
    fn a_bid_that_bypasses_the_mirror_is_a_stream_desync() {
        let task = Task::with_requirement(TaskId::new(0), 0.8).expect("valid requirement");
        let config = EngineConfig::default().with_seed(5).with_workers(1);
        let oracle = OracleConfig::default();
        let mut mirrored = MirroredEngine::new(config, vec![task], Arc::new(NoFaults), oracle);
        // Straight into the engine: the mirror never sees this bid, so
        // only the engine closes (and clears) a round on flush.
        let bid = Bid {
            user: 0,
            cost: 1.0,
            tasks: vec![(0, 0.9)],
        };
        mirrored.out.engine.submit(&bid).expect("a valid bid");
        assert_eq!(mirrored.flush(), None);
        mirrored.drain();
        let out = mirrored.finish();
        let desync = |needle: &str| {
            out.violations.iter().any(|violation| {
                matches!(violation, OracleViolation::StreamDesync { detail }
                    if detail.contains(needle))
            })
        };
        assert!(
            desync("next round id 1 != mirror 0"),
            "{:?}",
            out.violations
        );
        assert!(
            desync("cleared but was never mirrored"),
            "{:?}",
            out.violations
        );
    }
}
