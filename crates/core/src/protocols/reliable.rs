//! §3 — the Reliable Broadcast protocol.
//!
//! Write operations and the commit request are **reliably broadcast**
//! (FIFO per origin, so the commit request arrives after the writes at
//! every site). Commitment is **decentralized two-phase commit** \[Ske82\]:
//! every site broadcasts its YES/NO vote to all sites, and each site
//! decides locally once it has heard from the whole view.
//!
//! Deadlock freedom comes from the priority conflict policy in the shared
//! state layer (wound-wait by default): conflicting update transactions
//! never form waiting cycles, and a site that wounds a transaction simply
//! votes NO — the decentralized votes make site-local wounds globally
//! visible. Read-only transactions execute entirely locally, never
//! broadcast anything, and are never aborted.

use crate::cluster::ClusterConfig;
use crate::metrics::AbortReason;
use crate::payload::{Payload, ReplicaMsg, Shelf, TxnPriority};
use crate::protocols::{Cx, Gate, ProtoSnapshot, Reader, RetransmitBackoff, Variation, Verdict};
use crate::state::{LocalEvent, SiteState};
use bcastdb_broadcast::reliable::{self, ReliableBcast};
use bcastdb_db::TxnId;
use bcastdb_sim::{SampleWriter, SiteId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One driver step of this protocol: deliveries are bare payloads.
type RbCx<'a> = Cx<'a, Arc<Payload>>;

/// What the reliable-broadcast protocol varies at one site.
///
/// The broadcast engine is instantiated with `Arc<Payload>` so its archive,
/// holdback, and per-destination fan-out share one payload (off `shelf`)
/// per broadcast instead of deep-cloning it N−1 times.
#[derive(Debug)]
pub struct ReliableProto {
    rb: ReliableBcast<Arc<Payload>>,
    shelf: Shelf,
    /// Loss-recovery mode: the broadcast layer re-forwards first copies so
    /// agreement survives message loss (at `O(N²)` message cost), and this
    /// site publishes its watermarks on ticks while anything is undecided.
    recover_losses: bool,
    /// Cadence control of the periodic `RSync` solicitation.
    backoff: RetransmitBackoff,
    /// Delivery watermarks at the last solicitation, the progress signal
    /// that resets the backoff.
    last_watermarks: Arc<[u64]>,
}

impl ReliableProto {
    /// Broadcasts `payload`, routing wire traffic to the network and the
    /// local self-delivery into the work queue.
    fn bcast(&mut self, cx: &mut RbCx, payload: Payload) {
        // Every wire copy and archive entry from here on is a refcount bump.
        let (_, out) = self.rb.broadcast(self.shelf.make(payload));
        Self::route(cx, out);
    }

    fn route(cx: &mut RbCx, out: reliable::Output<Arc<Payload>>) {
        cx.route(out.outbound, out.deliveries.into_iter().map(|d| d.payload));
    }

    /// Casts this site's vote for `txn` if the commit request has been
    /// delivered and the outcome here is known.
    fn maybe_vote(&mut self, cx: &mut RbCx, txn: TxnId) {
        let Some(entry) = cx.st.remote.get_mut(&txn) else {
            return;
        };
        if !entry.commit_req_seen || entry.my_vote.is_some() {
            return;
        }
        let yes = if entry.doomed.is_some() {
            false
        } else if entry.fully_prepared() {
            true
        } else {
            return; // still waiting for locks or write ops
        };
        entry.my_vote = Some(yes);
        cx.st.trace_vote(txn, yes, cx.now);
        if yes {
            // Older transactions queued behind this now-prepared holder
            // must not wait for an irrevocable vote: doom them here (we
            // vote NO for them when their commit requests arrive).
            cx.transition(|st, _, events| st.doom_older_waiters_behind(txn, events));
        }
        let site = cx.st.me;
        self.bcast(cx, Payload::Vote { txn, site, yes });
    }
}

impl Variation for ReliableProto {
    type Delivery = Arc<Payload>;

    fn new(me: SiteId, cfg: &ClusterConfig) -> Self {
        let rb = ReliableBcast::new(me, cfg.sites);
        ReliableProto {
            // Without loss recovery nobody ever sends a sync round, so no
            // retransmission is ever requested: skip the per-message
            // archive insert.
            rb: if cfg.relay {
                rb.with_relay()
            } else {
                rb.without_archive()
            },
            shelf: Shelf::default(),
            recover_losses: cfg.relay,
            backoff: RetransmitBackoff::new(me, cfg.retransmit_backoff),
            last_watermarks: Arc::new([]),
        }
    }

    fn configure_state(st: &mut SiteState) {
        st.resolve_read_deadlocks = true;
    }

    fn on_wire(&mut self, cx: &mut RbCx, from: SiteId, msg: ReplicaMsg) {
        match msg {
            ReplicaMsg::R(wire) => {
                let out = self.rb.on_wire(from, wire);
                Self::route(cx, out);
            }
            // A peer's loss-recovery sync: retransmit archived messages the
            // peer is missing (its duplicate suppression absorbs extras).
            ReplicaMsg::RSync(watermarks) => {
                // Answer only for our own messages: one authoritative
                // responder per gap keeps lossy-mode recovery traffic linear.
                let me = self.rb.me();
                self.rb.retransmissions_for(&watermarks, 32, |wire| {
                    if wire.id.origin == me {
                        cx.fx.send_to(from, ReplicaMsg::R(wire));
                    }
                });
            }
            _ => {} // traffic of a protocol this cluster does not run
        }
    }

    /// Reliable broadcast is FIFO per origin: the writes go out first and
    /// arrive first everywhere.
    fn disseminate_write(&mut self, cx: &mut RbCx, write: Payload) {
        self.bcast(cx, write);
    }

    fn request_commit(&mut self, cx: &mut RbCx, txn: TxnId, prio: TxnPriority, n_writes: usize) {
        cx.st.trace_commit_req_out(txn, cx.now);
        let request = Payload::CommitReq {
            txn,
            prio,
            n_writes,
            read_versions: Vec::new(),
            write_versions: Vec::new(),
        };
        self.bcast(cx, request);
    }

    fn on_deliver(&mut self, cx: &mut RbCx, payload: Arc<Payload>) {
        match &*payload {
            Payload::Write {
                txn, prio, op, of, ..
            } => cx.transition(|st, now, events| {
                st.deliver_write_op(*txn, *prio, op.clone(), *of, now, events)
            }),
            &Payload::CommitReq {
                txn,
                prio,
                n_writes,
                ..
            } => {
                let Some(entry) = cx.st.remote_entry(txn, prio) else {
                    return;
                };
                entry.commit_req_seen = true;
                entry.n_writes = Some(n_writes);
                // The gate must run before the vote. Read-only readers veto
                // the writer (they are never aborted) — published as this
                // site's NO vote; update readers still in their read phase
                // are wounded; readers that already broadcast are governed
                // by the priority rules, which votes make globally visible.
                let veto = cx.gate_local_readers(txn, |reader| match reader {
                    Reader::ReadOnly => Gate::Veto,
                    Reader::Reading => Gate::Wound,
                    Reader::Writing => Gate::Ignore,
                });
                if veto {
                    cx.transition(|st, _, ev| st.doom_remote(txn, AbortReason::Wounded, ev));
                }
                self.maybe_vote(cx, txn);
            }
            &Payload::Vote { txn, site, yes } => {
                // A vote can arrive before any write op (no cross-origin
                // ordering); the priority on the entry is fixed up when the
                // ops arrive.
                let Some(entry) = cx.st.remote_entry(txn, TxnPriority::unknown(txn)) else {
                    return;
                };
                if yes {
                    entry.votes_yes.insert(site);
                } else {
                    entry.votes_no.insert(site);
                }
                self.try_decide(cx, txn);
            }
            &Payload::AbortDecision { txn } => {
                let doomed = cx.st.remote.get(&txn).and_then(|e| e.doomed);
                cx.abort_remote(txn, doomed.unwrap_or(AbortReason::Wounded));
            }
            Payload::Nack { .. } | Payload::Null => {
                // Not used by this protocol.
            }
        }
    }

    fn on_event(&mut self, cx: &mut RbCx, ev: LocalEvent) {
        match ev {
            LocalEvent::RemotePrepared(id) => self.maybe_vote(cx, id),
            LocalEvent::RemoteDoomed(id, _) if id.origin == cx.st.me => {
                // Our own transaction was condemned here: abort it globally
                // right away rather than waiting for the vote round.
                self.bcast(cx, Payload::AbortDecision { txn: id });
            }
            LocalEvent::RemoteDoomed(id, _) => self.maybe_vote(cx, id),
            _ => {}
        }
    }

    /// Decides `txn` once the view's votes are in (decentralized 2PC: each
    /// site decides independently from the same votes), or — fast commit —
    /// once the surviving quorum's are: an explicit vote is this protocol's
    /// acknowledgement, our own YES its proof of local preparedness.
    fn try_decide(&mut self, cx: &mut RbCx, txn: TxnId) {
        let Some(entry) = cx.st.remote.get(&txn) else {
            return;
        };
        let own_yes = entry.my_vote == Some(true);
        match cx.quorum.verdict(!entry.votes_no.is_empty(), own_yes, |s| {
            entry.votes_yes.contains(s)
        }) {
            Verdict::Wait => {}
            Verdict::Abort => {
                let reason = entry.doomed.unwrap_or(AbortReason::NegativeVote);
                cx.abort_remote(txn, reason);
            }
            Verdict::Commit => cx.apply_commit(txn),
            Verdict::FastCommit => {
                cx.st.trace_fast_decide(txn, cx.now);
                cx.st.trace_decided(txn, true, cx.now);
                cx.apply_commit(txn);
            }
        }
    }

    /// Loss-recovery mode ticks while undecided so gaps get filled.
    fn needs_ticks(&self, st: &SiteState) -> bool {
        self.recover_losses && st.has_undecided()
    }

    /// Publishes our delivery watermarks so peers can fill our gaps. With
    /// backoff enabled, the solicitation cadence doubles while the
    /// watermarks stand still and snaps back to every tick the moment they
    /// move.
    fn on_tick(&mut self, cx: &mut RbCx) {
        if !self.needs_ticks(cx.st) {
            return;
        }
        let marks = self.rb.watermarks();
        if marks != self.last_watermarks {
            self.backoff.reset();
            self.last_watermarks = Arc::clone(&marks);
        }
        if self.backoff.due() {
            cx.fx.send_others(ReplicaMsg::RSync(marks));
        }
    }

    fn snapshot(&self) -> ProtoSnapshot {
        ProtoSnapshot::Reliable(self.rb.watermarks())
    }

    fn resume(&mut self, donor: &ProtoSnapshot, _view: &BTreeSet<SiteId>) {
        if let ProtoSnapshot::Reliable(watermarks) = donor {
            self.rb.resume_from(watermarks);
        }
    }

    /// The broadcast engine's holdback (everything its duplicate test
    /// consults beyond the watermarks) and what it retains for
    /// retransmission.
    fn sample_stats(&self, me: SiteId, sample: &mut SampleWriter) {
        sample.set_site(me, "rb.dedup_live", self.rb.holdback_len() as u64);
        sample.set_site(me, "rb.archive_len", self.rb.archive_len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::ProtocolKind;
    use crate::protocols::tests::cfg;
    use crate::protocols::{Driver, Protocol};
    use crate::state::EventBuf;
    use bcastdb_db::TxnSpec;
    use bcastdb_sim::SimTime;

    type Rig = crate::protocols::tests::Rig<Driver<ReliableProto>>;

    fn rig(n: usize) -> Rig {
        Rig::of(&cfg(n, ProtocolKind::ReliableBcast))
    }

    /// Every vote broadcast so far: `(txn, voter, yes)`.
    fn votes(rig: &Rig) -> Vec<(TxnId, SiteId, bool)> {
        let vote = |msg: &ReplicaMsg| match msg {
            ReplicaMsg::R(wire) => match *wire.payload {
                Payload::Vote { txn, site, yes } => Some((txn, site, yes)),
                _ => None,
            },
            _ => None,
        };
        rig.sent.iter().filter_map(vote).collect()
    }

    #[test]
    fn uncontended_txn_collects_all_votes_and_commits_everywhere() {
        let mut rig = rig(3);
        let id = rig.submit(0, 0, TxnSpec::new().write("x", 7));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(true), "site {i}");
            assert_eq!(st.store.value(&bcastdb_db::Key::new("x")), 7, "site {i}");
            assert!(st.remote.is_empty(), "site {i} retired the entry");
            assert!(
                votes(&rig).contains(&(id, SiteId(i), true)),
                "site {i} voted yes"
            );
        }
        assert_eq!(votes(&rig).len(), 3, "one vote per site");
    }

    #[test]
    fn gate_vetoes_writer_conflicting_with_read_only_reader() {
        let mut rig = rig(2);
        // A read-only transaction at site 1 holds S("x") and is blocked on a
        // second key held exclusively, so it stays live.
        let blocker = TxnId::new(SiteId(0), 99);
        let mut events = EventBuf::new();
        rig.states[1].deliver_write_op(
            blocker,
            crate::payload::TxnPriority {
                ts: 0,
                origin: SiteId(0),
                num: 99,
            },
            bcastdb_db::WriteOp {
                key: "y".into(),
                value: 1,
            },
            2, // claims two writes so it never prepares/terminates
            SimTime::ZERO,
            &mut events,
        );
        let (ro, ev) =
            rig.states[1].begin_txn(SimTime::from_micros(5), TxnSpec::new().read("x").read("y"));
        assert!(ev.is_empty(), "reader parked on y");
        // Site 0 submits a writer of "x": its commit request reaches site 1
        // while the read-only reader holds S(x) → site 1 vetoes (votes NO).
        let w = rig.submit(0, 0, TxnSpec::new().write("x", 3));
        rig.settle();
        assert_eq!(rig.states[0].decided.get(&w), Some(false), "writer vetoed");
        assert!(
            !rig.states[1].decided.contains_key(&ro),
            "read-only reader survives"
        );
        assert!(
            votes(&rig).contains(&(w, SiteId(1), false)),
            "site 1 cast the NO vote"
        );
    }

    #[test]
    fn one_no_vote_aborts_globally() {
        let mut rig = rig(3);
        let id = rig.submit(0, 0, TxnSpec::new().write("x", 1));
        // Pre-doom the transaction at site 2 before its wires arrive.
        {
            let st = &mut rig.states[2];
            let prio = crate::payload::TxnPriority {
                ts: 0,
                origin: SiteId(0),
                num: 1,
            };
            st.remote_entry(id, prio).expect("undecided").doomed = Some(AbortReason::Wounded);
        }
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(false), "site {i} aborted");
            assert!(
                st.remote.is_empty(),
                "site {i}: votes that arrived after the abort re-created the entry"
            );
            assert_eq!(
                st.store.read(&"x".into()).writer,
                None,
                "site {i}: no install"
            );
        }
    }

    #[test]
    fn relay_sync_cadence_backs_off_and_resets_on_progress() {
        use bcastdb_broadcast::msg::MsgId;

        // One relaying site with an undecided local transaction, so ticks
        // stay wanted forever (its peers never answer — a stalled cluster).
        let stalled_site = |retransmit_backoff: bool| {
            let relaying = ClusterConfig {
                relay: true,
                retransmit_backoff,
                ..cfg(3, ProtocolKind::ReliableBcast)
            };
            let mut rig = Rig::of(&relaying);
            rig.submit(0, 0, TxnSpec::new().write("x", 1));
            rig
        };
        let syncs = |rig: &mut Rig, ticks: usize| -> usize {
            let before = rig.sent.len();
            for _ in 0..ticks {
                rig.step(0, 50, |p, step| p.on_tick(step));
            }
            rig.sent.len() - before
        };

        // Without backoff (the default), every tick solicits.
        assert_eq!(syncs(&mut stalled_site(false), 64), 64);

        // With backoff, a stalled site solicits exponentially more rarely.
        let mut rig = stalled_site(true);
        let stalled = syncs(&mut rig, 64);
        assert!(
            (1..16).contains(&stalled),
            "64 stalled ticks must coalesce into a handful of syncs, got {stalled}"
        );

        // Progress (a delivery advancing the watermarks) snaps the cadence
        // back to the very next tick.
        let wire = reliable::Wire {
            id: MsgId {
                origin: SiteId(1),
                seq: 1,
            },
            payload: Arc::new(Payload::Null),
        };
        rig.step(0, 1, |p, step| {
            p.on_msg(step, SiteId(1), ReplicaMsg::R(wire))
        });
        // (Relaying re-forwards the first copy; only the sync counts.)
        let sync = |m: &&ReplicaMsg| matches!(m, ReplicaMsg::RSync(_));
        let before = rig.sent.iter().filter(sync).count();
        syncs(&mut rig, 1);
        let after = rig.sent.iter().filter(sync).count();
        assert_eq!(after - before, 1, "post-progress tick solicits again");
    }

    #[test]
    fn fifo_guarantees_ops_before_commit_request() {
        // The commit request never outruns the writes: by the time any site
        // votes, its write set is complete.
        let mut rig = rig(4);
        let id = rig.submit(
            1,
            1,
            TxnSpec::new().write("a", 1).write("b", 2).write("c", 3),
        );
        rig.settle();
        for st in &rig.states {
            assert_eq!(st.decided.get(&id), Some(true));
            let logged = st.log.records().find_map(|r| match r {
                bcastdb_db::LogRecord::Commit { txn, writes } if txn == id => Some(writes.len()),
                _ => None,
            });
            assert_eq!(logged, Some(3), "the whole write set committed");
        }
    }
}
