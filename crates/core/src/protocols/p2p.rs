//! §2 — the point-to-point read-one write-all baseline.
//!
//! The protocol the paper starts from: every write operation is sent to
//! every site individually, and "the transaction issuing the write
//! operation remains blocked until acknowledgments have been received from
//! all sites". After the last write is acknowledged, commitment is
//! decentralized 2PC \[Ske82\]: the origin sends commit requests, every site
//! sends its vote to every site, each site decides locally.
//!
//! Two costs the broadcast protocols remove are deliberately present here:
//!
//! - **per-operation acknowledgement rounds** — write latency grows with
//!   `2 · writes · one-way-delay`;
//! - **distributed deadlock** — conflicting writers queue with no global
//!   priority, so cross-site waiting cycles form; the origin breaks them
//!   with a timeout abort (counted as [`AbortReason::Timeout`]).

use crate::cluster::ClusterConfig;
use crate::metrics::AbortReason;
use crate::payload::{P2pMsg, Payload, ReplicaMsg, TxnPriority};
use crate::protocols::{drain, Cx, ProtoSnapshot, Quorum, Variation, Verdict, Work};
use crate::state::{LocalEvent, SiteState};
use bcastdb_db::{Key, TxnId, WriteOp};
use bcastdb_sim::{SimDuration, SimTime, SiteId};
use std::collections::{BTreeMap, BTreeSet};

/// One driver step of this protocol: a "delivery" is a point-to-point
/// message and its sender.
type P2pCx<'a> = Cx<'a, (SiteId, P2pMsg)>;

/// Origin-side write-phase bookkeeping.
#[derive(Debug, Clone)]
struct Driving {
    prio: TxnPriority,
    writes: Vec<WriteOp>,
    /// Index of the operation currently awaiting acknowledgements.
    current_op: usize,
    /// Sites that acked the current op (own grant included). A set, not
    /// a counter: a network-duplicated WriteAck must not double-count
    /// one site and advance the op early.
    acked: BTreeSet<SiteId>,
    /// When the write phase started (timeout baseline).
    started: SimTime,
    commit_sent: bool,
}

/// What the point-to-point baseline varies at one site.
#[derive(Debug)]
pub struct P2pProto {
    /// Abort a write phase that exceeds this age (deadlock resolution).
    timeout: SimDuration,
    driving: BTreeMap<TxnId, Driving>,
    /// Keys whose queued grant should trigger an ack to the origin:
    /// `(txn, key) → op index`.
    pending_acks: BTreeMap<(TxnId, Key), usize>,
    /// The baseline decides over all `n` sites whatever the view: with no
    /// group communication underneath, 2PC blocks on a crashed participant.
    everyone: Quorum,
}

impl P2pProto {
    /// Sends `msg` to every site individually; this site's copy is
    /// processed through the same path, via the work queue.
    fn send_all(cx: &mut P2pCx, msg: P2pMsg) {
        cx.work.push_back(Work::Deliver((cx.st.me, msg.clone())));
        cx.fx.send_others(ReplicaMsg::P2p(msg));
    }

    /// The baseline ships no priorities: only the origin knows the real one.
    fn prio_of(&self, txn: TxnId) -> TxnPriority {
        let driving = self.driving.get(&txn);
        driving.map_or_else(|| TxnPriority::unknown(txn), |d| d.prio)
    }

    /// Sends the current write op to every site and waits for all
    /// acknowledgements before the next op; after the last, the commit
    /// requests go out.
    fn issue_current_op(&mut self, cx: &mut P2pCx, id: TxnId) {
        let Some(d) = self.driving.get(&id) else {
            return;
        };
        let (prio, index, of) = (d.prio, d.current_op, d.writes.len());
        let Some(op) = d.writes.get(index).cloned() else {
            return self.request_commit(cx, id, prio, of);
        };
        let write = Payload::Write {
            txn: id,
            prio,
            op,
            index,
            of,
        };
        self.disseminate_write(cx, write);
    }

    /// True iff `key` of `txn` needs no (further) waiting here: its lock is
    /// held, or this site does not replicate the key — nothing to lock.
    fn lock_settled(st: &SiteState, txn: TxnId, key: &Key) -> bool {
        let entry = st.remote.get(&txn);
        entry.is_some_and(|e| e.keys_granted.contains(key))
            || !st.placement.is_holder(st.me, key, st.n)
    }

    /// Sends (or locally records) the acknowledgement that `index` of
    /// `txn` holds its lock at this site.
    fn emit_ack(cx: &mut P2pCx, txn: TxnId, index: usize) {
        let ack = P2pMsg::WriteAck { txn, index };
        if txn.origin == cx.st.me {
            cx.work.push_back(Work::Deliver((cx.st.me, ack)));
        } else {
            cx.fx.send_to(txn.origin, ReplicaMsg::P2p(ack));
        }
    }

    /// Origin side: counts acknowledgements for the current op; when all
    /// sites acked, moves to the next op (or the commit phase).
    fn record_ack(&mut self, cx: &mut P2pCx, from: SiteId, txn: TxnId, index: usize) {
        let Some(d) = self.driving.get_mut(&txn) else {
            return;
        };
        if index != d.current_op {
            return; // stale ack for an op already completed
        }
        d.acked.insert(from);
        if d.acked.len() >= cx.st.n {
            d.current_op += 1;
            d.acked.clear();
            self.issue_current_op(cx, txn);
        }
    }
}

impl Variation for P2pProto {
    type Delivery = (SiteId, P2pMsg);

    fn new(_me: SiteId, cfg: &ClusterConfig) -> Self {
        P2pProto {
            timeout: cfg.p2p_timeout,
            driving: BTreeMap::new(),
            pending_acks: BTreeMap::new(),
            everyone: Quorum::full(cfg.sites, false),
        }
    }

    /// No wounding at all: conflicts are resolved by waiting + timeout,
    /// which is exactly how the baseline deadlocks.
    fn configure_state(st: &mut SiteState) {
        st.wound_remote = false;
        st.wound_local_readers = false;
    }

    fn on_wire(&mut self, cx: &mut P2pCx, from: SiteId, msg: ReplicaMsg) {
        if let ReplicaMsg::P2p(m) = msg {
            cx.work.push_back(Work::Deliver((from, m)));
        }
    }

    /// The baseline paces its write phase by acknowledgements, not think
    /// time: "the transaction issuing the write operation remains blocked
    /// until acknowledgments have been received from all sites".
    fn write_phase(&mut self, cx: &mut P2pCx, id: TxnId) {
        let local = &cx.st.local[&id];
        let driving = Driving {
            prio: local.prio,
            writes: local.spec.writes().to_vec(),
            current_op: 0,
            acked: BTreeSet::new(),
            started: cx.now,
            commit_sent: false,
        };
        self.driving.insert(id, driving);
        self.issue_current_op(cx, id);
    }

    /// Unicast to every site; the baseline ships neither the priority nor
    /// the write count.
    fn disseminate_write(&mut self, cx: &mut P2pCx, write: Payload) {
        let Payload::Write { txn, op, index, .. } = write else {
            unreachable!("only write operations are disseminated");
        };
        Self::send_all(cx, P2pMsg::Write { txn, op, index });
    }

    fn request_commit(&mut self, cx: &mut P2pCx, txn: TxnId, _prio: TxnPriority, _n: usize) {
        let Some(d) = self.driving.get_mut(&txn) else {
            return;
        };
        if d.commit_sent {
            return;
        }
        d.commit_sent = true;
        cx.st.trace_commit_req_out(txn, cx.now);
        let writes = d.writes.clone();
        Self::send_all(cx, P2pMsg::CommitReq { txn, writes });
    }

    fn on_deliver(&mut self, cx: &mut P2pCx, (from, msg): (SiteId, P2pMsg)) {
        match msg {
            P2pMsg::Write { txn, op, index } => {
                if cx.st.decided.contains_key(&txn) {
                    return;
                }
                // Ops are issued one at a time over FIFO links, so a fresh
                // op always has `index == ops.len()`. Anything below that
                // is a network duplicate: delivering it again would corrupt
                // the `ops.len() == n_writes` prepare accounting (and a dup
                // landing after the commit request would reset `n_writes`
                // to the sentinel, wedging the vote). Just re-ack if the
                // lock is settled — the origin's ack set dedups.
                let entry = cx.st.remote.get(&txn);
                let fresh = entry.is_none_or(|e| index >= e.ops.len());
                let key = op.key.clone();
                if fresh {
                    let prio = self.prio_of(txn);
                    // `of` is unknown at remote sites until the commit
                    // request; use a sentinel larger than any index so
                    // fully_prepared stays false until then.
                    cx.transition(|st, now, events| {
                        st.deliver_write_op(txn, prio, op, usize::MAX, now, events)
                    });
                }
                // Ack now if settled, otherwise when the queue grants it.
                if Self::lock_settled(cx.st, txn, &key) {
                    Self::emit_ack(cx, txn, index);
                } else if fresh {
                    self.pending_acks.insert((txn, key), index);
                }
            }
            P2pMsg::WriteAck { txn, index } => self.record_ack(cx, from, txn, index),
            P2pMsg::CommitReq { txn, writes } => {
                let prio = self.prio_of(txn);
                let Some(entry) = cx.st.remote_entry(txn, prio) else {
                    return;
                };
                entry.commit_req_seen = true;
                entry.n_writes = Some(writes.len());
                // Writes arrived (and were acked) before the commit request
                // on FIFO links, so the site is prepared: vote YES to all.
                entry.my_vote = Some(true);
                cx.st.trace_vote(txn, true, cx.now);
                let site = cx.st.me;
                Self::send_all(
                    cx,
                    P2pMsg::Vote {
                        txn,
                        site,
                        yes: true,
                    },
                );
            }
            P2pMsg::Vote { txn, site, yes } => {
                let Some(entry) = cx.st.remote_entry(txn, TxnPriority::unknown(txn)) else {
                    return;
                };
                if yes {
                    entry.votes_yes.insert(site);
                } else {
                    entry.votes_no.insert(site);
                }
                // Decentralized 2PC: explicit votes from every site.
                let (any_no, yes) = (!entry.votes_no.is_empty(), &entry.votes_yes);
                match self.everyone.verdict(any_no, false, |s| yes.contains(s)) {
                    Verdict::Abort => cx.abort_remote(txn, AbortReason::NegativeVote),
                    Verdict::Commit if entry.fully_prepared() => cx.apply_commit(txn),
                    _ => return,
                }
                self.driving.remove(&txn);
            }
            P2pMsg::Abort { txn } => {
                cx.abort_remote(txn, AbortReason::Timeout);
                self.driving.remove(&txn);
            }
        }
    }

    fn on_event(&mut self, cx: &mut P2pCx, ev: LocalEvent) {
        match ev {
            LocalEvent::RemoteKeyGranted(txn, key) => {
                // A queued write lock came through: acknowledge it.
                if let Some(index) = self.pending_acks.remove(&(txn, key)) {
                    Self::emit_ack(cx, txn, index);
                }
            }
            LocalEvent::RemoteDoomed(..) => {
                // Wounding is disabled for the baseline (wound_remote and
                // wound_local_readers are false); nothing can be doomed.
                debug_assert!(false, "baseline must not doom transactions");
            }
            _ => {}
        }
    }

    /// Ticks run the deadlock timeout while anything is in flight.
    fn needs_ticks(&self, st: &SiteState) -> bool {
        st.has_undecided()
    }

    /// Aborts, everywhere, write phases that have exceeded the deadlock
    /// timeout.
    fn on_tick(&mut self, cx: &mut P2pCx) {
        let stuck: Vec<TxnId> = self
            .driving
            .iter()
            .filter(|(txn, d)| {
                // Once the commit requests are out every site votes YES
                // (all writes were acknowledged), so the decision is
                // assured — aborting then could split the replicas.
                !d.commit_sent
                    && !cx.st.decided.contains_key(txn)
                    && cx.now.saturating_since(d.started) > self.timeout
            })
            .map(|(&txn, _)| txn)
            .collect();
        for txn in stuck {
            self.driving.remove(&txn);
            cx.fx.send_others(ReplicaMsg::P2p(P2pMsg::Abort { txn }));
            cx.abort_remote(txn, AbortReason::Timeout);
        }
    }

    /// The baseline settles one orphan at a time: the locks its abort
    /// frees are granted, and the acknowledgements those grants release
    /// are sent, before the next orphan aborts.
    fn orphan_aborted(&mut self, cx: &mut P2pCx) {
        drain(self, cx);
    }

    fn snapshot(&self) -> ProtoSnapshot {
        ProtoSnapshot::None
    }

    /// Drops stale driving state; the transferred store and decision map
    /// carry the outcomes.
    fn resume(&mut self, _donor: &ProtoSnapshot, _view: &BTreeSet<SiteId>) {
        self.driving.clear();
        self.pending_acks.clear();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::payload::{Payload, ProtocolKind};
    use crate::protocols::tests::{cfg, Rig};
    use crate::protocols::Driver;
    use bcastdb_db::TxnSpec;

    /// A late duplicate of what `payload` says, in the baseline's own
    /// message vocabulary (a NACK has no counterpart: a stale ack stands in).
    pub(crate) fn redeliver(_: &Driver<P2pProto>, payload: Payload) -> Vec<(SiteId, P2pMsg)> {
        let msg = match payload {
            Payload::Write { txn, op, index, .. } => P2pMsg::Write { txn, op, index },
            Payload::CommitReq { txn, .. } => P2pMsg::CommitReq {
                txn,
                writes: vec![WriteOp {
                    key: "x".into(),
                    value: 1,
                }],
            },
            Payload::Vote { txn, site, yes } => P2pMsg::Vote { txn, site, yes },
            Payload::Nack { txn, .. } => P2pMsg::WriteAck { txn, index: 0 },
            Payload::AbortDecision { txn } => P2pMsg::Abort { txn },
            Payload::Null => return Vec::new(),
        };
        vec![(SiteId(1), msg)]
    }

    /// Nothing is being driven and no acknowledgement is owed.
    pub(crate) fn idle(p: &P2pProto) -> bool {
        p.driving.is_empty() && p.pending_acks.is_empty()
    }

    #[test]
    fn each_write_waits_for_every_ack_before_the_next_goes_out() {
        let mut rig = Rig::<Driver<P2pProto>>::of(&cfg(3, ProtocolKind::PointToPoint));
        let id = rig.submit(0, 1, TxnSpec::new().write("a", 1).write("b", 2));
        let writes = |rig: &Rig<Driver<P2pProto>>| {
            let write = |m: &&ReplicaMsg| matches!(m, ReplicaMsg::P2p(P2pMsg::Write { .. }));
            rig.sent.iter().filter(write).count()
        };
        assert_eq!(writes(&rig), 1, "the second op waits for the first's acks");
        rig.settle();
        assert_eq!(writes(&rig), 2);
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(true), "site {i}");
            assert_eq!(st.store.value(&"b".into()), 2, "site {i}");
            assert!(st.remote.is_empty(), "site {i} retired the entry");
        }
        assert_eq!(rig.vote_msgs(), 3, "one vote per site");
        assert!(rig.protos.iter().all(|p| idle(&p.rules)));
    }
}
