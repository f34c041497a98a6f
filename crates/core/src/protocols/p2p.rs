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

use crate::metrics::AbortReason;
use crate::payload::{P2pMsg, ReplicaMsg, TxnPriority};
use crate::protocols::Effects;
use crate::state::{EventBuf, LocalEvent, SiteState};
use bcastdb_db::{TxnId, WriteOp};
use bcastdb_sim::{SimDuration, SimTime, SiteId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

#[derive(Debug)]
enum Work {
    Event(LocalEvent),
    Msg(SiteId, P2pMsg),
}

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

/// The point-to-point baseline protocol at one site.
#[derive(Debug)]
pub struct P2pProto {
    /// Abort a write phase that exceeds this age (deadlock resolution).
    pub timeout: SimDuration,
    driving: BTreeMap<TxnId, Driving>,
    /// Keys whose queued grant should trigger an ack to the origin:
    /// `(txn, key) → op index`.
    pending_acks: BTreeMap<(TxnId, bcastdb_db::Key), usize>,
}

impl P2pProto {
    /// Creates the protocol instance.
    pub fn new(timeout: SimDuration) -> Self {
        P2pProto {
            timeout,
            driving: BTreeMap::new(),
            pending_acks: BTreeMap::new(),
        }
    }

    /// Resumes a recovered site (state transfer): drops stale driving
    /// state; the transferred store and decision map carry the outcomes.
    pub fn resume(&mut self) {
        self.driving.clear();
        self.pending_acks.clear();
    }

    /// Handles events produced outside the protocol.
    pub fn handle_events(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        events: EventBuf,
    ) {
        let work = events.into_iter().map(Work::Event).collect();
        self.pump(st, fx, now, work);
    }

    /// Handles an incoming point-to-point message.
    pub fn on_msg(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        from: SiteId,
        msg: P2pMsg,
    ) {
        let mut work = VecDeque::new();
        work.push_back(Work::Msg(from, msg));
        self.pump(st, fx, now, work);
    }

    /// Periodic tick: abort write phases that have exceeded the deadlock
    /// timeout.
    pub fn on_tick(&mut self, st: &mut SiteState, fx: &mut Effects, now: SimTime) {
        let stuck: Vec<TxnId> = self
            .driving
            .iter()
            .filter(|(txn, d)| {
                // Once the commit requests are out every site votes YES
                // (all writes were acknowledged), so the decision is
                // assured — aborting then could split the replicas.
                !d.commit_sent
                    && !st.decided.contains_key(txn)
                    && now.saturating_since(d.started) > self.timeout
            })
            .map(|(&txn, _)| txn)
            .collect();
        let mut work = VecDeque::new();
        for txn in stuck {
            self.abort_globally(st, fx, now, txn, AbortReason::Timeout, &mut work);
        }
        self.pump(st, fx, now, work);
    }

    fn pump(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        mut work: VecDeque<Work>,
    ) {
        while let Some(item) = work.pop_front() {
            match item {
                Work::Event(ev) => self.on_event(st, fx, now, ev, &mut work),
                Work::Msg(from, m) => self.on_p2p(st, fx, now, from, m, &mut work),
            }
        }
    }

    fn on_event(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        ev: LocalEvent,
        work: &mut VecDeque<Work>,
    ) {
        match ev {
            LocalEvent::ReadsComplete(id) => self.start_write_phase(st, fx, now, id, work),
            LocalEvent::RemoteKeyGranted(txn, key) => {
                // A queued write lock came through: acknowledge it.
                if let Some(index) = self.pending_acks.remove(&(txn, key)) {
                    self.emit_ack(st, fx, txn, index, work);
                }
            }
            LocalEvent::RemotePrepared(..) => {}
            LocalEvent::ReadPaused(id) => fx.pauses.push(id),
            LocalEvent::RemoteDoomed(..) => {
                // Wounding is disabled for the baseline (wound_remote and
                // wound_local_readers are false); nothing can be doomed.
                debug_assert!(false, "baseline must not doom transactions");
            }
        }
    }

    fn start_write_phase(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        id: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        let Some(local) = st.local.get(&id) else {
            return;
        };
        let prio = local.prio;
        let writes = local.spec.writes().to_vec();
        self.driving.insert(
            id,
            Driving {
                prio,
                writes,
                current_op: 0,
                acked: BTreeSet::new(),
                started: now,
                commit_sent: false,
            },
        );
        self.issue_current_op(st, fx, now, id, work);
    }

    /// Sends the current write op to every site (including processing it
    /// locally) and waits for all acknowledgements before the next op.
    fn issue_current_op(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        id: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        let Some(d) = self.driving.get(&id) else {
            return;
        };
        if d.current_op >= d.writes.len() {
            self.send_commit_requests(st, fx, now, id, work);
            return;
        }
        let op = d.writes[d.current_op].clone();
        let index = d.current_op;
        for site in 0..st.n {
            let site = SiteId(site);
            if site == st.me {
                // Process locally through the same path.
                work.push_back(Work::Msg(
                    st.me,
                    P2pMsg::Write {
                        txn: id,
                        op: op.clone(),
                        index,
                    },
                ));
            } else {
                fx.send_to(
                    site,
                    ReplicaMsg::P2p(P2pMsg::Write {
                        txn: id,
                        op: op.clone(),
                        index,
                    }),
                );
            }
        }
    }

    fn send_commit_requests(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        id: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        let Some(d) = self.driving.get_mut(&id) else {
            return;
        };
        if d.commit_sent {
            return;
        }
        d.commit_sent = true;
        st.trace_commit_req_out(id, now);
        let writes = d.writes.clone();
        for site in 0..st.n {
            let site = SiteId(site);
            if site == st.me {
                work.push_back(Work::Msg(
                    st.me,
                    P2pMsg::CommitReq {
                        txn: id,
                        writes: writes.clone(),
                    },
                ));
            } else {
                fx.send_to(
                    site,
                    ReplicaMsg::P2p(P2pMsg::CommitReq {
                        txn: id,
                        writes: writes.clone(),
                    }),
                );
            }
        }
    }

    fn on_p2p(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        from: SiteId,
        msg: P2pMsg,
        work: &mut VecDeque<Work>,
    ) {
        match msg {
            P2pMsg::Write { txn, op, index } => {
                if st.decided.contains_key(&txn) {
                    return;
                }
                // Ops are issued one at a time over FIFO links, so a fresh
                // op always has `index == ops.len()`. Anything below that
                // is a network duplicate: delivering it again would corrupt
                // the `ops.len() == n_writes` prepare accounting (and a dup
                // landing after the commit request would reset `n_writes`
                // to the sentinel, wedging the vote). Just re-ack if the
                // lock is held — the origin's ack set dedups.
                if st.remote.get(&txn).is_some_and(|e| index < e.ops.len()) {
                    let granted = st
                        .remote
                        .get(&txn)
                        .is_some_and(|e| e.keys_granted.contains(&op.key))
                        || !st.placement.is_holder(st.me, &op.key, st.n);
                    if granted {
                        self.emit_ack(st, fx, txn, index, work);
                    }
                    return;
                }
                let prio = self
                    .driving
                    .get(&txn)
                    .map(|d| d.prio)
                    .unwrap_or(TxnPriority {
                        ts: u64::MAX,
                        origin: txn.origin,
                        num: txn.num,
                    });
                let key = op.key.clone();
                let mut events = EventBuf::new();
                // `of` is unknown at remote sites until the commit request;
                // use a sentinel larger than any index so fully_prepared
                // stays false until then.
                st.deliver_write_op(txn, prio, op, usize::MAX, now, &mut events);
                work.extend(events.into_iter().map(Work::Event));
                // Ack now if granted (or if we do not replicate the key —
                // nothing to lock), otherwise when the queue grants it.
                let granted = st
                    .remote
                    .get(&txn)
                    .is_some_and(|e| e.keys_granted.contains(&key))
                    || !st.placement.is_holder(st.me, &key, st.n);
                if granted {
                    self.emit_ack(st, fx, txn, index, work);
                } else {
                    self.pending_acks.insert((txn, key), index);
                }
            }
            P2pMsg::WriteAck { txn, index } => {
                self.record_ack(st, fx, now, from, txn, index, work);
            }
            P2pMsg::CommitReq { txn, writes } => {
                let prio = self
                    .driving
                    .get(&txn)
                    .map(|d| d.prio)
                    .unwrap_or(TxnPriority {
                        ts: u64::MAX,
                        origin: txn.origin,
                        num: txn.num,
                    });
                let Some(entry) = st.remote_entry(txn, prio) else {
                    return;
                };
                entry.commit_req_seen = true;
                entry.n_writes = Some(writes.len());
                // Writes arrived (and were acked) before the commit request
                // on FIFO links, so the site is prepared: vote YES to all.
                entry.my_vote = Some(true);
                st.trace_vote(txn, true, now);
                let me = st.me;
                for site in 0..st.n {
                    let site = SiteId(site);
                    let vote = P2pMsg::Vote {
                        txn,
                        site: me,
                        yes: true,
                    };
                    if site == me {
                        work.push_back(Work::Msg(me, vote));
                    } else {
                        fx.send_to(site, ReplicaMsg::P2p(vote));
                    }
                }
            }
            P2pMsg::Vote { txn, site, yes } => {
                let prio = TxnPriority {
                    ts: u64::MAX,
                    origin: txn.origin,
                    num: txn.num,
                };
                let n = st.n;
                let Some(entry) = st.remote_entry(txn, prio) else {
                    return;
                };
                if yes {
                    entry.votes_yes.insert(site);
                } else {
                    entry.votes_no.insert(site);
                }
                let all_yes = (0..n).all(|s| entry.votes_yes.contains(&SiteId(s)));
                let any_no = !entry.votes_no.is_empty();
                let prepared = entry.fully_prepared();
                let mut events = EventBuf::new();
                if any_no {
                    st.apply_remote_abort(txn, AbortReason::NegativeVote, now, &mut events);
                    self.driving.remove(&txn);
                } else if all_yes && prepared {
                    st.apply_commit(txn, now, &mut events);
                    self.driving.remove(&txn);
                }
                work.extend(events.into_iter().map(Work::Event));
            }
            P2pMsg::Abort { txn } => {
                let mut events = EventBuf::new();
                st.apply_remote_abort(txn, AbortReason::Timeout, now, &mut events);
                self.driving.remove(&txn);
                work.extend(events.into_iter().map(Work::Event));
            }
        }
    }

    /// Sends (or locally records) the acknowledgement that `index` of
    /// `txn` holds its lock at this site.
    fn emit_ack(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        txn: TxnId,
        index: usize,
        work: &mut VecDeque<Work>,
    ) {
        if txn.origin == st.me {
            work.push_back(Work::Msg(st.me, P2pMsg::WriteAck { txn, index }));
        } else {
            fx.send_to(txn.origin, ReplicaMsg::P2p(P2pMsg::WriteAck { txn, index }));
        }
    }

    /// Origin side: counts acknowledgements for the current op; when all
    /// sites acked, moves to the next op (or the commit phase).
    #[allow(clippy::too_many_arguments)]
    fn record_ack(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        from: SiteId,
        txn: TxnId,
        index: usize,
        work: &mut VecDeque<Work>,
    ) {
        let n = st.n;
        let Some(d) = self.driving.get_mut(&txn) else {
            return;
        };
        if index != d.current_op {
            return; // stale ack for an op already completed
        }
        d.acked.insert(from);
        if d.acked.len() >= n {
            d.current_op += 1;
            d.acked.clear();
            self.issue_current_op(st, fx, now, txn, work);
        }
    }

    /// Origin decision to abort `txn` everywhere (timeout).
    fn abort_globally(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        txn: TxnId,
        reason: AbortReason,
        work: &mut VecDeque<Work>,
    ) {
        self.driving.remove(&txn);
        for site in 0..st.n {
            let site = SiteId(site);
            if site != st.me {
                fx.send_to(site, ReplicaMsg::P2p(P2pMsg::Abort { txn }));
            }
        }
        let mut events = EventBuf::new();
        st.apply_remote_abort(txn, reason, now, &mut events);
        work.extend(events.into_iter().map(Work::Event));
    }
}
