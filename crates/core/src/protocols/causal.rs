//! §4 — the Causal Broadcast protocol with implicit acknowledgements.
//!
//! Write operations and commit requests travel by **causal broadcast**, and
//! the vector clocks of deliveries are exposed to this layer (the paper
//! names this as a requirement on the communication layer). Two ideas from
//! the paper replace the explicit vote round of §3:
//!
//! 1. **Implicit positive acknowledgements.** After a site `q` has handled
//!    `commit-req(T)`, *any* subsequent message from `q` carries a vector
//!    clock whose `T.origin` component covers the commit request — proof
//!    that `q` saw it and let it through its reader gate. A site commits
//!    `T` once it holds such proof from every view member and has
//!    delivered no NACK. Quiet sites would stall
//!    this, so sites with undecided transactions emit **null messages**
//!    (heartbeats) — the paper's suggested mitigation, measured in
//!    experiment F4.
//! 2. **Early conflict detection.** Two write sets whose vector clocks are
//!    *concurrent* conflict irreconcilably if they overlap; every site
//!    detects this independently from the exposed clocks and aborts the
//!    younger transaction — no communication needed (a NACK is still sent
//!    to accelerate the abort at sites that have not yet seen both).
//!
//! Safety of the implicit ack (why no site can commit `T` and later learn
//! of a concurrent conflicting winner): any transaction concurrent with `T`
//! was broadcast by its origin *before* that origin delivered
//! `commit-req(T)`, hence before the origin's acknowledging message; causal
//! (FIFO per sender) delivery puts those writes before the ack at every
//! site. Collecting acks from the full view therefore closes `T`'s
//! concurrency window — the commit evaluation sees every candidate.
//!
//! Conflicts *ordered* by causality queue in causal order (identical at all
//! sites, and acyclic — so no deadlock). Broadcast transactions are never
//! wounded site-locally here: unlike §3 there is no vote with which to
//! publish a wound, so a site-local wound could contradict an
//! already-emitted implicit ack.

use crate::cluster::ClusterConfig;
use crate::metrics::AbortReason;
use crate::payload::{Payload, ReplicaMsg, Shelf, TxnPriority};
use crate::protocols::{
    Cx, Gate, ProtoSnapshot, Reader, RetransmitBackoff, Variation, Verdict, Work,
};
use crate::state::{LocalEvent, SiteSet, SiteState};
use bcastdb_broadcast::causal::{self, CausalBcast};
use bcastdb_broadcast::VectorClock;
use bcastdb_db::{KeyMap, TxnId, WriteOp};
use bcastdb_sim::SiteId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Fewest conflict-index insertions between two pruning passes.
const PRUNE_FLOOR: usize = 64;

/// What this protocol's dissemination layer hands up.
#[derive(Debug)]
pub(crate) enum CbWork {
    /// A causal delivery, its vector clock exposed.
    Deliver(causal::Delivery<Arc<Payload>>),
    /// All write operations of a local transaction are out (and their
    /// self-deliveries processed): gate against local readers, then either
    /// broadcast the commit request or give up.
    FinishWrite(TxnId, TxnPriority, usize),
}

/// One driver step of this protocol.
type CbCx<'a> = Cx<'a, CbWork>;

/// Causal-protocol bookkeeping for one broadcast transaction.
#[derive(Debug, Clone, Default)]
struct CbTxn {
    /// `commit-req`'s component at the origin; acks must cover this.
    cr_seq: Option<u64>,
    /// Sites that explicitly rejected the transaction.
    nacked: SiteSet,
    /// Commit decided; applied when locks are all granted.
    commit_pending: bool,
}

/// What the causal-broadcast protocol varies at one site.
///
/// The broadcast engine is instantiated with `Arc<Payload>` so its archive,
/// pending set, and per-destination fan-out share one payload (off
/// `shelf`) per broadcast instead of deep-cloning it N−1 times.
#[derive(Debug)]
pub struct CausalProto {
    cb: CausalBcast<Arc<Payload>>,
    shelf: Shelf,
    info: BTreeMap<TxnId, CbTxn>,
    /// Vector clock of each delivered write operation (and its
    /// transaction's priority: the entry outlives the `RemoteTxn`), by
    /// key, each list in `TxnId` order — the conflict index. Concurrency is classified
    /// **per operation**: a transaction's operations are broadcast
    /// individually and are not a causal unit — one op can causally
    /// precede a peer while the next is concurrent with it. Two
    /// operations can only conflict on a shared key, so both
    /// classification sites look up the keys at hand instead of walking
    /// transactions; [`CausalProto::prune`] retires entries nothing can
    /// match any more.
    key_ops: KeyMap<Vec<(TxnId, TxnPriority, VectorClock)>>,
    /// Vectors of keys whose every entry was pruned, kept for the next new
    /// key: at most as many as keys were indexed at once.
    spare_ops: Vec<Vec<(TxnId, TxnPriority, VectorClock)>>,
    /// Insertions into `key_ops` left before the next prune: as many as
    /// the last one left entries, so the index never holds more than twice
    /// what is live and pruning is O(1) amortized per op.
    until_prune: usize,
    /// The last clock delivered from each site. A sender's clocks only
    /// grow and arrive in FIFO order, so everything it sends from now on
    /// dominates this — and it is the sender's implicit acknowledgement of
    /// every commit request it covers (see [`CausalProto::try_decide`]).
    last_from: Vec<VectorClock>,
    /// Test builds only: every write-operation clock ever delivered, the
    /// pre-index full scan `try_decide` checks the index against.
    #[cfg(test)]
    oracle: tests::oracle::History,
    /// Emit a null message on ticks while transactions are undecided.
    null_messages: bool,
    /// Loss-recovery mode: eager relaying, and archived messages are
    /// retransmitted to lagging peers.
    recover_losses: bool,
    /// What this site has *handled* of the engine's deliveries, and so the
    /// stamp of its broadcasts: a stamp is an implicit acknowledgement of
    /// every commit request it covers, which must not outrun the reader
    /// gate of a delivery still queued behind the one being handled.
    processed: VectorClock,
    /// This site's clock at its most recent broadcast: the evidence other
    /// sites hold about what we have delivered. If it does not cover a
    /// delivered commit request, our implicit acknowledgement has not been
    /// published yet and a null message is due.
    last_bcast_vc: VectorClock,
    /// Per origin, `(cr_seq, txn)` of each delivered commit request whose
    /// transaction may be undecided — all a new implicit acknowledgement
    /// can advance. Sorted by `cr_seq`, since one origin's requests arrive
    /// in FIFO order; decided entries leave from the front as deliveries
    /// pass, and from anywhere when the index is pruned.
    ack_waiting: Vec<VecDeque<(u64, TxnId)>>,
    /// Scratch list of the transactions one delivery newly acknowledges.
    newly_acked: Vec<TxnId>,
    /// Per-origin maximum commit-request sequence delivered so far.
    /// `cr_seq` values from one origin only grow, so "some delivered
    /// commit request is not covered by our last broadcast" reduces to
    /// comparing this clock against `last_bcast_vc` — O(n) per tick
    /// instead of a scan over every transaction ever seen.
    max_cr_seq: VectorClock,
    /// Cadence control of the periodic null/gap-report broadcast.
    backoff: RetransmitBackoff,
    /// `(sum of remote clock components, pending holes)` at the last tick —
    /// the progress signal that resets the backoff. Our own component is
    /// excluded: each null we send self-delivers, and counting that as
    /// progress would keep the cadence pinned at every tick.
    last_progress: (u64, usize),
}

impl CausalProto {
    fn has_unpublished_ack(&self) -> bool {
        self.max_cr_seq
            .iter()
            .any(|(origin, k)| self.last_bcast_vc.get(origin) < k)
    }

    fn bcast(&mut self, cx: &mut CbCx, payload: Payload) {
        // Every wire copy and archive entry from here on is a refcount bump.
        let payload = self.shelf.make(payload);
        let (_, out) = self.cb.broadcast_after(&mut self.processed, payload);
        self.last_bcast_vc.copy_from(&self.processed);
        Self::route(cx, out);
    }

    fn route(cx: &mut CbCx, out: causal::Output<Arc<Payload>>) {
        cx.route(
            out.outbound,
            out.deliveries.into_iter().map(CbWork::Deliver),
        );
    }

    /// Final step of a write phase: runs the origin-side reader gate and,
    /// if the transaction is still viable, broadcasts the commit request.
    fn finish_write(&mut self, cx: &mut CbCx, id: TxnId, prio: TxnPriority, n_writes: usize) {
        if cx.st.decided.contains_key(&id) {
            return; // doomed by early conflict detection meanwhile
        }
        // Origin-side gate: settle conflicts with our own local readers
        // *before* the commit request exists anywhere.
        self.gate_readers(cx, id);
        if cx.st.decided.contains_key(&id) || !cx.st.local.contains_key(&id) {
            return; // the gate vetoed us (read-only conflict)
        }
        cx.st.trace_commit_req_out(id, cx.now);
        let request = Payload::CommitReq {
            txn: id,
            prio,
            n_writes,
            read_versions: Vec::new(),
            write_versions: Vec::new(),
        };
        self.bcast(cx, request);
    }

    fn on_delivery(&mut self, cx: &mut CbCx, d: causal::Delivery<Arc<Payload>>) {
        let sender = d.id.origin;
        // Whatever we broadcast from here on claims this delivery.
        let seq = d.id.seq.max(self.processed.get(sender));
        self.processed.set(sender, seq);
        // A NACK must take effect before the same message is credited as
        // its sender's implicit acknowledgement — otherwise the NACK's own
        // clock could complete the ack set and commit the transaction it
        // rejects. One for a settled transaction has nothing left to do.
        if let Payload::Nack { txn, site } = &*d.payload {
            if !cx.st.decided.contains_key(txn) {
                self.info.entry(*txn).or_default().nacked.insert(*site);
            }
        }
        // Every delivery is a potential implicit acknowledgement: the
        // sender's clock proves which commit requests it had processed.
        self.absorb_implicit_acks(cx, sender, &d.vc);

        match &*d.payload {
            Payload::Write {
                txn, prio, op, of, ..
            } => self.on_write(cx, *txn, *prio, op, *of, d.vc),
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
                let info = self.info.entry(txn).or_default();
                let cr_seq = d.vc.get(txn.origin);
                info.cr_seq = Some(cr_seq);
                if cr_seq > self.max_cr_seq.get(txn.origin) {
                    self.max_cr_seq.set(txn.origin, cr_seq);
                }
                self.ack_waiting[txn.origin.0].push_back((cr_seq, txn));
                // From this instant on, our outgoing traffic is an implicit
                // YES — so the gate must run *now*, while no other site can
                // yet hold our acknowledgement (everything we broadcast so
                // far causally precedes this commit request).
                self.gate_readers(cx, txn);
                self.try_decide(cx, txn);
            }
            &Payload::Nack { txn, .. } => self.try_decide(cx, txn),
            Payload::Null => {}
            Payload::Vote { .. } | Payload::AbortDecision { .. } => {
                // Not used by this protocol.
            }
        }
    }

    /// Records the clock of a message from `sender` and re-evaluates, in
    /// `TxnId` order, what it newly acknowledges: per origin, the commit
    /// requests between `sender`'s previous clock and this one. (An origin
    /// and this site acknowledge implicitly; see `try_decide`.)
    fn absorb_implicit_acks(&mut self, cx: &mut CbCx, sender: SiteId, vc: &VectorClock) {
        let mut acked = std::mem::take(&mut self.newly_acked);
        if sender != cx.st.me {
            let decided = |(_, txn): &(u64, TxnId)| cx.st.decided.contains_key(txn);
            let before = &self.last_from[sender.0];
            for (origin, waiting) in self.ack_waiting.iter_mut().enumerate() {
                while waiting.front().is_some_and(decided) {
                    waiting.pop_front();
                }
                let (from, to) = (before.get(SiteId(origin)), vc.get(SiteId(origin)));
                if origin != sender.0 && to > from {
                    let lo = waiting.partition_point(|&(k, _)| k <= from);
                    let hi = waiting.partition_point(|&(k, _)| k <= to);
                    acked.extend(waiting.range(lo..hi).map(|&(_, txn)| txn));
                }
            }
        }
        self.last_from[sender.0].copy_from(vc);
        acked.sort_unstable();
        for txn in acked.drain(..) {
            self.try_decide(cx, txn);
        }
        self.newly_acked = acked;
    }

    /// Handles a delivered write: classify against other broadcast
    /// transactions, abort concurrent losers, then lock.
    fn on_write(
        &mut self,
        cx: &mut CbCx,
        txn: TxnId,
        prio: TxnPriority,
        op: &WriteOp,
        of: usize,
        vc: VectorClock,
    ) {
        #[cfg(test)]
        self.oracle.record(txn, prio, &op.key, &vc);
        // Early conflict detection: another *operation* on the same key
        // whose clock is concurrent with this one means the two
        // transactions conflict irreconcilably. Only undecided writers can
        // conflict.
        let ops = (self.key_ops.entry(op.key.clone()))
            .or_insert_with(|| self.spare_ops.pop().unwrap_or_default());
        let mut peers: Vec<(TxnId, TxnPriority)> = Vec::new();
        for (peer, peer_prio, pvc) in ops.iter() {
            if *peer != txn && cx.st.remote.contains_key(peer) && pvc.concurrent_with(&vc) {
                peers.push((*peer, *peer_prio));
            }
        }
        match ops.binary_search_by_key(&txn, |e| e.0) {
            Ok(i) => ops[i].2 = vc,
            Err(i) => {
                ops.insert(i, (txn, prio, vc));
                self.until_prune -= 1;
            }
        }
        if self.until_prune == 0 {
            self.prune(cx.st);
        }
        let mut doomed_self = false;
        for (peer, peer_prio) in peers {
            let loser = if prio.older_than(&peer_prio) {
                peer
            } else {
                txn
            };
            if loser == txn {
                doomed_self = true;
            }
            self.abort_with_nack(cx, loser);
        }
        if doomed_self || cx.st.decided.contains_key(&txn) {
            return; // no point acquiring locks for a dead transaction
        }
        cx.transition(|st, now, ev| st.deliver_write_op(txn, prio, op.clone(), of, now, ev));
    }

    /// Retires what no later classification can match. A write-operation
    /// clock dominated by the component-wise minimum of the last clock
    /// delivered from every site (our own current clock standing in for
    /// ours) is dominated by everything still to be delivered, so it is
    /// concurrent with none of it; what is already delivered and could
    /// still ask is a same-key operation of an undecided transaction.
    /// A decided transaction's ack bookkeeping is never read again.
    fn prune(&mut self, st: &SiteState) {
        let me = self.cb.me().0;
        let mut stable = self.cb.clock().clone();
        for (site, seen) in self.last_from.iter().enumerate() {
            if site != me {
                stable.meet(seen);
            }
        }
        let decided = |txn: &TxnId| st.decided.contains_key(txn);
        self.key_ops.retain(|_, ops| {
            let mut i = 0;
            while i < ops.len() {
                let (txn, _, vc) = &ops[i];
                let live = !decided(txn)
                    || !vc.dominated_by(&stable)
                    || ops
                        .iter()
                        .any(|(peer, _, pvc)| !decided(peer) && pvc.concurrent_with(vc));
                if live {
                    i += 1;
                } else {
                    ops.remove(i);
                }
            }
            if ops.is_empty() {
                self.spare_ops.push(std::mem::take(ops));
            }
            !ops.is_empty()
        });
        self.info.retain(|txn, _| !decided(txn));
        for waiting in &mut self.ack_waiting {
            waiting.retain(|(_, txn)| !decided(txn));
        }
        let live: usize = self.key_ops.values().map(Vec::len).sum();
        self.until_prune = live.max(PRUNE_FLOOR);
    }

    /// THE GATE, this protocol's policy: a read-only reader on one of the
    /// writer's keys vetoes the writer (explicit NACK) — read-only
    /// transactions are never aborted in this protocol; an update reader
    /// still in its read phase is wounded; an update reader that already
    /// broadcast its own writes vetoes the writer too: its reads are
    /// validated by the locks it holds until its own commitment.
    fn gate_readers(&mut self, cx: &mut CbCx, txn: TxnId) {
        let veto = cx.gate_local_readers(txn, |reader| match reader {
            Reader::ReadOnly | Reader::Writing => Gate::Veto,
            Reader::Reading => Gate::Wound,
        });
        if veto {
            self.abort_with_nack(cx, txn);
        }
    }

    /// Aborts `txn` locally (the deterministic rule makes every site reach
    /// the same verdict) and broadcasts a NACK to accelerate the others.
    fn abort_with_nack(&mut self, cx: &mut CbCx, txn: TxnId) {
        if cx.st.decided.contains_key(&txn) {
            return;
        }
        let site = cx.st.me;
        let nacked = &mut self.info.entry(txn).or_default().nacked;
        if !nacked.contains(site) {
            nacked.insert(site);
            cx.st.trace_vote(txn, false, cx.now);
            self.bcast(cx, Payload::Nack { txn, site });
        }
        cx.abort_remote(txn, AbortReason::ConcurrentConflict);
    }
}

impl Variation for CausalProto {
    type Delivery = CbWork;

    fn new(me: SiteId, cfg: &ClusterConfig) -> Self {
        let n = cfg.sites;
        let cb = CausalBcast::new(me, n);
        CausalProto {
            // Without loss recovery nobody ever asks this engine for
            // retransmissions, so skip the per-message archive clone.
            cb: if cfg.relay {
                cb.with_relay()
            } else {
                cb.without_archive()
            },
            shelf: Shelf::default(),
            info: BTreeMap::new(),
            key_ops: KeyMap::default(),
            spare_ops: Vec::new(),
            until_prune: PRUNE_FLOOR,
            last_from: vec![VectorClock::new(n); n],
            #[cfg(test)]
            oracle: Default::default(),
            null_messages: cfg.null_messages,
            recover_losses: cfg.relay,
            processed: VectorClock::new(n),
            last_bcast_vc: VectorClock::new(n),
            ack_waiting: vec![VecDeque::new(); n],
            newly_acked: Vec::new(),
            max_cr_seq: VectorClock::new(n),
            backoff: RetransmitBackoff::new(me, cfg.retransmit_backoff),
            last_progress: (0, 0),
        }
    }

    /// Broadcast transactions are never wounded site-locally (there is no
    /// vote to publish a wound with), and conflicting writers queue in
    /// delivery order — causal order, the one order every site shares.
    fn configure_state(st: &mut SiteState) {
        st.wound_remote = false;
        st.rank_by_delivery = true;
    }

    fn on_wire(&mut self, cx: &mut CbCx, from: SiteId, msg: ReplicaMsg) {
        let wire = match msg {
            // A retransmitted wire: identical processing, but never treated
            // as a live gap report (its clock is historical).
            ReplicaMsg::CRetrans(wire) => wire,
            ReplicaMsg::C(wire) => {
                // In loss-recovery mode a *null* message doubles as a gap
                // report: its clock reveals what its origin had delivered,
                // so ship it anything we have that it lacks. Only direct
                // (unrelayed, unretransmitted) nulls trigger this — reacting
                // to every wire would let stale retransmitted clocks solicit
                // retransmissions of their own, a storm that never drains.
                if self.recover_losses
                    && from == wire.id.origin
                    && matches!(*wire.payload, Payload::Null)
                {
                    // Only our *own* missing messages are retransmitted from
                    // here: with every site answering for every gap, a lossy
                    // cluster floods itself — one authoritative responder
                    // per message is enough (the origin always has its own
                    // archive).
                    let me = self.cb.me();
                    self.cb.retransmissions_for(&wire.vc, 16, |w| {
                        if w.id.origin == me {
                            cx.fx.send_to(from, ReplicaMsg::CRetrans(w));
                        }
                    });
                }
                wire
            }
            _ => return, // traffic of a protocol this cluster does not run
        };
        let out = self.cb.on_wire(from, wire);
        Self::route(cx, out);
    }

    /// Causal order keeps an origin's writes ahead of its commit request
    /// everywhere.
    fn disseminate_write(&mut self, cx: &mut CbCx, write: Payload) {
        self.bcast(cx, write);
    }

    /// The commit request is NOT broadcast here: the self-deliveries of our
    /// own write operations (queued ahead in the work queue) may detect a
    /// concurrent conflict and doom this transaction, and the origin's
    /// reader gate must also run first. Once a remote site delivers the
    /// commit request it may decide immediately (with N = 2 its ack set
    /// completes on the spot), so every origin-side veto must precede the
    /// request on the wire.
    fn request_commit(&mut self, cx: &mut CbCx, txn: TxnId, prio: TxnPriority, n_writes: usize) {
        let deferred = CbWork::FinishWrite(txn, prio, n_writes);
        cx.work.push_back(Work::Deliver(deferred));
    }

    fn on_deliver(&mut self, cx: &mut CbCx, d: CbWork) {
        match d {
            CbWork::Deliver(d) => self.on_delivery(cx, d),
            CbWork::FinishWrite(id, prio, n_writes) => self.finish_write(cx, id, prio, n_writes),
        }
    }

    fn on_event(&mut self, cx: &mut CbCx, ev: LocalEvent) {
        match ev {
            // Locks complete: if the commit was already decided, apply.
            LocalEvent::RemotePrepared(id)
                if self.info.get(&id).is_some_and(|i| i.commit_pending) =>
            {
                cx.apply_commit(id)
            }
            LocalEvent::RemoteDoomed(..) => {
                // Cannot happen: wound_remote is disabled for this protocol
                // (site-local wounds cannot be published without votes).
                debug_assert!(
                    false,
                    "causal protocol must not doom broadcast transactions"
                );
            }
            _ => {}
        }
    }

    /// Commits `txn` if (a) acks cover the view, (b) nobody NACKed, and
    /// (c) the deterministic concurrency evaluation finds no older
    /// concurrent conflicting peer. Aborts on NACK.
    ///
    /// An acknowledgement here is *implicit*: any message from a site
    /// whose clock covers the commit request. On the fast path the
    /// survivors' acks close the concurrency window for every *surviving*
    /// origin (causal order puts an origin's concurrent writes before its
    /// ack), and anything the suspect broadcast before falling silent
    /// arrived long ago — the suspicion timeout dwarfs the link latency.
    /// So the evaluation below sees every candidate, exactly as if the
    /// view change evicting the suspect had already been installed.
    fn try_decide(&mut self, cx: &mut CbCx, txn: TxnId) {
        if cx.st.decided.contains_key(&txn) {
            return;
        }
        let Some(info) = self.info.get(&txn) else {
            return;
        };
        // Acknowledgements are derived, not collected: the origin and this
        // site acknowledge once the commit request is delivered here (before
        // that nothing can be decided but a rejection), any other site once
        // the last clock delivered from it covers the request.
        let (me, origin) = (cx.st.me, txn.origin);
        let acked = |s: SiteId| {
            let covers = |k| s == origin || s == me || self.last_from[s.0].get(origin) >= k;
            info.cr_seq.is_some_and(covers)
        };
        let delivered = info.cr_seq.is_some();
        let fast = match cx.quorum.verdict(!info.nacked.is_empty(), delivered, acked) {
            Verdict::Abort => {
                cx.abort_remote(txn, AbortReason::ConcurrentConflict);
                return;
            }
            Verdict::Commit if delivered => false,
            Verdict::FastCommit => true,
            _ => return,
        };
        let Some(entry) = cx.st.remote.get(&txn) else {
            return;
        };
        if entry.n_writes != Some(entry.ops.len()) {
            return; // write set incomplete (cannot happen with FIFO, but be safe)
        }
        // Deterministic evaluation: the ack set closes the concurrency
        // window, so every concurrent conflicting candidate operation is
        // already delivered here. An older peer with a same-key
        // operation concurrent with ours → we abort, whatever became of
        // the peer: the rule is pairwise, so every site reaches it alike.
        let my_prio = entry.prio;
        let mut examined = 0;
        let loses = entry.ops.iter().any(|op| {
            let ops = &self.key_ops[&op.key];
            let mine = ops.binary_search_by_key(&txn, |e| e.0).expect("own op");
            ops.iter().any(|(peer, peer_prio, pvc)| {
                examined += u64::from(*peer != txn);
                peer_prio.older_than(&my_prio) && pvc.concurrent_with(&ops[mine].2)
            })
        });
        cx.st
            .stats
            .counter_add("cb.decide_peers_examined", examined);
        #[cfg(test)]
        assert_eq!(loses, self.oracle.loses(cx.st, txn), "index vs scan: {txn}");
        if loses {
            cx.st.trace_decided(txn, false, cx.now);
            cx.abort_remote(txn, AbortReason::ConcurrentConflict);
            return;
        }
        // The implicit-acknowledgement wait ends here: the ack set is
        // complete and the verdict is fixed, whether or not the lock
        // queue lets us apply yet.
        if fast {
            cx.st.trace_fast_decide(txn, cx.now);
        }
        cx.st.trace_decided(txn, true, cx.now);
        if cx.st.remote[&txn].fully_prepared() {
            cx.apply_commit(txn);
        } else {
            // Application waits for the lock queue (causal order
            // guarantees every site installs in the same order).
            self.info.get_mut(&txn).expect("present").commit_pending = true;
        }
    }

    /// True while this site still owes the cluster a message: either a
    /// transaction known here is undecided, or a delivered commit request
    /// has not yet been covered by any of our broadcasts (its implicit
    /// acknowledgement is unpublished).
    fn needs_ticks(&self, st: &SiteState) -> bool {
        self.null_messages
            && (st.has_undecided()
                || self.has_unpublished_ack()
                // Loss recovery: holes in the causal stream block deliveries
                // we may not even know about; keep advertising our clock so
                // peers can fill the gaps.
                || (self.recover_losses && self.cb.pending_len() > 0))
    }

    /// Emits a null message while this site owes the cluster evidence —
    /// an unpublished implicit acknowledgement, or liveness for
    /// transactions still undecided here (the paper's keep-alive
    /// mitigation for quiet sites).
    fn on_tick(&mut self, cx: &mut CbCx) {
        if !self.needs_ticks(cx.st) {
            return;
        }
        // Progress check for the backoff cadence: a remote clock component
        // moving or a pending hole closing means the last solicitation (or
        // regular traffic) worked — go back to every-tick.
        let me = self.cb.me();
        let remote: u64 = self
            .cb
            .clock()
            .iter()
            .filter(|&(s, _)| s != me)
            .map(|(_, k)| k)
            .sum();
        let progress = (remote, self.cb.pending_len());
        if progress != self.last_progress {
            self.backoff.reset();
            self.last_progress = progress;
        }
        if self.backoff.due() {
            self.bcast(cx, Payload::Null);
        }
    }

    fn snapshot(&self) -> ProtoSnapshot {
        ProtoSnapshot::Causal(self.cb.clock().clone())
    }

    fn resume(&mut self, donor: &ProtoSnapshot, _view: &BTreeSet<SiteId>) {
        let ProtoSnapshot::Causal(donor_clock) = donor else {
            return;
        };
        self.cb.resume_from(donor_clock);
        self.processed.copy_from(self.cb.clock());
        self.last_bcast_vc = self.cb.clock().clone();
        self.info.clear();
        self.key_ops.clear();
        self.until_prune = PRUNE_FLOOR;
        // A rejoining site cannot vouch for what its peers send next.
        let n = self.last_from.len();
        self.last_from.fill(VectorClock::new(n));
        #[cfg(test)]
        {
            self.oracle = Default::default();
        }
        self.ack_waiting.iter_mut().for_each(VecDeque::clear);
        self.max_cr_seq = VectorClock::new(n);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The deterministic evaluation as it was before the conflict index:
    /// every write clock ever delivered, walked whole at each decision.
    /// `try_decide` asserts the index agrees with it in test builds.
    pub(crate) mod oracle {
        use crate::payload::TxnPriority;
        use crate::state::SiteState;
        use bcastdb_broadcast::VectorClock;
        use bcastdb_db::{Key, TxnId};
        use std::collections::BTreeMap;

        #[derive(Debug, Default)]
        pub(crate) struct History(
            pub(crate) BTreeMap<TxnId, (TxnPriority, BTreeMap<Key, VectorClock>)>,
        );

        impl History {
            pub(crate) fn record(
                &mut self,
                txn: TxnId,
                prio: TxnPriority,
                key: &Key,
                vc: &VectorClock,
            ) {
                let ops = &mut self
                    .0
                    .entry(txn)
                    .or_insert_with(|| (prio, BTreeMap::new()))
                    .1;
                ops.insert(key.clone(), vc.clone());
            }

            /// An older transaction has a same-key operation concurrent
            /// with one of `txn`'s.
            pub(crate) fn loses(&self, st: &SiteState, txn: TxnId) -> bool {
                let my_prio = st.remote[&txn].prio;
                self.0.iter().any(|(peer, (peer_prio, peer_ops))| {
                    *peer != txn
                        && peer_prio.older_than(&my_prio)
                        && self.0[&txn].1.iter().any(|(key, my_vc)| {
                            peer_ops
                                .get(key)
                                .is_some_and(|pvc| pvc.concurrent_with(my_vc))
                        })
                })
            }
        }
    }
    use crate::payload::ProtocolKind;
    use crate::protocols::tests::cfg;
    use crate::protocols::{Driver, Effects, Protocol, Step};
    use bcastdb_broadcast::msg::MsgId;
    use bcastdb_db::TxnSpec;
    use bcastdb_sim::SimTime;

    type Rig = crate::protocols::tests::Rig<Driver<CausalProto>>;

    fn rig(n: usize) -> Rig {
        Rig::of(&cfg(n, ProtocolKind::CausalBcast))
    }

    /// A late duplicate of `payload`, as the causal engine would deliver it.
    pub(crate) fn redeliver(p: &Driver<CausalProto>, payload: Payload) -> Vec<CbWork> {
        let late = causal::Delivery {
            id: MsgId {
                origin: SiteId(1),
                seq: 99,
            },
            vc: p.rules.cb.clock().clone(),
            payload: Arc::new(payload),
        };
        vec![CbWork::Deliver(late)]
    }

    #[test]
    fn null_cadence_backs_off_and_resets_on_remote_progress() {
        // An undecided local transaction keeps ticks wanted forever (its
        // peers never answer in this rig — a stalled cluster).
        let relaying = ClusterConfig {
            relay: true,
            retransmit_backoff: true,
            ..cfg(3, ProtocolKind::CausalBcast)
        };
        let mut rig = Rig::of(&relaying);
        rig.submit(0, 0, TxnSpec::new().write("x", 1));
        assert!(rig.protos[0].needs_ticks(&rig.states[0]));

        let mut fired = 0;
        for _ in 0..64 {
            let before = rig.sent.len();
            rig.step(0, 50, |p, step| p.on_tick(step));
            fired += usize::from(rig.sent.len() > before);
        }
        assert!(
            (1..16).contains(&fired),
            "64 stalled ticks must coalesce into a handful of nulls \
             (own null self-deliveries are not progress), got {fired}"
        );

        // A remote delivery is progress: the next tick fires again.
        let mut vc = VectorClock::new(3);
        vc.set(SiteId(1), 1);
        let wire = causal::Wire {
            id: MsgId {
                origin: SiteId(1),
                seq: 1,
            },
            vc,
            payload: Arc::new(Payload::Null),
        };
        rig.step(0, 60, |p, step| {
            p.on_msg(step, SiteId(1), ReplicaMsg::C(wire))
        });
        let nulls = |rig: &Rig| {
            rig.sent
                .iter()
                .filter(|m| m.counter() == Some("msg_null"))
                .count()
        };
        let before = nulls(&rig);
        rig.step(0, 70, |p, step| p.on_tick(step));
        assert!(nulls(&rig) > before, "post-progress tick emits again");
    }

    #[test]
    fn commit_through_implicit_acknowledgements_only() {
        let mut rig = rig(3);
        let id = rig.submit(0, 1, TxnSpec::new().write("x", 9));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(true), "site {i}");
            assert_eq!(st.store.value(&"x".into()), 9, "site {i}");
        }
        // No votes exist in this protocol, and a decided transaction
        // leaves nothing behind.
        assert_eq!(rig.vote_msgs(), 0);
        for st in &rig.states {
            assert!(st.remote.is_empty());
        }
    }

    #[test]
    fn concurrent_conflicting_writers_lose_younger() {
        let mut rig = rig(3);
        // Both broadcast before seeing each other: concurrent by
        // construction (no wires delivered in between).
        let older = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        let younger = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&older), Some(true), "older commits at {i}");
            assert_eq!(
                st.decided.get(&younger),
                Some(false),
                "younger aborts at {i}"
            );
            assert_eq!(st.store.value(&"x".into()), 1, "older's write wins at {i}");
        }
    }

    #[test]
    fn causally_ordered_writers_both_commit_in_order() {
        let mut rig = rig(3);
        let first = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        rig.settle(); // first fully delivered before the second starts
        let second = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        rig.settle();
        for st in &rig.states {
            assert_eq!(st.decided.get(&first), Some(true));
            assert_eq!(st.decided.get(&second), Some(true));
            let of_x = st.store.installs().filter(|(k, _)| k.as_str() == "x");
            assert_eq!(
                of_x.map(|(_, txn)| txn).collect::<Vec<_>>(),
                [first, second],
                "causal order = install order"
            );
        }
    }

    /// The one case where `try_decide`, not `on_write`, delivers the
    /// concurrency verdict: the older peer is already decided here when the
    /// younger transaction's write arrives, so early detection skips it and
    /// the evaluation at ack-set closure must still find it.
    #[test]
    fn older_peer_decided_before_ack_set_closes_still_wins() {
        let mut rig = rig(3);
        let older = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        let younger = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        // Drive site 2 alone, from the wires addressed to it.
        let mut inbox: Vec<(SiteId, causal::Wire<Arc<Payload>>)> = Vec::new();
        for (from, to, msg) in rig.wires.drain(..) {
            if let (SiteId(2), ReplicaMsg::C(wire)) = (to, msg) {
                inbox.push((from, wire));
            }
        }
        let (proto, st) = (&mut rig.protos[2], &mut rig.states[2]);
        // Site 2 is driven alone: whatever it sends goes nowhere.
        fn discarding<'a>(st: &'a mut SiteState, fx: &'a mut Effects) -> Step<'a> {
            let now = SimTime::from_micros(2);
            Step { st, fx, now }
        }
        let mut deliver = |proto: &mut Driver<CausalProto>, st: &mut SiteState, from: SiteId| {
            let next = inbox.iter().position(|(f, _)| *f == from).expect("wire");
            let (from, wire) = inbox.remove(next);
            proto.on_msg(
                discarding(st, &mut Effects::new()),
                from,
                ReplicaMsg::C(wire),
            );
        };
        // The older transaction's write, then a local veto of it: decided
        // here before anything of the younger one is delivered.
        deliver(proto, st, SiteId(0));
        proto.pump(discarding(st, &mut Effects::new()), |v, cx| {
            v.abort_with_nack(cx, older)
        });
        assert_eq!(st.decided.get(&older), Some(false));
        deliver(proto, st, SiteId(0)); // its commit request: ignored
        deliver(proto, st, SiteId(1)); // the younger write: no live peer
        deliver(proto, st, SiteId(1)); // its commit request: acks {1, 2}
        assert!(!st.decided.contains_key(&younger), "ack set still open");
        // Site 0 acknowledges with a plain null (its own NACK of the
        // younger transaction is withheld): the ack set closes and only
        // the deterministic evaluation can reject.
        let mut vc = VectorClock::new(3);
        vc.set(SiteId(0), 3);
        vc.set(SiteId(1), 2);
        let id = MsgId {
            origin: SiteId(0),
            seq: 3,
        };
        let payload = Arc::new(Payload::Null);
        let null = ReplicaMsg::C(causal::Wire { id, vc, payload });
        proto.on_msg(discarding(st, &mut Effects::new()), SiteId(0), null);
        assert_eq!(st.decided.get(&younger), Some(false));
        assert_eq!(st.store.value(&"x".into()), 0);
    }

    /// One wire unblocks two commit requests at a site. A NACK the site
    /// sends while handling the first must not claim the second: that one's
    /// reader gate has not run here yet, and other sites read any clock
    /// covering a commit request as this site's implicit YES to it.
    #[test]
    fn a_broadcast_claims_only_the_deliveries_already_handled() {
        let mut rig = rig(3);
        // A read-only reader of x at site 2, paused between its two reads:
        // it vetoes any writer of x whose commit request arrives meanwhile.
        rig.states[2].think = bcastdb_sim::SimDuration::from_millis(1);
        rig.submit(2, 1, TxnSpec::new().read("x").read("w"));
        let mut inbox = Vec::new();
        let mut deliver_or_hold = |rig: &mut Rig| {
            for (from, to, msg) in std::mem::take(&mut rig.wires) {
                match to {
                    SiteId(1) => rig.step(1, 2, |p, step| p.on_msg(step, from, msg)),
                    SiteId(2) => inbox.push((from, msg)),
                    _ => {}
                }
            }
        };
        // Site 0's writer of x reaches site 1, whose writer of y then goes
        // out causally after it; site 2 has heard nothing yet.
        let vetoed = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        deliver_or_hold(&mut rig);
        rig.submit(1, 20, TxnSpec::new().write("y", 2));
        deliver_or_hold(&mut rig);
        let seq = |msg: &ReplicaMsg| match msg {
            ReplicaMsg::C(wire) => wire.id.seq,
            _ => unreachable!("causal traffic only"),
        };
        assert_eq!(
            inbox.iter().map(|(_, m)| seq(m)).collect::<Vec<_>>(),
            [1, 2, 1, 2]
        );
        // x's write, then y's write and commit request (held back: they
        // follow x's commit request), then x's commit request, which
        // releases all three in one batch.
        for i in [0, 2, 3, 1] {
            let (from, msg) = inbox[i].clone();
            rig.step(2, 3, |p, step| p.on_msg(step, from, msg));
        }
        let nack = rig.sent.iter().find_map(|msg| match msg {
            ReplicaMsg::C(wire) if matches!(*wire.payload, Payload::Nack { .. }) => Some(wire),
            _ => None,
        });
        let nack = nack.expect("the reader vetoes x's writer");
        assert_eq!(
            *nack.payload,
            Payload::Nack {
                txn: vetoed,
                site: SiteId(2)
            }
        );
        assert_eq!(
            nack.vc.get(SiteId(0)),
            2,
            "proves delivery of what it rejects"
        );
        assert_eq!(nack.vc.get(SiteId(1)), 0, "claims nothing of y's writer");
    }

    #[test]
    fn nack_aborts_at_every_site() {
        let mut rig = rig(3);
        let id = rig.submit(0, 1, TxnSpec::new().write("x", 5));
        // Site 2 rejects it out-of-band before settling.
        rig.step(2, 3, |p, step| {
            p.pump(step, |v, cx| v.abort_with_nack(cx, id))
        });
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(false), "site {i} aborted on NACK");
        }
    }

    /// One input of a lock-step schedule on three sites.
    #[derive(Debug, Clone)]
    enum Input {
        /// A transaction at a site reading one key and writing one or two.
        Submit(usize, usize, usize),
        /// The oldest message on one busy link (per-link FIFO).
        Deliver(usize),
        Tick,
        /// Everything in flight delivered and every transaction decided,
        /// so the next prune can empty keys that later writes refill.
        Settle,
    }

    fn input() -> impl Strategy<Value = Input> {
        let submit = (0usize..3, 0usize..3, 0usize..4).prop_map(|(s, r, w)| Input::Submit(s, r, w));
        let deliver = (0usize..16).prop_map(Input::Deliver);
        prop_oneof![
            submit.clone(),
            submit,
            deliver.clone(),
            deliver.clone(),
            deliver,
            Just(Input::Tick),
            Just(Input::Settle)
        ]
    }

    /// Key vectors a run's prunes emptied, and new keys that took one.
    #[derive(Debug, Default)]
    struct Reached {
        emptied: usize,
        refilled: usize,
    }

    /// Runs one schedule. After every input, every row of every site's
    /// conflict index is one the full history holds under that key (a
    /// reused vector carries nothing of its last key); at the end every
    /// transaction terminates alike everywhere.
    fn run_schedule(steps: Vec<Input>) -> Result<Reached, TestCaseError> {
        let keys = ["x", "y", "z"];
        let mut rig = rig(3);
        let mut txns = Vec::new();
        let mut reached = Reached::default();
        for (ts, input) in steps.into_iter().enumerate() {
            let before: Vec<(usize, usize)> = (rig.protos.iter())
                .map(|p| (p.rules.spare_ops.len(), p.rules.key_ops.len()))
                .collect();
            match input {
                Input::Submit(site, r, w) => {
                    let mut spec = TxnSpec::new().read(keys[r]).write(keys[w % 3], ts as i64);
                    if w == 3 {
                        spec = spec.write(keys[(r + 1) % 3], ts as i64);
                    }
                    txns.push(rig.submit(site, ts as u64, spec));
                }
                Input::Deliver(pick) => {
                    let mut links: Vec<(SiteId, SiteId)> =
                        rig.wires.iter().map(|(f, t, _)| (*f, *t)).collect();
                    links.sort_unstable();
                    links.dedup();
                    if let Some(&link) = links.get(pick % links.len().max(1)) {
                        let at = rig.wires.iter().position(|(f, t, _)| (*f, *t) == link);
                        let (from, to, msg) = rig.wires.remove(at.expect("busy")).expect("busy");
                        rig.step(to.0, 2, |p, step| p.on_msg(step, from, msg));
                    }
                }
                Input::Tick => rig.tick_all(),
                Input::Settle => rig.settle(),
            }
            for (p, &(spare, indexed)) in rig.protos.iter().map(|p| &p.rules).zip(&before) {
                reached.emptied += p.spare_ops.len().saturating_sub(spare);
                // A key new to the index with a spare at hand took the spare.
                reached.refilled += usize::from(spare > 0 && p.key_ops.len() > indexed);
                for (key, rows) in p.key_ops.iter() {
                    for (txn, _, vc) in rows {
                        let recorded = p.oracle.0.get(txn).and_then(|(_, ops)| ops.get(key));
                        prop_assert_eq!(recorded, Some(vc), "{}'s row under {}", txn, key);
                    }
                }
            }
        }
        rig.settle();
        for id in txns {
            let verdicts: Vec<Option<bool>> =
                rig.states.iter().map(|st| st.decided.get(&id)).collect();
            prop_assert!(
                verdicts.iter().all(|v| v.is_some() && *v == verdicts[0]),
                "{}: {:?}",
                id,
                verdicts
            );
        }
        Ok(reached)
    }

    proptest! {
        /// Concurrent transactions on three keys, delivered in random
        /// per-link FIFO interleavings with null-message ticks and
        /// settles, long enough to cross prunes that empty keys and writes
        /// that refill them: at every decision of every site the conflict
        /// index and the full-history oracle reach the same verdict
        /// (`try_decide` asserts it in test builds), the index holds only
        /// rows the history holds, and every transaction terminates alike
        /// everywhere.
        #[test]
        fn conflict_index_agrees_with_the_oracle(
            steps in proptest::collection::vec(input(), 0..300)
        ) {
            run_schedule(steps)?;
        }
    }

    /// The generated schedules cross prunes that empty a key's vector,
    /// and new keys that take an emptied vector back.
    #[test]
    fn generated_schedules_empty_and_refill_keys() {
        let mut total = Reached::default();
        for case in 0..64 {
            let mut rng = proptest::TestRng::for_case(case);
            let steps = proptest::collection::vec(input(), 0..300).sample(&mut rng);
            let r = run_schedule(steps).expect("agrees with the oracle");
            total.emptied += r.emptied;
            total.refilled += r.refilled;
        }
        assert!(total.emptied > 0 && total.refilled > 0, "{total:?}");
    }
}
