//! §4 — the Causal Broadcast protocol with implicit acknowledgements.
//!
//! Write operations and commit requests travel by **causal broadcast**, and
//! the vector clocks of deliveries are exposed to this layer (the paper
//! names this as a requirement on the communication layer). Two ideas from
//! the paper replace the explicit vote round of §3:
//!
//! 1. **Implicit positive acknowledgements.** After a site `q` delivers
//!    `commit-req(T)`, *any* subsequent message from `q` carries a vector
//!    clock whose `T.origin` component covers the commit request — proof
//!    that `q` saw it. A site commits `T` once it holds such proof from
//!    every view member and has delivered no NACK. Quiet sites would stall
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

use crate::metrics::AbortReason;
use crate::payload::{Payload, ReplicaMsg, TxnPriority};
use crate::protocols::{Effects, RetransmitBackoff};
use crate::state::{EventBuf, LocalEvent, SiteState};
use bcastdb_broadcast::causal::{self, CausalBcast};
use bcastdb_broadcast::VectorClock;
use bcastdb_db::{Key, TxnId, WriteOp};
use bcastdb_sim::{SimTime, SiteId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;
use std::sync::Arc;

/// Fewest conflict-index insertions between two pruning passes.
const PRUNE_FLOOR: usize = 64;

#[derive(Debug)]
enum Work {
    Event(LocalEvent),
    Deliver(causal::Delivery<Arc<Payload>>),
    /// All write operations of a local transaction are out (and their
    /// self-deliveries processed): gate against local readers, then either
    /// broadcast the commit request or give up.
    FinishWrite(TxnId),
}

/// Causal-protocol bookkeeping for one broadcast transaction.
#[derive(Debug, Clone, Default)]
struct CbTxn {
    /// `commit-req`'s component at the origin; acks must cover this.
    cr_seq: Option<u64>,
    /// Sites whose delivery of the commit request is proven.
    acked: BTreeSet<SiteId>,
    /// Sites that explicitly rejected the transaction.
    nacked: BTreeSet<SiteId>,
    /// Commit decided; applied when locks are all granted.
    commit_pending: bool,
}

/// The causal-broadcast replication protocol at one site.
///
/// The broadcast engine is instantiated with `Arc<Payload>` so its archive,
/// pending set, and per-destination fan-out share one payload allocation
/// per broadcast instead of deep-cloning it N−1 times.
#[derive(Debug)]
pub struct CausalProto {
    cb: CausalBcast<Arc<Payload>>,
    view: BTreeSet<SiteId>,
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
    key_ops: BTreeMap<Key, Vec<(TxnId, TxnPriority, VectorClock)>>,
    /// Insertions into `key_ops` left before the next prune: as many as
    /// the last one left entries, so the index never holds more than twice
    /// what is live and pruning is O(1) amortized per op.
    until_prune: usize,
    /// The last clock delivered from each site. A sender's clocks only
    /// grow and arrive in FIFO order, so everything it sends from now on
    /// dominates this.
    last_from: Vec<VectorClock>,
    /// Every write-operation clock ever delivered, never pruned: what the
    /// pre-index full scan walked, kept as the oracle `try_decide` checks
    /// the index against.
    #[cfg(debug_assertions)]
    history: BTreeMap<TxnId, (TxnPriority, BTreeMap<Key, VectorClock>)>,
    /// Emit a null message on ticks while transactions are undecided.
    pub null_messages: bool,
    /// Speculative fast commit: when the failure detector suspects a view
    /// member, close the implicit-acknowledgement wait from the surviving
    /// quorum instead of the full view — see `try_decide`.
    pub fast_commit: bool,
    /// View members the local failure detector currently suspects
    /// (refreshed by the engine on every membership tick).
    suspected: BTreeSet<SiteId>,
    /// Loss-recovery mode: retransmit archived messages to lagging peers.
    recover_losses: bool,
    /// Paced write phases: next operation index per local transaction.
    writing: BTreeMap<TxnId, usize>,
    /// This site's clock at its most recent broadcast: the evidence other
    /// sites hold about what we have delivered. If it does not cover a
    /// delivered commit request, our implicit acknowledgement has not been
    /// published yet and a null message is due.
    last_bcast_vc: VectorClock,
    /// Reusable work queue: taken at each protocol entry point and
    /// handed back (empty) by `pump`, so steady-state message handling
    /// never allocates a fresh queue.
    idle_work: VecDeque<Work>,
    /// Transactions whose commit request is delivered but whose outcome is
    /// not yet in `st.decided` — the only transactions a new implicit
    /// acknowledgement can advance, so the per-delivery ack scan walks
    /// this small index instead of `info`; entries are dropped lazily
    /// once the decision lands.
    ack_waiting: BTreeSet<TxnId>,
    /// Per-origin maximum commit-request sequence delivered so far.
    /// `cr_seq` values from one origin only grow, so "some delivered
    /// commit request is not covered by our last broadcast" reduces to
    /// comparing this clock against `last_bcast_vc` — O(n) per tick
    /// instead of a scan over every transaction ever seen.
    max_cr_seq: VectorClock,
    /// Cadence control of the periodic null/gap-report broadcast (fires
    /// every tick unless [`CausalProto::enable_backoff`] was called).
    backoff: RetransmitBackoff,
    /// `(sum of remote clock components, pending holes)` at the last tick —
    /// the progress signal that resets the backoff. Our own component is
    /// excluded: each null we send self-delivers, and counting that as
    /// progress would keep the cadence pinned at every tick.
    last_progress: (u64, usize),
}

impl CausalProto {
    /// Creates the protocol instance for site `me` of `n`.
    pub fn new(me: SiteId, n: usize) -> Self {
        CausalProto {
            // Without loss recovery nobody ever asks this engine for
            // retransmissions, so skip the per-message archive clone.
            cb: CausalBcast::new(me, n).without_archive(),
            view: (0..n).map(SiteId).collect(),
            info: BTreeMap::new(),
            key_ops: BTreeMap::new(),
            until_prune: PRUNE_FLOOR,
            last_from: vec![VectorClock::new(n); n],
            #[cfg(debug_assertions)]
            history: BTreeMap::new(),
            null_messages: true,
            fast_commit: false,
            suspected: BTreeSet::new(),
            recover_losses: false,
            writing: BTreeMap::new(),
            last_bcast_vc: VectorClock::new(n),
            idle_work: VecDeque::new(),
            ack_waiting: BTreeSet::new(),
            max_cr_seq: VectorClock::new(n),
            backoff: RetransmitBackoff::new(me),
            last_progress: (0, 0),
        }
    }

    /// Switches the periodic null/gap-report broadcast from fire-every-tick
    /// to bounded exponential backoff with deterministic jitter.
    pub fn enable_backoff(&mut self) {
        self.backoff.enable();
    }

    /// Creates the protocol with eager relaying and loss recovery enabled.
    pub fn new_with_relay(me: SiteId, n: usize) -> Self {
        let mut p = Self::new(me, n);
        p.cb = CausalBcast::new(me, n).with_relay();
        p.recover_losses = true;
        p
    }

    /// True while this site still owes the cluster a message: either a
    /// transaction known here is undecided, or a delivered commit request
    /// has not yet been covered by any of our broadcasts (its implicit
    /// acknowledgement is unpublished). Drives the engine's tick arming.
    pub fn needs_ticks(&self, st: &SiteState) -> bool {
        if !self.null_messages {
            return false;
        }
        st.has_undecided()
            || self.has_unpublished_ack()
            // Loss recovery: holes in the causal stream block deliveries we
            // may not even know about; keep advertising our clock so peers
            // can fill the gaps.
            || (self.recover_losses && self.cb.pending_len() > 0)
    }

    fn has_unpublished_ack(&self) -> bool {
        self.max_cr_seq
            .iter()
            .any(|(origin, k)| self.last_bcast_vc.get(origin) < k)
    }

    /// The causal engine's delivered-messages clock (state transfer).
    pub fn clock(&self) -> VectorClock {
        self.cb.clock().clone()
    }

    /// Resumes a recovered site from a donor's causal clock and view.
    /// Assumes a quiet moment: in-flight bookkeeping is dropped (the
    /// transferred store and decision map carry the outcomes).
    pub fn resume(&mut self, donor_clock: &VectorClock, view: BTreeSet<SiteId>) {
        self.cb.resume_from(donor_clock);
        self.last_bcast_vc = self.cb.clock().clone();
        self.info.clear();
        self.key_ops.clear();
        self.until_prune = PRUNE_FLOOR;
        // A rejoining site cannot vouch for what its peers send next.
        let n = self.last_from.len();
        self.last_from.fill(VectorClock::new(n));
        #[cfg(debug_assertions)]
        self.history.clear();
        self.ack_waiting.clear();
        self.max_cr_seq = VectorClock::new(n);
        self.view = view;
        self.suspected.clear();
    }

    /// Refreshes the failure detector's suspicion set and re-evaluates
    /// every transaction still waiting on implicit acknowledgements: a
    /// fresh suspicion may let the fast-commit rule close an ack wait
    /// that the suspect would never complete.
    pub fn on_suspect(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        suspected: &BTreeSet<SiteId>,
    ) {
        if self.suspected == *suspected {
            return;
        }
        self.suspected = suspected.clone();
        if self.suspected.is_empty() {
            return;
        }
        let waiting: Vec<TxnId> = self.ack_waiting.iter().copied().collect();
        let mut work = std::mem::take(&mut self.idle_work);
        for txn in waiting {
            self.try_decide(st, now, txn, &mut work);
        }
        self.pump(st, fx, now, work);
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

    /// Handles a retransmitted wire: identical processing, but never
    /// treated as a live gap report (its clock is historical).
    pub fn on_retrans_wire(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        from: SiteId,
        wire: causal::Wire<Arc<Payload>>,
    ) {
        let out = self.cb.on_wire(from, wire);
        let mut work = std::mem::take(&mut self.idle_work);
        self.route(fx, out, &mut work);
        self.pump(st, fx, now, work);
    }

    /// Handles an incoming causal-broadcast wire message.
    pub fn on_wire(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        from: SiteId,
        wire: causal::Wire<Arc<Payload>>,
    ) {
        // In loss-recovery mode a *null* message doubles as a gap report:
        // its clock reveals what its origin had delivered, so ship it
        // anything we have that it lacks. Only direct (unrelayed,
        // unretransmitted) nulls trigger this — reacting to every wire
        // would let stale retransmitted clocks solicit retransmissions of
        // their own, a storm that never drains.
        if self.recover_losses && from == wire.id.origin && matches!(*wire.payload, Payload::Null) {
            // Only our *own* missing messages are retransmitted from here:
            // with every site answering for every gap, a lossy cluster
            // floods itself — one authoritative responder per message is
            // enough (the origin always has its own archive).
            let me = self.cb.me();
            for w in self.cb.retransmissions_for(&wire.vc, 16) {
                if w.id.origin == me {
                    fx.send_to(from, ReplicaMsg::CRetrans(w));
                }
            }
        }
        let out = self.cb.on_wire(from, wire);
        let mut work = std::mem::take(&mut self.idle_work);
        self.route(fx, out, &mut work);
        self.pump(st, fx, now, work);
    }

    /// Periodic tick: emit a null message while this site owes the cluster
    /// evidence — an unpublished implicit acknowledgement, or liveness for
    /// transactions still undecided here (the paper's keep-alive
    /// mitigation for quiet sites).
    pub fn on_tick(&mut self, st: &mut SiteState, fx: &mut Effects, now: SimTime) {
        if self.null_messages
            && (st.has_undecided()
                || self.has_unpublished_ack()
                || (self.recover_losses && self.cb.pending_len() > 0))
        {
            // Progress check for the backoff cadence: a remote clock
            // component moving or a pending hole closing means the last
            // solicitation (or regular traffic) worked — go back to
            // every-tick.
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
            if !self.backoff.due() {
                return;
            }
            let mut work = std::mem::take(&mut self.idle_work);
            self.bcast(fx, Payload::Null, &mut work);
            self.pump(st, fx, now, work);
        }
    }

    /// Installs a new view: acks are needed from surviving members only;
    /// transactions from departed origins abort.
    pub fn set_view(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        members: BTreeSet<SiteId>,
    ) {
        self.view = members;
        let undecided: Vec<TxnId> = st.remote.keys().collect();
        let mut work = std::mem::take(&mut self.idle_work);
        for txn in undecided {
            if !self.view.contains(&txn.origin) {
                let mut events = EventBuf::new();
                st.apply_remote_abort(txn, AbortReason::ViewChange, now, &mut events);
                work.extend(events.into_iter().map(Work::Event));
            } else {
                self.try_decide(st, now, txn, &mut work);
            }
        }
        self.pump(st, fx, now, work);
    }

    fn bcast(&mut self, fx: &mut Effects, payload: Payload, work: &mut VecDeque<Work>) {
        // The single payload allocation of this broadcast: every wire copy
        // and archive entry from here on is a refcount bump.
        let (_, out) = self.cb.broadcast(Arc::new(payload));
        self.last_bcast_vc.copy_from(self.cb.clock());
        self.route(fx, out, work);
    }

    fn route(
        &mut self,
        fx: &mut Effects,
        out: causal::Output<Arc<Payload>>,
        work: &mut VecDeque<Work>,
    ) {
        for ob in out.outbound {
            fx.send(ob.dest, ReplicaMsg::C(ob.wire));
        }
        for d in out.deliveries {
            work.push_back(Work::Deliver(d));
        }
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
                Work::Deliver(d) => self.on_deliver(st, fx, now, d, &mut work),
                Work::FinishWrite(id) => self.finish_write(st, fx, now, id, &mut work),
            }
        }
        // The queue is empty again: hand it back for the next entry point.
        self.idle_work = work;
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
            LocalEvent::ReadsComplete(id) => self.start_write_phase(st, fx, id, work),
            LocalEvent::RemotePrepared(id) => {
                // Locks complete: if the commit was already decided, apply.
                if self.info.get(&id).is_some_and(|i| i.commit_pending) {
                    let mut events = EventBuf::new();
                    st.apply_commit(id, now, &mut events);
                    work.extend(events.into_iter().map(Work::Event));
                }
            }
            LocalEvent::RemoteDoomed(..) => {
                // Cannot happen: wound_remote is disabled for this protocol
                // (site-local wounds cannot be published without votes).
                debug_assert!(
                    false,
                    "causal protocol must not doom broadcast transactions"
                );
            }
            LocalEvent::RemoteKeyGranted(..) => {}
            LocalEvent::ReadPaused(id) => fx.pauses.push(id),
        }
    }

    fn start_write_phase(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        id: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        if !st.local.contains_key(&id) {
            return;
        }
        if st.think.is_zero() {
            self.emit_write_step(st, fx, id, usize::MAX, work);
        } else {
            self.writing.insert(id, 0);
            self.emit_write_step(st, fx, id, 1, work);
            if self.writing.contains_key(&id) {
                fx.write_pauses.push(id);
            }
        }
    }

    /// Resumes a paced write phase (next step after think time).
    pub fn continue_write(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        id: TxnId,
    ) {
        if st.decided.contains_key(&id) || !st.local.contains_key(&id) {
            self.writing.remove(&id);
            return;
        }
        let mut work = std::mem::take(&mut self.idle_work);
        self.emit_write_step(st, fx, id, 1, &mut work);
        if self.writing.contains_key(&id) {
            fx.write_pauses.push(id);
        }
        self.pump(st, fx, now, work);
    }

    /// Broadcasts up to `budget` write operations, then the commit request
    /// once the set is out (causal order keeps them sequenced everywhere).
    fn emit_write_step(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        id: TxnId,
        budget: usize,
        work: &mut VecDeque<Work>,
    ) {
        let Some(local) = st.local.get(&id) else {
            self.writing.remove(&id);
            return;
        };
        let prio = local.prio;
        let writes = local.spec.writes();
        let n_writes = writes.len();
        let start = self.writing.get(&id).copied().unwrap_or(0);
        let end = start.saturating_add(budget).min(n_writes);
        for (index, op) in writes.iter().enumerate().take(end).skip(start) {
            self.bcast(
                fx,
                Payload::Write {
                    txn: id,
                    prio,
                    op: op.clone(),
                    index,
                    of: n_writes,
                },
                work,
            );
        }
        if end >= n_writes {
            self.writing.remove(&id);
            // The commit request is NOT broadcast here: the self-deliveries
            // of our own write operations (queued ahead in the work queue)
            // may detect a concurrent conflict and doom this transaction,
            // and the origin's reader gate must also run first. Once a
            // remote site delivers the commit request it may decide
            // immediately (with N = 2 its ack set completes on the spot),
            // so every origin-side veto must precede the request on the
            // wire.
            work.push_back(Work::FinishWrite(id));
        } else {
            self.writing.insert(id, end);
        }
    }

    /// Final step of a write phase: runs the origin-side reader gate and,
    /// if the transaction is still viable, broadcasts the commit request.
    fn finish_write(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        id: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        if st.decided.contains_key(&id) {
            return; // doomed by early conflict detection meanwhile
        }
        // Origin-side gate: settle conflicts with our own local readers
        // *before* the commit request exists anywhere.
        self.gate_local_readers(st, fx, now, id, work);
        if st.decided.contains_key(&id) {
            return; // the gate vetoed us (read-only conflict)
        }
        let Some(local) = st.local.get(&id) else {
            return;
        };
        let prio = local.prio;
        let n_writes = local.spec.writes().len();
        st.trace_commit_req_out(id, now);
        self.bcast(
            fx,
            Payload::CommitReq {
                txn: id,
                prio,
                n_writes,
                read_versions: Vec::new(),
                write_versions: Vec::new(),
            },
            work,
        );
    }

    fn on_deliver(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        d: causal::Delivery<Arc<Payload>>,
        work: &mut VecDeque<Work>,
    ) {
        let sender = d.id.origin;
        // A NACK must take effect before the same message is credited as
        // its sender's implicit acknowledgement — otherwise the NACK's own
        // clock could complete the ack set and commit the transaction it
        // rejects. One for a settled transaction has nothing left to do.
        if let Payload::Nack { txn, site } = &*d.payload {
            if !st.decided.contains_key(txn) {
                self.info.entry(*txn).or_default().nacked.insert(*site);
            }
        }
        self.last_from[sender.0].copy_from(&d.vc);
        // Every delivery is a potential implicit acknowledgement: the
        // sender's clock proves which commit requests it had delivered.
        self.absorb_implicit_acks(st, now, sender, &d.vc, work);

        match &*d.payload {
            Payload::Write {
                txn, prio, op, of, ..
            } => {
                self.on_write(st, fx, now, *txn, *prio, op, *of, d.vc, work);
            }
            &Payload::CommitReq {
                txn,
                prio,
                n_writes,
                ..
            } => {
                let Some(entry) = st.remote_entry(txn, prio) else {
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
                self.ack_waiting.insert(txn);
                // The sender trivially acknowledged its own request, and we
                // just delivered it ourselves.
                info.acked.insert(txn.origin);
                info.acked.insert(st.me);
                // THE GATE. From this instant on, our outgoing traffic is an
                // implicit YES — so any conflict with a live local reader
                // must be settled *now*, while no other site can yet hold
                // our acknowledgement (everything we broadcast so far
                // causally precedes this commit request):
                //  - a read-only reader on one of the writer's keys vetoes
                //    the writer (explicit NACK) — read-only transactions are
                //    never aborted in this protocol;
                //  - an update reader still in its read phase is wounded
                //    (purely local, always safe);
                //  - an update reader that already broadcast its own writes
                //    vetoes the writer too: its reads are validated by the
                //    locks it holds until its own commitment.
                self.gate_local_readers(st, fx, now, txn, work);
                self.try_decide(st, now, txn, work);
            }
            &Payload::Nack { txn, .. } => self.try_decide(st, now, txn, work),
            Payload::Null => {}
            Payload::Vote { .. } | Payload::AbortDecision { .. } => {
                // Not used by this protocol.
            }
        }
    }

    /// Records implicit acks proven by a message from `sender` stamped
    /// `vc`, and re-evaluates the transactions whose ack sets changed.
    fn absorb_implicit_acks(
        &mut self,
        st: &mut SiteState,
        now: SimTime,
        sender: SiteId,
        vc: &VectorClock,
        work: &mut VecDeque<Work>,
    ) {
        // Walk the undecided index, not the full `info` map: transactions
        // whose commit request has not been delivered have no ack set to
        // advance, and decided ones (pruned lazily here) are settled. The
        // walk re-seeks after each step, so it needs no scratch list while
        // `try_decide` borrows `self`.
        let mut next = self.ack_waiting.first().copied();
        while let Some(txn) = next {
            next = self
                .ack_waiting
                .range((Bound::Excluded(txn), Bound::Unbounded))
                .next()
                .copied();
            let info = match self.info.get_mut(&txn) {
                Some(info) if !st.decided.contains_key(&txn) => info,
                _ => {
                    self.ack_waiting.remove(&txn);
                    continue;
                }
            };
            if info.cr_seq.is_some_and(|k| vc.get(txn.origin) >= k) && info.acked.insert(sender) {
                self.try_decide(st, now, txn, work);
            }
        }
    }

    /// Handles a delivered write: classify against other broadcast
    /// transactions, abort concurrent losers, then lock.
    #[allow(clippy::too_many_arguments)]
    fn on_write(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        txn: TxnId,
        prio: TxnPriority,
        op: &WriteOp,
        of: usize,
        vc: VectorClock,
        work: &mut VecDeque<Work>,
    ) {
        #[cfg(debug_assertions)]
        self.history
            .entry(txn)
            .or_insert_with(|| (prio, BTreeMap::new()))
            .1
            .insert(op.key.clone(), vc.clone());
        // Early conflict detection: another *operation* on the same key
        // whose clock is concurrent with this one means the two
        // transactions conflict irreconcilably. Only undecided writers can
        // conflict.
        let ops = self.key_ops.entry(op.key.clone()).or_default();
        let mut peers: Vec<(TxnId, TxnPriority)> = Vec::new();
        for (peer, peer_prio, pvc) in ops.iter() {
            if *peer != txn && st.remote.contains_key(peer) && pvc.concurrent_with(&vc) {
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
            self.prune(st);
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
            self.abort_with_nack(st, fx, now, loser, work);
        }
        if doomed_self || st.decided.contains_key(&txn) {
            return; // no point acquiring locks for a dead transaction
        }
        let mut events = EventBuf::new();
        st.deliver_write_op(txn, prio, op.clone(), of, now, &mut events);
        work.extend(events.into_iter().map(Work::Event));
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
            !ops.is_empty()
        });
        self.info.retain(|txn, _| !decided(txn));
        let live: usize = self.key_ops.values().map(Vec::len).sum();
        self.until_prune = live.max(PRUNE_FLOOR);
    }

    /// Settles conflicts between a commit-requesting writer and local
    /// readers before this site's implicit acknowledgement can circulate.
    fn gate_local_readers(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        txn: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        use bcastdb_db::lock::LockMode;
        let write_keys: Vec<Key> = st
            .remote
            .get(&txn)
            .map(|e| e.ops.iter().map(|o| o.key.clone()).collect())
            .unwrap_or_default();
        let mut nack_writer = false;
        let mut wound: Vec<TxnId> = Vec::new();
        for key in &write_keys {
            for (holder, mode) in st.locks.holders(key) {
                if holder == txn || mode != LockMode::Shared {
                    continue;
                }
                let Some(local) = st.local.get(&holder) else {
                    continue; // not a local transaction (or already gone)
                };
                if local.spec.is_read_only() {
                    nack_writer = true;
                } else if matches!(local.phase, crate::state::LocalPhase::AcquiringReads { .. }) {
                    wound.push(holder);
                } else {
                    // Write phase: its held read locks validate its reads.
                    nack_writer = true;
                }
            }
        }
        for reader in wound {
            let mut events = EventBuf::new();
            st.abort_local(reader, AbortReason::Wounded, now, &mut events);
            work.extend(events.into_iter().map(Work::Event));
        }
        if nack_writer {
            self.abort_with_nack(st, fx, now, txn, work);
        }
    }

    /// Aborts `txn` locally (the deterministic rule makes every site reach
    /// the same verdict) and broadcasts a NACK to accelerate the others.
    fn abort_with_nack(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        txn: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        if st.decided.contains_key(&txn) {
            return;
        }
        let already_nacked = self
            .info
            .get(&txn)
            .is_some_and(|i| i.nacked.contains(&st.me));
        if !already_nacked {
            self.info.entry(txn).or_default().nacked.insert(st.me);
            let site = st.me;
            st.trace_vote(txn, false, now);
            self.bcast(fx, Payload::Nack { txn, site }, work);
        }
        let mut events = EventBuf::new();
        st.apply_remote_abort(txn, AbortReason::ConcurrentConflict, now, &mut events);
        work.extend(events.into_iter().map(Work::Event));
    }

    /// Commits `txn` if (a) acks cover the view, (b) nobody NACKed, and
    /// (c) the deterministic concurrency evaluation finds no older
    /// concurrent conflicting peer. Aborts on NACK.
    fn try_decide(
        &mut self,
        st: &mut SiteState,
        now: SimTime,
        txn: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        if st.decided.contains_key(&txn) {
            return;
        }
        let Some(info) = self.info.get(&txn) else {
            return;
        };
        if !info.nacked.is_empty() {
            let mut events = EventBuf::new();
            st.apply_remote_abort(txn, AbortReason::ConcurrentConflict, now, &mut events);
            work.extend(events.into_iter().map(Work::Event));
            return;
        }
        if info.cr_seq.is_none() {
            return;
        }
        let full_view_acked = self.view.iter().all(|s| info.acked.contains(s));
        // Speculative fast path: every member whose acknowledgement is
        // still missing is suspected crashed, and the surviving ackers are
        // a strict majority of the view. Their acks close the concurrency
        // window for every *surviving* origin (causal order puts an
        // origin's concurrent writes before its ack), and anything the
        // suspect broadcast before falling silent arrived long ago — the
        // suspicion timeout dwarfs the link latency. So the deterministic
        // evaluation below sees every candidate, exactly as if the view
        // change evicting the suspect had already been installed.
        let fast = !full_view_acked
            && self.fast_commit
            && !self.suspected.is_empty()
            && self
                .view
                .iter()
                .all(|s| info.acked.contains(s) || self.suspected.contains(s))
            && 2 * self.view.iter().filter(|s| info.acked.contains(s)).count() > self.view.len();
        if !full_view_acked && !fast {
            return;
        }
        let Some(entry) = st.remote.get(&txn) else {
            return;
        };
        if entry.n_writes != Some(entry.ops.len()) {
            return; // write set incomplete (cannot happen with FIFO, but be safe)
        }
        // Deterministic evaluation: the ack set closes the concurrency
        // window, so every concurrent conflicting candidate operation is
        // already delivered here. An older peer with a same-key
        // operation concurrent with ours → we abort.
        let my_prio = entry.prio;
        let mut examined = 0;
        let loses = entry.ops.iter().any(|op| {
            let ops = &self.key_ops[&op.key];
            let mine = ops.binary_search_by_key(&txn, |e| e.0).expect("own op");
            ops.iter().any(|(peer, peer_prio, pvc)| {
                examined += u64::from(*peer != txn);
                st.ever_held(peer)
                    && peer_prio.older_than(&my_prio)
                    && pvc.concurrent_with(&ops[mine].2)
            })
        });
        st.stats.counter_add("cb.decide_peers_examined", examined);
        #[cfg(debug_assertions)]
        assert_eq!(loses, self.full_scan_loses(st, txn), "index vs scan: {txn}");
        let mut events = EventBuf::new();
        if loses {
            st.trace_decided(txn, false, now);
            st.apply_remote_abort(txn, AbortReason::ConcurrentConflict, now, &mut events);
        } else {
            // The implicit-acknowledgement wait ends here: the ack set is
            // complete and the verdict is fixed, whether or not the lock
            // queue lets us apply yet.
            if fast {
                st.trace_fast_decide(txn, now);
            }
            st.trace_decided(txn, true, now);
            if st.remote.get(&txn).expect("present").fully_prepared() {
                st.apply_commit(txn, now, &mut events);
            } else {
                // Application waits for the lock queue (causal order
                // guarantees every site installs in the same order).
                self.info.get_mut(&txn).expect("present").commit_pending = true;
            }
        }
        work.extend(events.into_iter().map(Work::Event));
    }
}

#[cfg(debug_assertions)]
impl CausalProto {
    /// The deterministic evaluation as it was before the index: walk every
    /// transaction this site has ever seen.
    fn full_scan_loses(&self, st: &SiteState, txn: TxnId) -> bool {
        let my_prio = st.remote[&txn].prio;
        self.history.iter().any(|(peer, (peer_prio, peer_ops))| {
            *peer != txn
                && st.ever_held(peer)
                && peer_prio.older_than(&my_prio)
                && self.history[&txn].1.iter().any(|(key, my_vc)| {
                    peer_ops
                        .get(key)
                        .is_some_and(|pvc| pvc.concurrent_with(my_vc))
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ConflictPolicy;
    use bcastdb_broadcast::msg::expand_dest;
    use bcastdb_db::TxnSpec;
    use bcastdb_sim::telemetry::Phase;
    use std::collections::VecDeque as Q;

    struct Rig {
        protos: Vec<CausalProto>,
        states: Vec<SiteState>,
        wires: Q<(SiteId, SiteId, ReplicaMsg)>,
        /// Messages of the vote phase handed to the network so far.
        vote_msgs: usize,
    }

    impl Rig {
        fn new(n: usize) -> Rig {
            let mut states: Vec<SiteState> = (0..n)
                .map(|i| SiteState::new(SiteId(i), n, ConflictPolicy::WoundWait))
                .collect();
            for st in states.iter_mut() {
                st.wound_remote = false;
                st.rank_by_delivery = true;
            }
            Rig {
                protos: (0..n).map(|i| CausalProto::new(SiteId(i), n)).collect(),
                states,
                wires: Q::new(),
                vote_msgs: 0,
            }
        }

        fn absorb(&mut self, me: SiteId, fx: Effects) {
            let n = self.protos.len();
            for (dest, msg) in fx.sends {
                self.vote_msgs += usize::from(msg.phase() == Phase::Vote);
                for to in expand_dest(dest, me, n) {
                    if to != me {
                        self.wires.push_back((me, to, msg.clone()));
                    }
                }
            }
        }

        fn submit(&mut self, site: usize, ts: u64, spec: TxnSpec) -> TxnId {
            let mut fx = Effects::new();
            let (id, events) = self.states[site].begin_txn(SimTime::from_micros(ts), spec);
            self.protos[site].handle_events(&mut self.states[site], &mut fx, SimTime::ZERO, events);
            self.absorb(SiteId(site), fx);
            id
        }

        fn tick_all(&mut self) {
            for i in 0..self.protos.len() {
                let mut fx = Effects::new();
                self.protos[i].on_tick(&mut self.states[i], &mut fx, SimTime::from_micros(50));
                self.absorb(SiteId(i), fx);
            }
        }

        fn settle(&mut self) {
            // Alternate wire delivery with null ticks until both drain: the
            // implicit acks need at least one message from every site.
            for _ in 0..64 {
                while let Some((from, to, msg)) = self.wires.pop_front() {
                    let mut fx = Effects::new();
                    match msg {
                        ReplicaMsg::C(wire) => self.protos[to.0].on_wire(
                            &mut self.states[to.0],
                            &mut fx,
                            SimTime::from_micros(2),
                            from,
                            wire,
                        ),
                        ReplicaMsg::CRetrans(wire) => self.protos[to.0].on_retrans_wire(
                            &mut self.states[to.0],
                            &mut fx,
                            SimTime::from_micros(2),
                            from,
                            wire,
                        ),
                        _ => {}
                    }
                    self.absorb(to, fx);
                }
                let anything_undecided = self.states.iter().any(|st| st.has_undecided());
                if !anything_undecided {
                    break;
                }
                self.tick_all();
            }
        }
    }

    #[test]
    fn null_cadence_backs_off_and_resets_on_remote_progress() {
        use bcastdb_broadcast::msg::MsgId;

        let mut p = CausalProto::new_with_relay(SiteId(0), 3);
        p.enable_backoff();
        let mut st = SiteState::new(SiteId(0), 3, ConflictPolicy::WoundWait);
        st.wound_remote = false;
        st.rank_by_delivery = true;
        // An undecided local transaction keeps ticks wanted forever (its
        // peers never answer in this rig — a stalled cluster).
        let mut fx = Effects::new();
        let (_, events) = st.begin_txn(SimTime::ZERO, TxnSpec::new().write("x", 1));
        p.handle_events(&mut st, &mut fx, SimTime::ZERO, events);
        assert!(p.needs_ticks(&st));

        let mut fired = 0;
        for _ in 0..64 {
            let mut fx = Effects::new();
            p.on_tick(&mut st, &mut fx, SimTime::from_micros(50));
            if !fx.sends.is_empty() {
                fired += 1;
            }
        }
        assert!(
            (1..16).contains(&fired),
            "64 stalled ticks must coalesce into a handful of nulls \
             (own null self-deliveries are not progress), got {fired}"
        );

        // A remote delivery is progress: the next tick fires again.
        let mut vc = VectorClock::new(3);
        vc.set(SiteId(1), 1);
        let mut fx = Effects::new();
        p.on_wire(
            &mut st,
            &mut fx,
            SimTime::from_micros(60),
            SiteId(1),
            causal::Wire {
                id: MsgId {
                    origin: SiteId(1),
                    seq: 1,
                },
                vc,
                payload: std::sync::Arc::new(Payload::Null),
            },
        );
        let mut fx = Effects::new();
        p.on_tick(&mut st, &mut fx, SimTime::from_micros(70));
        assert!(!fx.sends.is_empty(), "post-progress tick emits again");
    }

    #[test]
    fn redelivery_after_the_decision_resurrects_nothing() {
        let mut rig = Rig::new(3);
        let id = rig.submit(0, 1, TxnSpec::new().write("x", 9));
        rig.settle();
        let now = SimTime::from_micros(9);
        for (i, (p, st)) in rig.protos.iter_mut().zip(&mut rig.states).enumerate() {
            let logged = st.log.len();
            for payload in crate::protocols::tests::stale_payloads(id) {
                let d = causal::Delivery {
                    id: bcastdb_broadcast::MsgId {
                        origin: SiteId(1),
                        seq: 99,
                    },
                    vc: p.clock(),
                    payload: payload.clone(),
                };
                let mut fx = Effects::new();
                let mut work = VecDeque::new();
                p.on_deliver(st, &mut fx, now, d, &mut work);
                p.pump(st, &mut fx, now, work);
                assert!(fx.sends.is_empty(), "site {i} answered {payload:?}");
            }
            assert!(st.remote.is_empty() && !st.has_undecided(), "site {i}");
            assert_eq!(st.log.len(), logged, "site {i} terminated {id} again");
            assert_eq!(st.decided.get(&id), Some(true), "site {i}");
        }
    }

    #[test]
    fn commit_through_implicit_acknowledgements_only() {
        let mut rig = Rig::new(3);
        let id = rig.submit(0, 1, TxnSpec::new().write("x", 9));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(true), "site {i}");
            assert_eq!(st.store.value(&"x".into()), 9, "site {i}");
        }
        // No votes exist in this protocol, and a decided transaction
        // leaves nothing behind.
        assert_eq!(rig.vote_msgs, 0);
        for st in &rig.states {
            assert!(st.remote.is_empty());
        }
    }

    #[test]
    fn concurrent_conflicting_writers_lose_younger() {
        let mut rig = Rig::new(3);
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
        let mut rig = Rig::new(3);
        let first = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        rig.settle(); // first fully delivered before the second starts
        let second = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        rig.settle();
        for st in &rig.states {
            assert_eq!(st.decided.get(&first), Some(true));
            assert_eq!(st.decided.get(&second), Some(true));
            assert_eq!(
                st.store.install_order(&"x".into()),
                &[first, second],
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
        use bcastdb_broadcast::msg::MsgId;

        let mut rig = Rig::new(3);
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
        let at = SimTime::from_micros(2);
        let mut deliver = |proto: &mut CausalProto, st: &mut SiteState, from: SiteId| {
            let next = inbox.iter().position(|(f, _)| *f == from).expect("wire");
            let (from, wire) = inbox.remove(next);
            proto.on_wire(st, &mut Effects::new(), at, from, wire);
        };
        // The older transaction's write, then a local veto of it: decided
        // here before anything of the younger one is delivered.
        deliver(proto, st, SiteId(0));
        proto.abort_with_nack(st, &mut Effects::new(), at, older, &mut VecDeque::new());
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
        proto.on_wire(
            st,
            &mut Effects::new(),
            at,
            SiteId(0),
            causal::Wire { id, vc, payload },
        );
        assert_eq!(st.decided.get(&younger), Some(false));
        assert_eq!(st.store.value(&"x".into()), 0);
    }

    #[test]
    fn nack_aborts_at_every_site() {
        let mut rig = Rig::new(3);
        let id = rig.submit(0, 1, TxnSpec::new().write("x", 5));
        // Site 2 rejects it out-of-band before settling.
        {
            let mut fx = Effects::new();
            let mut work = std::collections::VecDeque::new();
            rig.protos[2].abort_with_nack(
                &mut rig.states[2],
                &mut fx,
                SimTime::from_micros(3),
                id,
                &mut work,
            );
            rig.absorb(SiteId(2), fx);
        }
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(false), "site {i} aborted on NACK");
        }
    }
}
