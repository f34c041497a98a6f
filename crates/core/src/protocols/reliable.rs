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

use crate::metrics::AbortReason;
use crate::payload::{Payload, ReplicaMsg, TxnPriority};
use crate::protocols::{Effects, RetransmitBackoff};
use crate::state::{EventBuf, LocalEvent, SiteState};
use bcastdb_broadcast::reliable::{self, ReliableBcast};
use bcastdb_db::TxnId;
use bcastdb_sim::{SimTime, SiteId};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// One unit of pending protocol work.
#[derive(Debug)]
enum Work {
    Event(LocalEvent),
    Deliver(Arc<Payload>),
}

/// The reliable-broadcast replication protocol at one site.
///
/// The broadcast engine is instantiated with `Arc<Payload>` so its archive,
/// holdback, and per-destination fan-out share one payload allocation per
/// broadcast instead of deep-cloning it N−1 times.
#[derive(Debug)]
pub struct ReliableProto {
    rb: ReliableBcast<Arc<Payload>>,
    view: BTreeSet<SiteId>,
    /// Paced write phases: next operation index per local transaction
    /// (only used when the cluster configures per-operation think time).
    writing: std::collections::BTreeMap<TxnId, usize>,
    /// Speculative fast commit (Emerson & Ezhilchelvan): when the failure
    /// detector suspects a view member, decide from the surviving quorum's
    /// votes instead of waiting for the suspect — see `try_decide`.
    pub fast_commit: bool,
    /// View members the local failure detector currently suspects
    /// (refreshed by the engine on every membership tick).
    suspected: BTreeSet<SiteId>,
    /// Reusable work queue: taken at each protocol entry point and
    /// handed back (empty) by `pump`, so steady-state message handling
    /// never allocates a fresh queue.
    idle_work: VecDeque<Work>,
    /// Cadence control of the periodic `RSync` solicitation (fires every
    /// tick unless [`ReliableProto::enable_backoff`] was called).
    backoff: RetransmitBackoff,
    /// Delivery watermarks at the last solicitation, the progress signal
    /// that resets the backoff.
    last_watermarks: Vec<u64>,
}

impl ReliableProto {
    /// Creates the protocol instance for site `me` of `n`.
    pub fn new(me: SiteId, n: usize) -> Self {
        ReliableProto {
            idle_work: VecDeque::new(),
            // Without loss recovery nobody ever sends a sync round, so no
            // retransmission is ever requested: skip the per-message
            // archive insert.
            rb: ReliableBcast::new(me, n).without_archive(),
            view: (0..n).map(SiteId).collect(),
            writing: std::collections::BTreeMap::new(),
            fast_commit: false,
            suspected: BTreeSet::new(),
            backoff: RetransmitBackoff::new(me),
            last_watermarks: Vec::new(),
        }
    }

    /// Creates the protocol with eager relaying enabled: the broadcast
    /// layer re-forwards first copies so agreement survives message loss
    /// (at `O(N²)` message cost).
    pub fn new_with_relay(me: SiteId, n: usize) -> Self {
        ReliableProto {
            idle_work: VecDeque::new(),
            rb: ReliableBcast::new(me, n).with_relay(),
            view: (0..n).map(SiteId).collect(),
            writing: std::collections::BTreeMap::new(),
            fast_commit: false,
            suspected: BTreeSet::new(),
            backoff: RetransmitBackoff::new(me),
            last_watermarks: Vec::new(),
        }
    }

    /// Switches the periodic `RSync` solicitation from fire-every-tick to
    /// bounded exponential backoff with deterministic jitter.
    pub fn enable_backoff(&mut self) {
        self.backoff.enable();
    }

    /// The broadcast engine's `(holdback, archive)` sizes: everything its
    /// duplicate test consults beyond the watermarks, and what it retains
    /// for retransmission.
    pub fn table_sizes(&self) -> (usize, usize) {
        (self.rb.holdback_len(), self.rb.archive_len())
    }

    /// Per-origin reliable-broadcast delivery watermarks (state transfer).
    pub fn watermarks(&self) -> Vec<u64> {
        self.rb.watermarks()
    }

    /// Resumes a recovered site from a donor's watermarks and view.
    pub fn resume(&mut self, watermarks: &[u64], view: BTreeSet<SiteId>) {
        self.rb.resume_from(watermarks);
        self.view = view;
        self.suspected.clear();
    }

    /// Refreshes the failure detector's suspicion set and re-evaluates
    /// every undecided transaction: a fresh suspicion may complete a
    /// surviving quorum that the fast-commit rule can decide from now,
    /// before the view change that would evict the suspect lands.
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
        let undecided: Vec<TxnId> = st.remote.keys().collect();
        let mut work = std::mem::take(&mut self.idle_work);
        for txn in undecided {
            self.try_decide(st, now, txn, &mut work);
        }
        self.pump(st, fx, now, work);
    }

    /// Handles events produced outside the protocol (submission read
    /// phases, lock grants after releases).
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

    /// Handles an incoming reliable-broadcast wire message.
    pub fn on_wire(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        from: SiteId,
        wire: reliable::Wire<Arc<Payload>>,
    ) {
        let out = self.rb.on_wire(from, wire);
        let mut work = std::mem::take(&mut self.idle_work);
        self.route(fx, out, &mut work);
        self.pump(st, fx, now, work);
    }

    /// Handles a peer's loss-recovery sync: retransmit archived messages
    /// the peer is missing (its duplicate suppression absorbs extras).
    pub fn on_sync(&mut self, fx: &mut Effects, from: SiteId, watermarks: &[u64]) {
        // Answer only for our own messages: one authoritative responder per
        // gap keeps lossy-mode recovery traffic linear.
        let me = self.rb.me();
        for wire in self.rb.retransmissions_for(watermarks, 32) {
            if wire.id.origin == me {
                fx.send_to(from, ReplicaMsg::R(wire));
            }
        }
    }

    /// Periodic tick in loss-recovery (relay) mode: publish our delivery
    /// watermarks so peers can fill our gaps. With backoff enabled, the
    /// solicitation cadence doubles while the watermarks stand still and
    /// snaps back to every tick the moment they move.
    pub fn on_tick(&mut self, fx: &mut Effects) {
        let marks = self.rb.watermarks();
        if marks != self.last_watermarks {
            self.backoff.reset();
            self.last_watermarks = marks.clone();
        }
        if self.backoff.due() {
            fx.send_others(ReplicaMsg::RSync(marks));
        }
    }

    /// Installs a new view: departed sites are no longer expected to vote,
    /// and transactions originated by departed sites abort.
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

    /// Broadcasts `payload`, routing wire traffic to `fx` and the local
    /// self-delivery into the work queue.
    fn bcast(&mut self, fx: &mut Effects, payload: Payload, work: &mut VecDeque<Work>) {
        // The single payload allocation of this broadcast: every wire copy
        // and archive entry from here on is a refcount bump.
        let (_, out) = self.rb.broadcast(Arc::new(payload));
        self.route(fx, out, work);
    }

    fn route(
        &mut self,
        fx: &mut Effects,
        out: reliable::Output<Arc<Payload>>,
        work: &mut VecDeque<Work>,
    ) {
        for ob in out.outbound {
            fx.send(ob.dest, ReplicaMsg::R(ob.wire));
        }
        for d in out.deliveries {
            work.push_back(Work::Deliver(d.payload));
        }
    }

    /// Drains the work queue to a fixed point.
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
                Work::Deliver(p) => self.on_deliver(st, fx, now, p, &mut work),
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
            LocalEvent::ReadsComplete(id) => self.start_write_phase(st, fx, now, id, work),
            LocalEvent::RemotePrepared(id) => self.maybe_vote(st, fx, now, id, work),
            LocalEvent::RemoteDoomed(id, _reason) => {
                if id.origin == st.me {
                    // Our own transaction was condemned here: abort it
                    // globally right away rather than waiting for the vote
                    // round.
                    self.bcast(fx, Payload::AbortDecision { txn: id }, work);
                } else {
                    self.maybe_vote(st, fx, now, id, work);
                }
            }
            LocalEvent::RemoteKeyGranted(..) => {}
            LocalEvent::ReadPaused(id) => fx.pauses.push(id),
        }
    }

    /// Origin side: reads done → broadcast the write set, then the commit
    /// request (FIFO delivers them in this order everywhere). With think
    /// time configured, operations go out one per step instead.
    fn start_write_phase(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        id: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        if !st.local.contains_key(&id) {
            return; // wounded in the meantime
        };
        if st.think.is_zero() {
            self.emit_write_step(st, fx, now, id, usize::MAX, work);
        } else {
            self.writing.insert(id, 0);
            self.emit_write_step(st, fx, now, id, 1, work);
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
        self.emit_write_step(st, fx, now, id, 1, &mut work);
        if self.writing.contains_key(&id) {
            fx.write_pauses.push(id);
        }
        self.pump(st, fx, now, work);
    }

    /// Broadcasts up to `budget` write operations of `id` (usize::MAX = all
    /// of them plus the commit request in one go), then the commit request
    /// once the write set is out.
    fn emit_write_step(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
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
        } else {
            self.writing.insert(id, end);
        }
    }

    fn on_deliver(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        payload: Arc<Payload>,
        work: &mut VecDeque<Work>,
    ) {
        match &*payload {
            Payload::Write {
                txn, prio, op, of, ..
            } => {
                let mut events = EventBuf::new();
                st.deliver_write_op(*txn, *prio, op.clone(), *of, now, &mut events);
                work.extend(events.into_iter().map(Work::Event));
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
                // THE GATE (mirror of the causal protocol's): conflicts
                // between this writer and *local readers* must be settled
                // now, or the site's vote could wait on a reader that —
                // across sites — waits back on this writer: a distributed
                // cycle no local waits-for graph can see. Read-only readers
                // veto the writer (they are never aborted); update readers
                // still in their read phase are wounded (purely local);
                // readers that already broadcast are governed by the
                // priority rules, which votes make globally visible.
                self.gate_local_readers(st, now, txn, work);
                self.maybe_vote(st, fx, now, txn, work);
            }
            &Payload::Vote { txn, site, yes } => {
                // A vote can arrive before any write op (no cross-origin
                // ordering); the priority on the entry is fixed up when the
                // ops arrive.
                let placeholder = TxnPriority {
                    ts: u64::MAX,
                    origin: txn.origin,
                    num: txn.num,
                };
                let Some(entry) = st.remote_entry(txn, placeholder) else {
                    return;
                };
                if yes {
                    entry.votes_yes.insert(site);
                } else {
                    entry.votes_no.insert(site);
                }
                self.try_decide(st, now, txn, work);
            }
            &Payload::AbortDecision { txn } => {
                let reason = st
                    .remote
                    .get(&txn)
                    .and_then(|e| e.doomed)
                    .unwrap_or(AbortReason::Wounded);
                let mut events = EventBuf::new();
                st.apply_remote_abort(txn, reason, now, &mut events);
                work.extend(events.into_iter().map(Work::Event));
            }
            Payload::Nack { .. } | Payload::Null => {
                // Not used by this protocol.
            }
        }
    }

    /// Settles conflicts between a commit-requesting writer and local
    /// readers before this site's vote can be held hostage by them.
    fn gate_local_readers(
        &mut self,
        st: &mut SiteState,
        now: SimTime,
        txn: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        use bcastdb_db::lock::LockMode;
        use bcastdb_db::Key;
        let write_keys: Vec<Key> = st
            .remote
            .get(&txn)
            .map(|e| e.ops.iter().map(|o| o.key.clone()).collect())
            .unwrap_or_default();
        let mut veto_writer = false;
        let mut wound: Vec<TxnId> = Vec::new();
        for key in &write_keys {
            for (holder, mode) in st.locks.holders(key) {
                if holder == txn || mode != LockMode::Shared {
                    continue;
                }
                let Some(local) = st.local.get(&holder) else {
                    continue;
                };
                if local.spec.is_read_only() {
                    veto_writer = true;
                } else if matches!(local.phase, crate::state::LocalPhase::AcquiringReads { .. }) {
                    wound.push(holder);
                }
                // Write phase: priority rules + votes handle it.
            }
        }
        for reader in wound {
            let mut events = EventBuf::new();
            st.abort_local(reader, AbortReason::Wounded, now, &mut events);
            work.extend(events.into_iter().map(Work::Event));
        }
        if veto_writer {
            let mut events = EventBuf::new();
            st.doom_remote(txn, AbortReason::Wounded, &mut events);
            work.extend(events.into_iter().map(Work::Event));
        }
    }

    /// Casts this site's vote for `txn` if the commit request has been
    /// delivered and the outcome here is known.
    fn maybe_vote(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        txn: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        let Some(entry) = st.remote.get_mut(&txn) else {
            return;
        };
        if !entry.commit_req_seen || entry.my_vote.is_some() {
            return;
        }
        let vote = if entry.doomed.is_some() {
            Some(false)
        } else if entry.fully_prepared() {
            Some(true)
        } else {
            None // still waiting for locks or write ops
        };
        let Some(yes) = vote else { return };
        entry.my_vote = Some(yes);
        st.trace_vote(txn, yes, now);
        if yes {
            // Older transactions queued behind this now-prepared holder
            // must not wait for an irrevocable vote: doom them here (we
            // vote NO for them when their commit requests arrive).
            let mut events = EventBuf::new();
            st.doom_older_waiters_behind(txn, &mut events);
            work.extend(events.into_iter().map(Work::Event));
        }
        let site = st.me;
        self.bcast(fx, Payload::Vote { txn, site, yes }, work);
    }

    /// Decides `txn` once the view's votes are in (decentralized 2PC: each
    /// site decides independently from the same votes).
    ///
    /// With [`ReliableProto::fast_commit`] enabled, a transaction whose
    /// only missing voters are *suspected* sites is decided speculatively
    /// from the surviving quorum: if a strict majority of the view voted
    /// YES (our own YES among them) and nobody voted NO, commit without
    /// waiting for the suspects — the decision a view change would reach
    /// anyway, taken one failure-detection round earlier. The
    /// abort-on-late-conflicting-vote rule is the NO-first ordering here:
    /// a conflicting NO that lands before the speculative decision always
    /// wins; one that lands after is ignored (the decision is final).
    fn try_decide(
        &mut self,
        st: &mut SiteState,
        now: SimTime,
        txn: TxnId,
        work: &mut VecDeque<Work>,
    ) {
        let Some(entry) = st.remote.get(&txn) else {
            return;
        };
        let mut events = EventBuf::new();
        if !entry.votes_no.is_empty() {
            let reason = entry.doomed.unwrap_or(AbortReason::NegativeVote);
            st.apply_remote_abort(txn, reason, now, &mut events);
        } else if self.view.iter().all(|s| entry.votes_yes.contains(s)) {
            st.apply_commit(txn, now, &mut events);
        } else if self.fast_commit
            // Our own YES is in: the local write set is complete and
            // prepared, so the commit can apply here immediately.
            && entry.my_vote == Some(true)
            // Every missing voter is suspected by the failure detector…
            && self
                .view
                .iter()
                .all(|s| entry.votes_yes.contains(s) || self.suspected.contains(s))
            // …and the surviving YES voters are a strict majority of the
            // view, so no other view can decide differently.
            && 2 * self.view.iter().filter(|s| entry.votes_yes.contains(s)).count()
                > self.view.len()
        {
            st.trace_fast_decide(txn, now);
            st.trace_decided(txn, true, now);
            st.apply_commit(txn, now, &mut events);
        }
        work.extend(events.into_iter().map(Work::Event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ConflictPolicy;
    use bcastdb_broadcast::msg::expand_dest;
    use bcastdb_db::TxnSpec;
    use std::collections::VecDeque as Q;

    /// A transport-free harness: n sites' protocol + state, wires shuttled
    /// through an in-memory FIFO queue.
    struct Rig {
        protos: Vec<ReliableProto>,
        states: Vec<SiteState>,
        wires: Q<(SiteId, SiteId, ReplicaMsg)>,
        /// Every vote broadcast so far: `(txn, voter, yes)`.
        votes: Vec<(TxnId, SiteId, bool)>,
    }

    impl Rig {
        fn new(n: usize) -> Rig {
            let mut states: Vec<SiteState> = (0..n)
                .map(|i| SiteState::new(SiteId(i), n, ConflictPolicy::WoundWait))
                .collect();
            for st in states.iter_mut() {
                st.resolve_read_deadlocks = true;
            }
            Rig {
                protos: (0..n).map(|i| ReliableProto::new(SiteId(i), n)).collect(),
                states,
                wires: Q::new(),
                votes: Vec::new(),
            }
        }

        fn absorb(&mut self, me: SiteId, fx: Effects) {
            let n = self.protos.len();
            for (dest, msg) in fx.sends {
                if let ReplicaMsg::R(wire) = &msg {
                    if let Payload::Vote { txn, site, yes } = *wire.payload {
                        self.votes.push((txn, site, yes));
                    }
                }
                for to in expand_dest(dest, me, n) {
                    if to != me {
                        self.wires.push_back((me, to, msg.clone()));
                    }
                }
            }
        }

        fn submit(&mut self, site: usize, spec: TxnSpec) -> TxnId {
            let mut fx = Effects::new();
            let (id, events) = self.states[site].begin_txn(SimTime::from_micros(site as u64), spec);
            self.protos[site].handle_events(&mut self.states[site], &mut fx, SimTime::ZERO, events);
            self.absorb(SiteId(site), fx);
            id
        }

        /// Delivers queued wires until empty.
        fn settle(&mut self) {
            while let Some((from, to, msg)) = self.wires.pop_front() {
                let mut fx = Effects::new();
                if let ReplicaMsg::R(wire) = msg {
                    self.protos[to.0].on_wire(
                        &mut self.states[to.0],
                        &mut fx,
                        SimTime::from_micros(1),
                        from,
                        wire,
                    );
                }
                self.absorb(to, fx);
            }
        }
    }

    #[test]
    fn uncontended_txn_collects_all_votes_and_commits_everywhere() {
        let mut rig = Rig::new(3);
        let id = rig.submit(0, TxnSpec::new().write("x", 7));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(true), "site {i}");
            assert_eq!(st.store.value(&bcastdb_db::Key::new("x")), 7, "site {i}");
            assert!(st.remote.is_empty(), "site {i} retired the entry");
            assert!(
                rig.votes.contains(&(id, SiteId(i), true)),
                "site {i} voted yes"
            );
        }
        assert_eq!(rig.votes.len(), 3, "one vote per site");
    }

    #[test]
    fn redelivery_after_the_decision_resurrects_nothing() {
        let mut rig = Rig::new(3);
        let id = rig.submit(0, TxnSpec::new().write("x", 7));
        rig.settle();
        let now = SimTime::from_micros(9);
        for (i, (p, st)) in rig.protos.iter_mut().zip(&mut rig.states).enumerate() {
            let logged = st.log.len();
            for payload in crate::protocols::tests::stale_payloads(id) {
                let mut fx = Effects::new();
                let mut work = VecDeque::new();
                p.on_deliver(st, &mut fx, now, payload.clone(), &mut work);
                p.pump(st, &mut fx, now, work);
                assert!(fx.sends.is_empty(), "site {i} answered {payload:?}");
            }
            assert!(st.remote.is_empty() && !st.has_undecided(), "site {i}");
            assert_eq!(st.log.len(), logged, "site {i} terminated {id} again");
            assert_eq!(st.decided.get(&id), Some(true), "site {i}");
        }
    }

    #[test]
    fn gate_vetoes_writer_conflicting_with_read_only_reader() {
        let mut rig = Rig::new(2);
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
        let w = rig.submit(0, TxnSpec::new().write("x", 3));
        rig.settle();
        assert_eq!(rig.states[0].decided.get(&w), Some(false), "writer vetoed");
        assert!(
            !rig.states[1].decided.contains_key(&ro),
            "read-only reader survives"
        );
        assert!(
            rig.votes.contains(&(w, SiteId(1), false)),
            "site 1 cast the NO vote"
        );
    }

    #[test]
    fn one_no_vote_aborts_globally() {
        let mut rig = Rig::new(3);
        let id = rig.submit(0, TxnSpec::new().write("x", 1));
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

        let ticks = |p: &mut ReliableProto, n: usize| -> usize {
            let mut sent = 0;
            for _ in 0..n {
                let mut fx = Effects::new();
                p.on_tick(&mut fx);
                sent += fx.sends.len();
            }
            sent
        };

        // Without backoff (the default), every tick solicits.
        let mut plain = ReliableProto::new_with_relay(SiteId(0), 3);
        assert_eq!(ticks(&mut plain, 64), 64);

        // With backoff, a stalled site solicits exponentially more rarely.
        let mut p = ReliableProto::new_with_relay(SiteId(0), 3);
        p.enable_backoff();
        let stalled = ticks(&mut p, 64);
        assert!(
            (1..16).contains(&stalled),
            "64 stalled ticks must coalesce into a handful of syncs, got {stalled}"
        );

        // Progress (a delivery advancing the watermarks) snaps the cadence
        // back to the very next tick.
        let mut st = SiteState::new(SiteId(0), 3, ConflictPolicy::WoundWait);
        let mut fx = Effects::new();
        p.on_wire(
            &mut st,
            &mut fx,
            SimTime::from_micros(1),
            SiteId(1),
            reliable::Wire {
                id: MsgId {
                    origin: SiteId(1),
                    seq: 1,
                },
                payload: std::sync::Arc::new(Payload::Null),
            },
        );
        let mut fx = Effects::new();
        p.on_tick(&mut fx);
        assert_eq!(fx.sends.len(), 1, "post-progress tick solicits again");
    }

    #[test]
    fn fifo_guarantees_ops_before_commit_request() {
        // The commit request never outruns the writes: by the time any site
        // votes, its write set is complete.
        let mut rig = Rig::new(4);
        let id = rig.submit(1, TxnSpec::new().write("a", 1).write("b", 2).write("c", 3));
        rig.settle();
        for st in &rig.states {
            assert_eq!(st.decided.get(&id), Some(true));
            let logged = st.log.records().iter().find_map(|r| match r {
                bcastdb_db::LogRecord::Commit { txn, writes } if *txn == id => Some(writes.len()),
                _ => None,
            });
            assert_eq!(logged, Some(3), "the whole write set committed");
        }
    }
}
