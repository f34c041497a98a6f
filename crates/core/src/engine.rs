//! The replica node: one per site, implementing the simulator's [`Node`]
//! trait and dispatching between the configured protocol, the membership
//! service, and the shared site state.

use crate::metrics::AbortReason;
use crate::payload::{AbcastImpl, ProtocolKind, ReplicaMsg, ReplicaTimer};
use crate::protocols::{
    atomic::AtomicProto, causal::CausalProto, p2p::P2pProto, reliable::ReliableProto, Effects,
};
use crate::state::{ConflictPolicy, EventBuf, SiteState};
use bcastdb_broadcast::batch::{Batch, Batcher};
use bcastdb_broadcast::membership::{MemberEvent, ViewManager};
use bcastdb_broadcast::msg::dest_iter;
use bcastdb_sim::inline::InlineVec;
use bcastdb_sim::telemetry::{Phase, TraceEvent};
use bcastdb_sim::{Ctx, Node, Sample, SendOutcome, SimDuration, SimTime, SiteId};
use std::collections::BTreeSet;

/// Per-node configuration (derived from the cluster config).
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Which protocol this cluster runs.
    pub protocol: ProtocolKind,
    /// Atomic-broadcast implementation (atomic protocol only).
    pub abcast: AbcastImpl,
    /// Conflict policy between update transactions.
    pub policy: ConflictPolicy,
    /// Tick period (timeout checks, causal null messages, membership
    /// heartbeats).
    pub tick_every: SimDuration,
    /// Deadlock timeout of the point-to-point baseline.
    pub p2p_timeout: SimDuration,
    /// Whether the causal protocol emits null messages on ticks.
    pub null_messages: bool,
    /// Whether the membership service runs (needed only for failure
    /// experiments; it keeps the simulation from quiescing).
    pub membership: bool,
    /// Failure-detector suspicion timeout (when membership is on).
    pub suspect_after: SimDuration,
    /// Speculative fast commit (reliable and causal protocols, membership
    /// on): decide from the surviving quorum's votes/acks once every
    /// missing voter is suspected, instead of waiting out the view change.
    pub fast_commit: bool,
    /// Eager broadcast relaying (loss tolerance for the reliable and
    /// causal protocols at `O(N²)` message cost).
    pub relay: bool,
    /// Bounded exponential backoff (with deterministic jitter) on the
    /// loss-recovery solicitation cadence — reliable `RSync` watermarks
    /// and causal gap-reporting nulls. Off by default: the fixed
    /// once-per-tick cadence stays byte-identical to prior behavior.
    pub retransmit_backoff: bool,
    /// Per-operation think time (read acquisition and write broadcasts).
    pub think_time: SimDuration,
    /// Replica placement.
    pub placement: crate::placement::Placement,
    /// Batching flush window: `None` (default) sends every message
    /// individually — byte-identical to the pre-batching behavior.
    /// `Some(w)` coalesces outgoing messages per destination and flushes
    /// them as one wire transmission after at most `w` (earlier if
    /// `batch_max_bytes` would overflow). Acks, votes, and other control
    /// traffic piggyback on whatever batch is already leaving.
    pub batch_window: Option<SimDuration>,
    /// Size cap of one batch on the wire, in bytes (envelope included).
    pub batch_max_bytes: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            protocol: ProtocolKind::ReliableBcast,
            abcast: AbcastImpl::default(),
            policy: ConflictPolicy::default(),
            tick_every: SimDuration::from_millis(5),
            p2p_timeout: SimDuration::from_millis(500),
            null_messages: true,
            membership: false,
            suspect_after: SimDuration::from_millis(100),
            fast_commit: false,
            relay: false,
            retransmit_backoff: false,
            think_time: SimDuration::ZERO,
            placement: crate::placement::Placement::Full,
            batch_window: None,
            batch_max_bytes: 1_400,
        }
    }
}

/// State-transfer snapshot produced by [`ReplicaNode::export_snapshot`].
#[derive(Debug, Clone)]
pub struct ResyncSnapshot {
    store: bcastdb_db::Store,
    decided: crate::state::Outcomes,
    log: bcastdb_db::RedoLog,
    view: BTreeSet<SiteId>,
    member_view: Option<bcastdb_broadcast::membership::View>,
    reliable: Option<Vec<u64>>,
    causal_clock: Option<bcastdb_broadcast::VectorClock>,
    atomic: Option<crate::protocols::atomic::AbSnapshot>,
}

#[derive(Debug)]
enum Proto {
    P2p(P2pProto),
    Reliable(ReliableProto),
    Causal(CausalProto),
    Atomic(AtomicProto),
}

/// One replica of the replicated database.
#[derive(Debug)]
pub struct ReplicaNode {
    st: SiteState,
    proto: Proto,
    member: Option<ViewManager>,
    cfg: NodeConfig,
    tick_armed: bool,
    /// Outgoing-message coalescing, present iff `cfg.batch_window` is set.
    batcher: Option<Batcher<ReplicaMsg>>,
    /// True while a `FlushBatch` timer is pending.
    flush_armed: bool,
    /// Reusable [`Effects`] buffers: taken at the start of each step and
    /// stored back (drained, capacity kept) by [`ReplicaNode::flush`], so
    /// steady-state steps allocate no effect vectors at all.
    scratch: Effects,
    /// The suspicion set reported to the protocol on the previous
    /// membership tick; `Suspect` trace events fire on its growth.
    last_suspected: BTreeSet<SiteId>,
}

impl ReplicaNode {
    /// Creates the replica for site `me` of `n` under `cfg`.
    pub fn new(me: SiteId, n: usize, cfg: NodeConfig) -> Self {
        let mut st = SiteState::new(me, n, cfg.policy);
        let proto = match cfg.protocol {
            ProtocolKind::PointToPoint => {
                st.wound_remote = false;
                st.wound_local_readers = false;
                Proto::P2p(P2pProto::new(cfg.p2p_timeout))
            }
            ProtocolKind::ReliableBcast => {
                st.resolve_read_deadlocks = true;
                let mut p = if cfg.relay {
                    ReliableProto::new_with_relay(me, n)
                } else {
                    ReliableProto::new(me, n)
                };
                p.fast_commit = cfg.fast_commit;
                if cfg.retransmit_backoff {
                    p.enable_backoff();
                }
                Proto::Reliable(p)
            }
            ProtocolKind::CausalBcast => {
                st.wound_remote = false;
                st.rank_by_delivery = true;
                let mut p = if cfg.relay {
                    CausalProto::new_with_relay(me, n)
                } else {
                    CausalProto::new(me, n)
                };
                p.null_messages = cfg.null_messages;
                p.fast_commit = cfg.fast_commit;
                if cfg.retransmit_backoff {
                    p.enable_backoff();
                }
                Proto::Causal(p)
            }
            ProtocolKind::AtomicBcast => {
                st.wound_remote = false;
                Proto::Atomic(AtomicProto::new(me, n, cfg.abcast))
            }
        };
        st.think = cfg.think_time;
        st.placement = cfg.placement;
        let member = cfg
            .membership
            .then(|| ViewManager::new(me, n, cfg.tick_every, cfg.suspect_after));
        let batcher = cfg.batch_window.map(|_| Batcher::new(cfg.batch_max_bytes));
        ReplicaNode {
            st,
            proto,
            member,
            cfg,
            tick_armed: false,
            batcher,
            flush_armed: false,
            scratch: Effects::new(),
            last_suspected: BTreeSet::new(),
        }
    }

    /// Read access to the shared site state (stores, metrics, decisions).
    pub fn state(&self) -> &SiteState {
        &self.st
    }

    /// Mutable access to the site state (test setup, e.g. seeding stores).
    pub fn state_mut(&mut self) -> &mut SiteState {
        &mut self.st
    }

    /// The installed view's members (full set when membership is off).
    pub fn view_members(&self) -> BTreeSet<SiteId> {
        match &self.member {
            Some(m) => m.view().members.clone(),
            None => (0..self.st.n).map(SiteId).collect(),
        }
    }

    /// True while this site may process transactions (in a majority view).
    pub fn is_operational(&self) -> bool {
        self.member.as_ref().is_none_or(|m| m.is_operational())
    }

    /// Captures everything a recovering replica needs from this one (state
    /// transfer at a quiet moment): the committed store, decisions, redo
    /// log, view, and the broadcast engines' delivery positions.
    pub fn export_snapshot(&self) -> ResyncSnapshot {
        ResyncSnapshot {
            store: self.st.store.clone(),
            decided: self.st.decided.clone(),
            log: self.st.log.clone(),
            view: self.view_members(),
            member_view: self.member.as_ref().map(|m| m.view().clone()),
            reliable: match &self.proto {
                Proto::Reliable(p) => Some(p.watermarks()),
                _ => None,
            },
            causal_clock: match &self.proto {
                Proto::Causal(p) => Some(p.clock()),
                _ => None,
            },
            atomic: match &self.proto {
                Proto::Atomic(p) => Some(p.snapshot()),
                _ => None,
            },
        }
    }

    /// Re-initialises this (previously crashed) replica from a donor
    /// snapshot. Assumes a quiet moment — in-flight transaction state is
    /// dropped; the transferred store, log, and decisions carry all
    /// outcomes. Missed broadcasts are *not* redelivered: the engines
    /// resume past them at the donor's delivery positions.
    pub fn import_snapshot(&mut self, snap: ResyncSnapshot, now: SimTime) {
        self.st.store = snap.store;
        self.st.rebase_on(&snap.decided);
        self.st.log = snap.log;
        self.st.locks = bcastdb_db::LockManager::new();
        match (
            &mut self.proto,
            snap.reliable,
            snap.causal_clock,
            snap.atomic,
        ) {
            (Proto::Reliable(p), Some(w), _, _) => p.resume(&w, snap.view.clone()),
            (Proto::Causal(p), _, Some(vc), _) => p.resume(&vc, snap.view.clone()),
            (Proto::Atomic(p), _, _, Some(s)) => p.resume(&s, snap.view.clone()),
            (Proto::P2p(p), _, _, _) => p.resume(),
            _ => {}
        }
        if let (Some(m), Some(v)) = (&mut self.member, snap.member_view) {
            m.resume(v, now);
        }
        self.tick_armed = false;
        self.last_suspected.clear();
        // Anything queued for batching at crash time is stale: discard it.
        // A leftover FlushBatch timer is harmless (flushing empty is a
        // no-op), so just let the next send re-arm.
        if let Some(b) = &mut self.batcher {
            b.flush_all();
        }
        self.flush_armed = false;
    }

    fn flush(&mut self, mut fx: Effects, ctx: &mut Ctx<'_, ReplicaMsg, ReplicaTimer>) {
        for id in fx.pauses.drain(..) {
            ctx.set_timer(self.cfg.think_time, ReplicaTimer::ReadStep(id));
        }
        for id in fx.write_pauses.drain(..) {
            ctx.set_timer(self.cfg.think_time, ReplicaTimer::WriteStep(id));
        }
        let me = ctx.me();
        let now = ctx.now();
        for (dest, msg) in fx.sends.drain(..) {
            let kind = msg.kind();
            let phase = msg.phase();
            for to in dest_iter(dest, me, ctx.n_sites()) {
                if to == me {
                    continue; // self-deliveries are handled internally
                }
                // Kind and phase counters move together at this single call
                // site, so the per-phase totals sum to the flat counts by
                // construction. This is the *logical* accounting: with
                // batching on, the message is recorded here (when enqueued)
                // and the wire transmission is recorded at batch flush, so
                // the logical counts are identical with batching on or off.
                self.st.metrics.record_send(kind, phase);
                self.st.tracer.emit(|| TraceEvent::Send {
                    at: now,
                    from: me,
                    to,
                    phase,
                });
                match &mut self.batcher {
                    Some(b) => {
                        let full = b.push(to, msg.clone());
                        if let Some(batch) = full {
                            self.send_wire_batch(batch, ctx);
                        }
                    }
                    None => match ctx.send(to, msg.clone()) {
                        SendOutcome::Dropped => {
                            self.st.tracer.emit(|| TraceEvent::Drop {
                                at: now,
                                from: me,
                                to,
                                phase,
                            });
                        }
                        SendOutcome::Duplicated => {
                            // A fault-plan duplicate means two wire copies
                            // of one logical message: trace the second Send
                            // so delivered <= sent still holds per link.
                            // Metrics deliberately count one logical send.
                            self.st.tracer.emit(|| TraceEvent::Send {
                                at: now,
                                from: me,
                                to,
                                phase,
                            });
                        }
                        SendOutcome::Accepted => {}
                    },
                }
            }
        }
        self.arm_flush(ctx);
        // Hand the drained (but still allocated) buffers back for the next
        // step.
        self.scratch = fx;
    }

    /// Hands one coalesced batch to the network as a single sized
    /// transmission, recording the wire-level accounting. Even a batch of
    /// one message travels in the envelope, so a flushed run's network
    /// message count *is* its wire-batch count.
    fn send_wire_batch(
        &mut self,
        batch: Batch<ReplicaMsg>,
        ctx: &mut Ctx<'_, ReplicaMsg, ReplicaTimer>,
    ) {
        let now = ctx.now();
        let me = ctx.me();
        let to = batch.to;
        let msgs = batch.msgs.len() as u64;
        let bytes = batch.bytes;
        self.st.metrics.record_wire_batch(msgs, bytes as u64);
        self.st.stats.observe("batch.flush_msgs", msgs);
        self.st.stats.observe("batch.flush_bytes", bytes as u64);
        self.st.tracer.emit(|| TraceEvent::BatchFlushed {
            at: now,
            from: me,
            to,
            msgs,
            bytes: bytes as u64,
        });
        // The phase list is only consumed if the envelope is lost, but it
        // must be captured before the messages move into the wire payload.
        // Inline storage keeps the common (delivered, small-batch) case
        // allocation-free; only a tracer-off run can skip it entirely.
        let mut phases: InlineVec<Phase, 16> = InlineVec::new();
        if self.st.tracer.is_enabled() {
            phases.extend(batch.msgs.iter().map(|m| m.phase()));
        }
        match ctx.send_sized(to, ReplicaMsg::Batch(batch.msgs), bytes) {
            SendOutcome::Dropped => {
                // The whole envelope was lost: trace the loss of every
                // logical message it carried, mirroring the unbatched path.
                for phase in phases {
                    self.st.tracer.emit(|| TraceEvent::Drop {
                        at: now,
                        from: me,
                        to,
                        phase,
                    });
                }
            }
            SendOutcome::Duplicated => {
                // The whole envelope was duplicated: every logical message
                // it carried will be delivered twice, so trace the second
                // Send of each, mirroring the unbatched path.
                for phase in phases {
                    self.st.tracer.emit(|| TraceEvent::Send {
                        at: now,
                        from: me,
                        to,
                        phase,
                    });
                }
            }
            SendOutcome::Accepted => {}
        }
    }

    /// Schedules the flush-window timer when messages are waiting and no
    /// timer is pending. No-op with batching off.
    fn arm_flush(&mut self, ctx: &mut Ctx<'_, ReplicaMsg, ReplicaTimer>) {
        let Some(window) = self.cfg.batch_window else {
            return;
        };
        let pending = self.batcher.as_ref().is_some_and(|b| !b.is_empty());
        if pending && !self.flush_armed {
            self.flush_armed = true;
            ctx.set_timer(window, ReplicaTimer::FlushBatch);
        }
    }

    fn arm_tick(&mut self, ctx: &mut Ctx<'_, ReplicaMsg, ReplicaTimer>) {
        // Ticks are only scheduled while someone needs them: the membership
        // service (heartbeats), the baseline (timeout checks), or the causal
        // protocol's null messages. Otherwise an idle cluster quiesces.
        let proto_wants = match &self.proto {
            Proto::P2p(_) => self.st.has_undecided(),
            Proto::Causal(p) => p.needs_ticks(&self.st),
            // Loss-recovery mode: tick while undecided so gaps get filled.
            Proto::Reliable(_) => self.cfg.relay && self.st.has_undecided(),
            Proto::Atomic(_) => false,
        };
        let need = self.member.is_some() || proto_wants;
        if need && !self.tick_armed {
            self.tick_armed = true;
            ctx.set_timer(self.cfg.tick_every, ReplicaTimer::Tick);
        }
    }

    fn member_tick(&mut self, fx: &mut Effects, now: SimTime) {
        let Some(m) = &mut self.member else { return };
        let (events, outbound) = m.tick(now);
        for ob in outbound {
            fx.send(ob.dest, ReplicaMsg::Member(ob.wire));
        }
        // Snapshot the failure detector's *speculative* suspicion set after
        // the tick (view installs refresh liveness for re-admitted members),
        // before `apply_member_events` needs `&mut self`. The speculation
        // window is half the eviction timeout: eviction installs the
        // shrunken view at the very tick full suspicion fires, so a fast
        // commit only beats the view change if it suspects sooner. Half the
        // timeout still dwarfs the worst-case link latency, which is all
        // the safety argument needs (DESIGN.md §15).
        let suspected = self.cfg.fast_commit.then(|| {
            let window = SimDuration::from_micros(self.cfg.suspect_after.as_micros() / 2);
            m.suspected_within(now, window)
        });
        self.apply_member_events(fx, now, events);
        if let Some(suspected) = suspected {
            let me = self.st.me;
            for &s in suspected.difference(&self.last_suspected) {
                self.st.tracer.emit(|| TraceEvent::Suspect {
                    at: now,
                    site: me,
                    suspect: s,
                });
            }
            self.last_suspected.clone_from(&suspected);
            match &mut self.proto {
                Proto::Reliable(p) => p.on_suspect(&mut self.st, fx, now, &suspected),
                Proto::Causal(p) => p.on_suspect(&mut self.st, fx, now, &suspected),
                // The baseline decides over all n sites and the atomic
                // protocol's delivery is ack-free: no quorum to shrink.
                Proto::P2p(_) | Proto::Atomic(_) => {}
            }
        }
    }

    fn apply_member_events(&mut self, fx: &mut Effects, now: SimTime, events: Vec<MemberEvent>) {
        for ev in events {
            match ev {
                MemberEvent::ViewInstalled(view) => {
                    let view_id = view.id;
                    let members = view.members;
                    let me = self.st.me;
                    let roster: Vec<SiteId> = members.iter().copied().collect();
                    self.st.tracer.emit(move || TraceEvent::ViewChange {
                        at: now,
                        site: me,
                        members: roster,
                    });
                    match &mut self.proto {
                        Proto::P2p(p) => {
                            // Baseline: abort in-flight txns from departed
                            // origins; surviving traffic continues.
                            let gone: Vec<_> = self
                                .st
                                .remote
                                .keys()
                                .filter(|t| !members.contains(&t.origin))
                                .collect();
                            for txn in gone {
                                let mut events = EventBuf::new();
                                self.st.apply_remote_abort(
                                    txn,
                                    AbortReason::ViewChange,
                                    now,
                                    &mut events,
                                );
                                p.handle_events(&mut self.st, fx, now, events);
                            }
                        }
                        Proto::Reliable(p) => p.set_view(&mut self.st, fx, now, members),
                        Proto::Causal(p) => p.set_view(&mut self.st, fx, now, members),
                        Proto::Atomic(p) => p.set_view(&mut self.st, fx, now, view_id, members),
                    }
                }
                MemberEvent::Isolated => {
                    // Outside every majority view: abort everything pending
                    // locally; the site blocks until it rejoins.
                    let pending: Vec<_> = self.st.local.keys().copied().collect();
                    for txn in pending {
                        let mut events = EventBuf::new();
                        self.st
                            .abort_local(txn, AbortReason::ViewChange, now, &mut events);
                        self.dispatch_events(fx, now, events);
                    }
                }
            }
        }
    }

    /// Delivers and dispatches one (possibly unbatched) incoming message:
    /// emits its `Deliver` trace event and routes it to the protocol,
    /// membership service, or recovery handler it belongs to.
    fn handle_one(
        &mut self,
        fx: &mut Effects,
        now: SimTime,
        me: SiteId,
        from: SiteId,
        msg: ReplicaMsg,
    ) {
        let phase = msg.phase();
        self.st.tracer.emit(|| TraceEvent::Deliver {
            at: now,
            from,
            to: me,
            phase,
        });
        match (msg, &mut self.proto) {
            (ReplicaMsg::R(wire), Proto::Reliable(p)) => {
                p.on_wire(&mut self.st, fx, now, from, wire)
            }
            (ReplicaMsg::C(wire), Proto::Causal(p)) => p.on_wire(&mut self.st, fx, now, from, wire),
            (ReplicaMsg::C(wire), Proto::Atomic(p)) => {
                p.on_causal_wire(&mut self.st, fx, now, from, wire)
            }
            (ReplicaMsg::ASeq(wire), Proto::Atomic(p)) => {
                p.on_seq_wire(&mut self.st, fx, now, from, wire)
            }
            (ReplicaMsg::AIsis(wire), Proto::Atomic(p)) => {
                p.on_isis_wire(&mut self.st, fx, now, from, wire)
            }
            (ReplicaMsg::ARing(wire), Proto::Atomic(p)) => {
                p.on_ring_wire(&mut self.st, fx, now, from, wire)
            }
            (ReplicaMsg::P2p(m), Proto::P2p(p)) => p.on_msg(&mut self.st, fx, now, from, m),
            (ReplicaMsg::CRetrans(wire), Proto::Causal(p)) => {
                p.on_retrans_wire(&mut self.st, fx, now, from, wire)
            }
            (ReplicaMsg::RSync(watermarks), Proto::Reliable(p)) => {
                p.on_sync(fx, from, &watermarks);
            }
            (ReplicaMsg::Member(wire), _) => {
                if let Some(m) = &mut self.member {
                    let (events, outbound) = m.on_wire(from, wire, now);
                    for ob in outbound {
                        fx.send(ob.dest, ReplicaMsg::Member(ob.wire));
                    }
                    self.apply_member_events(fx, now, events);
                }
            }
            _ => {
                // Message for a protocol this cluster does not run — or a
                // nested batch, which the flush path never produces; drop.
            }
        }
    }

    fn dispatch_events(&mut self, fx: &mut Effects, now: SimTime, events: EventBuf) {
        if events.is_empty() {
            return;
        }
        match &mut self.proto {
            Proto::P2p(p) => p.handle_events(&mut self.st, fx, now, events),
            Proto::Reliable(p) => p.handle_events(&mut self.st, fx, now, events),
            Proto::Causal(p) => p.handle_events(&mut self.st, fx, now, events),
            Proto::Atomic(p) => p.handle_events(&mut self.st, fx, now, events),
        }
    }
}

impl Node for ReplicaNode {
    type Msg = ReplicaMsg;
    type Timer = ReplicaTimer;

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, ReplicaMsg, ReplicaTimer>,
        from: SiteId,
        msg: ReplicaMsg,
    ) {
        let now = ctx.now();
        let mut fx = std::mem::take(&mut self.scratch);
        if let Some(m) = &mut self.member {
            m.heard_from(from, now);
        }
        let me = ctx.me();
        match msg {
            // Unwrap a batch envelope: each inner message is delivered and
            // processed in push order, exactly as if it had travelled
            // alone. The envelope itself never enters accounting.
            ReplicaMsg::Batch(msgs) => {
                for m in msgs {
                    self.handle_one(&mut fx, now, me, from, m);
                }
            }
            msg => self.handle_one(&mut fx, now, me, from, msg),
        }
        self.flush(fx, ctx);
        self.arm_tick(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ReplicaMsg, ReplicaTimer>, tag: ReplicaTimer) {
        let now = ctx.now();
        let mut fx = std::mem::take(&mut self.scratch);
        match tag {
            ReplicaTimer::Submit(spec) => {
                if self.is_operational() {
                    let (_, events) = self.st.begin_txn(now, spec);
                    self.dispatch_events(&mut fx, now, events);
                }
            }
            ReplicaTimer::ReadStep(id) => {
                let mut events = EventBuf::new();
                self.st.advance_reads(id, now, &mut events);
                self.dispatch_events(&mut fx, now, events);
            }
            ReplicaTimer::WriteStep(id) => match &mut self.proto {
                Proto::Reliable(p) => p.continue_write(&mut self.st, &mut fx, now, id),
                Proto::Causal(p) => p.continue_write(&mut self.st, &mut fx, now, id),
                Proto::Atomic(p) => p.continue_write(&mut self.st, &mut fx, now, id),
                Proto::P2p(_) => {} // the baseline paces writes by its acks
            },
            ReplicaTimer::FlushBatch => {
                self.flush_armed = false;
                let batches = match &mut self.batcher {
                    Some(b) => b.flush_all(),
                    None => Vec::new(),
                };
                for batch in batches {
                    self.send_wire_batch(batch, ctx);
                }
            }
            ReplicaTimer::Tick => {
                self.tick_armed = false;
                match &mut self.proto {
                    Proto::P2p(p) => p.on_tick(&mut self.st, &mut fx, now),
                    Proto::Causal(p) => p.on_tick(&mut self.st, &mut fx, now),
                    Proto::Reliable(p) => {
                        if self.cfg.relay && self.st.has_undecided() {
                            p.on_tick(&mut fx);
                        }
                    }
                    Proto::Atomic(_) => {}
                }
                self.member_tick(&mut fx, now);
            }
        }
        self.flush(fx, ctx);
        self.arm_tick(ctx);
    }

    /// Contributes this replica's gauges to a metrics sample, under the
    /// canonical `s<site>.` prefix. Read-only by contract — the sampler
    /// must never change protocol behavior.
    fn sample_stats(&self, sample: &mut Sample) {
        let me = self.st.me;
        sample.set_site(me, "lock_waiters", self.st.locks.waiting_count() as u64);
        sample.set_site(me, "lock_keys", self.st.locks.active_keys() as u64);
        // Table sizes: `*_live` ones hold only what is in flight and read
        // zero at quiescence; the others grow with the run on purpose
        // (DESIGN.md, "state lifetimes").
        sample.set_site(me, "core.remote_live", self.st.remote.len() as u64);
        sample.set_site(me, "core.decided_len", self.st.decided.len() as u64);
        sample.set_site(me, "local_active", self.st.local_active_count() as u64);
        // Retransmission pressure: the causal protocol's retransmissions
        // and the reliable protocol's sync rounds, straight from the
        // per-site logical message accounting.
        sample.set_site(me, "retrans", self.st.metrics.counters.get("msg_retrans"));
        sample.set_site(me, "sync", self.st.metrics.counters.get("msg_sync"));
        if let Some(b) = &self.batcher {
            sample.set_site(me, "batch_pending_msgs", b.pending_msgs() as u64);
            sample.set_site(me, "batch_pending_bytes", b.pending_bytes() as u64);
        }
        match &self.proto {
            Proto::Reliable(p) => {
                let (dedup, archive) = p.table_sizes();
                sample.set_site(me, "rb.dedup_live", dedup as u64);
                sample.set_site(me, "rb.archive_len", archive as u64);
            }
            // Each backend reports its own gauges: the ring its pipeline
            // and repair log, the other two their duplicate trackers.
            Proto::Atomic(p) => match p.ring_gauges() {
                Some((inflight, forwarded, ordered)) => {
                    sample.set_site(me, "ring.inflight", inflight);
                    sample.set_site(me, "ring.forwarded", forwarded);
                    sample.set_site(me, "ring.ordered_len", ordered);
                }
                None => sample.set_site(me, "abcast.dedup_live", p.dedup_live() as u64),
            },
            Proto::P2p(_) | Proto::Causal(_) => {}
        }
    }
}
