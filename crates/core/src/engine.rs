//! The replica node: one per site, implementing the simulator's [`Node`]
//! trait and dispatching between the configured protocol, the membership
//! service, and the shared site state.

use crate::cluster::ClusterConfig;
use crate::metrics::AbortReason;
use crate::payload::{ReplicaMsg, ReplicaTimer};
use crate::protocols::{self, Effects, ProtoSnapshot, Protocol, Step};
use crate::state::{EventBuf, SiteState};
use bcastdb_broadcast::batch::{Batch, Batcher, WireSize, BATCH_MAX_BYTES};
use bcastdb_broadcast::membership::{MemberEvent, ViewManager};
use bcastdb_broadcast::msg::dest_iter;
use bcastdb_sim::inline::InlineVec;
use bcastdb_sim::telemetry::{Phase, TraceEvent};
use bcastdb_sim::{Ctx, Node, SampleWriter, SendOutcome, SimTime, SiteId};
use std::collections::BTreeSet;
use std::rc::Rc;

/// State-transfer snapshot produced by [`ReplicaNode::export_snapshot`].
#[derive(Debug, Clone)]
pub struct ResyncSnapshot {
    store: bcastdb_db::Store,
    decided: crate::state::Outcomes,
    view: BTreeSet<SiteId>,
    member_view: Option<bcastdb_broadcast::membership::View>,
    proto: ProtoSnapshot,
}

/// One replica of the replicated database.
#[derive(Debug)]
pub struct ReplicaNode {
    st: SiteState,
    proto: Box<dyn Protocol>,
    member: Option<ViewManager>,
    /// The cluster's configuration, shared by all its replicas.
    cfg: Rc<ClusterConfig>,
    tick_armed: bool,
    /// Outgoing-message coalescing, present iff `cfg.batch_window` is set.
    batcher: Option<Batcher<ReplicaMsg>>,
    /// Reusable buffer the flush timer drains the batcher into.
    flushed: Vec<Batch<ReplicaMsg>>,
    /// True while a `FlushBatch` timer is pending.
    flush_armed: bool,
    /// Reusable [`Effects`] buffers: taken at the start of each step and
    /// stored back (drained, capacity kept) by [`ReplicaNode::flush`], so
    /// steady-state steps allocate no effect vectors at all.
    scratch: Effects,
}

impl ReplicaNode {
    /// Creates the replica for site `me` of the cluster `cfg` describes.
    pub fn new(me: SiteId, cfg: Rc<ClusterConfig>) -> Self {
        let n = cfg.sites;
        let mut st = SiteState::new(me, n, cfg.policy);
        let proto = protocols::build(me, &cfg);
        proto.configure_state(&mut st);
        st.think = cfg.think_time;
        st.placement = cfg.placement;
        let member = cfg
            .membership
            .then(|| ViewManager::new(me, n, cfg.tick_every, cfg.suspect_after));
        let batcher = cfg.batch_window.map(|_| Batcher::new(BATCH_MAX_BYTES));
        ReplicaNode {
            st,
            proto,
            member,
            cfg,
            tick_armed: false,
            batcher,
            flushed: Vec::new(),
            flush_armed: false,
            scratch: Effects::new(),
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
    /// transfer at a quiet moment): the committed store, decisions, view,
    /// and the broadcast engines' delivery positions.
    pub fn export_snapshot(&self) -> ResyncSnapshot {
        ResyncSnapshot {
            store: self.st.store.clone(),
            decided: self.st.decided.clone(),
            view: self.view_members(),
            member_view: self.member.as_ref().map(|m| m.view().clone()),
            proto: self.proto.snapshot(),
        }
    }

    /// Re-initialises this (previously crashed) replica from a donor
    /// snapshot at a quiet moment: in-flight transaction state is dropped,
    /// the store and decisions carry all outcomes, and missed broadcasts
    /// are *not* redelivered: the engines resume at the donor's positions.
    pub fn import_snapshot(&mut self, snap: ResyncSnapshot, now: SimTime) {
        self.st.store = snap.store;
        self.st.rebase_on(&snap.decided);
        self.st.locks = bcastdb_db::LockManager::new();
        self.proto.resume(&snap.proto, snap.view);
        if let (Some(m), Some(v)) = (&mut self.member, snap.member_view) {
            m.resume(v, now);
        }
        self.tick_armed = false;
        // Anything queued for batching at crash time is stale: discard it.
        // A leftover FlushBatch timer is harmless (flushing empty is a
        // no-op), so just let the next send re-arm.
        if let Some(b) = &mut self.batcher {
            b.flush_into(&mut self.flushed);
            self.flushed.clear();
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
            let counter = msg.counter();
            let phase = msg.phase();
            // Sized once for all its destinations, and only for a batcher.
            let size = self.batcher.as_ref().map_or(0, |_| msg.wire_size());
            let mut sent = 0;
            for to in dest_iter(dest, me, ctx.n_sites()) {
                if to == me {
                    continue; // self-deliveries are handled internally
                }
                sent += 1;
                self.st.tracer.emit(|| TraceEvent::Send {
                    at: now,
                    from: me,
                    to,
                    phase,
                });
                match &mut self.batcher {
                    Some(b) => {
                        let full = b.push_sized(to, size, msg.clone());
                        if let Some(batch) = full {
                            self.send_wire_batch(batch, ctx);
                        }
                    }
                    None => {
                        let outcome = ctx.send(to, msg.clone());
                        self.trace_send_outcome(outcome, now, me, to, [phase]);
                    }
                }
            }
            // The *logical* accounting: with batching on, the message is
            // recorded here (when enqueued) and the wire transmission at
            // batch flush, so the logical counts are identical with
            // batching on or off.
            if sent > 0 {
                self.st.metrics.record_send(counter, phase, sent);
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
        let outcome = ctx.send_sized(to, ReplicaMsg::Batch(batch.msgs), bytes);
        self.trace_send_outcome(outcome, now, me, to, phases);
    }

    /// Traces what the network did with a transmission carrying logical
    /// messages of these `phases` (one for a plain send, a whole envelope's
    /// for a batch). Lost: a `Drop` per message. Duplicated by a fault plan:
    /// every message will be delivered twice, so a second `Send` per
    /// message keeps delivered <= sent per link; metrics deliberately count
    /// one logical send.
    fn trace_send_outcome(
        &self,
        outcome: SendOutcome,
        at: SimTime,
        from: SiteId,
        to: SiteId,
        phases: impl IntoIterator<Item = Phase>,
    ) {
        let lost = match outcome {
            SendOutcome::Accepted => return,
            SendOutcome::Dropped => true,
            SendOutcome::Duplicated => false,
        };
        for phase in phases {
            self.st.tracer.emit(|| {
                if lost {
                    TraceEvent::Drop {
                        at,
                        from,
                        to,
                        phase,
                    }
                } else {
                    TraceEvent::Send {
                        at,
                        from,
                        to,
                        phase,
                    }
                }
            });
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
        // service (heartbeats) or the protocol (timeout checks, null
        // messages, loss recovery). Otherwise an idle cluster quiesces.
        let need = self.member.is_some() || self.proto.needs_ticks(&self.st);
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
        self.apply_member_events(fx, now, events);
    }

    fn apply_member_events(&mut self, fx: &mut Effects, now: SimTime, events: Vec<MemberEvent>) {
        for ev in events {
            match ev {
                MemberEvent::ViewInstalled(view) => {
                    let me = self.st.me;
                    let roster: Vec<SiteId> = view.members.iter().copied().collect();
                    self.st.tracer.emit(move || TraceEvent::ViewChange {
                        at: now,
                        site: me,
                        members: roster,
                    });
                    self.proto
                        .set_view(Step::new(&mut self.st, fx, now), view.id, view.members);
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
    /// emits its `Deliver` trace event and routes it to the membership
    /// service or the protocol.
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
        match msg {
            ReplicaMsg::Member(wire) => {
                if let Some(m) = &mut self.member {
                    let (events, outbound) = m.on_wire(from, wire, now);
                    for ob in outbound {
                        fx.send(ob.dest, ReplicaMsg::Member(ob.wire));
                    }
                    self.apply_member_events(fx, now, events);
                }
            }
            // The protocol drops what it does not speak: another
            // protocol's traffic, or a nested batch, which the flush path
            // never produces.
            msg => self
                .proto
                .on_msg(Step::new(&mut self.st, fx, now), from, msg),
        }
    }

    fn dispatch_events(&mut self, fx: &mut Effects, now: SimTime, events: EventBuf) {
        if events.is_empty() {
            return;
        }
        self.proto
            .handle_events(Step::new(&mut self.st, fx, now), events);
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
            // alone. The envelope never enters accounting; its vector is reused.
            ReplicaMsg::Batch(mut msgs) => {
                for m in msgs.drain(..) {
                    self.handle_one(&mut fx, now, me, from, m);
                }
                if let Some(b) = &mut self.batcher {
                    b.recycle(msgs);
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
            ReplicaTimer::WriteStep(id) => self
                .proto
                .continue_write(Step::new(&mut self.st, &mut fx, now), id),
            ReplicaTimer::FlushBatch => {
                self.flush_armed = false;
                let mut batches = std::mem::take(&mut self.flushed);
                if let Some(b) = &mut self.batcher {
                    b.flush_into(&mut batches);
                }
                for batch in batches.drain(..) {
                    self.send_wire_batch(batch, ctx);
                }
                self.flushed = batches;
            }
            ReplicaTimer::Tick => {
                self.tick_armed = false;
                self.proto.on_tick(Step::new(&mut self.st, &mut fx, now));
                self.member_tick(&mut fx, now);
            }
        }
        self.flush(fx, ctx);
        self.arm_tick(ctx);
    }

    /// Contributes this replica's gauges, under the canonical `s<site>.`
    /// prefix, and its share of the cluster-wide series to a metrics sample.
    /// Read-only by contract — the sampler must never change protocol behavior.
    fn sample_stats(&self, sample: &mut SampleWriter) {
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
        self.st.metrics.sample_into(sample);
        self.proto.sample_stats(me, sample);
    }
}
