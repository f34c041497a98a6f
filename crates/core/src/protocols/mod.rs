//! The four replication protocols: one commit skeleton, four variations.
//!
//! The paper's thesis is that a single replicated database changes character
//! when the broadcast primitive underneath it is swapped. The code reads the
//! same way: the `Driver` owns the commit skeleton every protocol shares —
//! read phase → write dissemination → commit request → decision →
//! apply/abort, plus the view-change and suspicion sweeps — and each
//! protocol module implements `Variation`, the three things the paper
//! actually varies: **how a write and a commit request are disseminated**,
//! **what counts as an acknowledgement**, and **the local decision rule**
//! (DESIGN.md §19 has the table).
//!
//! Protocols are *sans-IO*: they emit [`Effects`] (destination + message
//! pairs) that the [`ReplicaNode`](crate::engine::ReplicaNode) flushes into
//! the simulated network. The engine sees them only through [`Protocol`].

pub mod atomic;
pub mod causal;
pub mod p2p;
pub mod reliable;

use crate::cluster::ClusterConfig;
use crate::metrics::AbortReason;
use crate::payload::{Payload, ProtocolKind, ReplicaMsg, TxnPriority};
use crate::state::{EventBuf, LocalEvent, LocalPhase, SiteState};
use bcastdb_broadcast::msg::{Dest, Outbound};
use bcastdb_db::lock::LockMode;
use bcastdb_db::TxnId;
use bcastdb_sim::{SampleWriter, SimTime, SiteId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Outbound messages produced while handling one input.
#[derive(Debug, Default)]
pub struct Effects {
    /// `(destination, message)` pairs, in emission order.
    pub sends: Vec<(Dest, ReplicaMsg)>,
    /// Local transactions pausing for read-phase think time; the engine
    /// schedules their next step.
    pub pauses: Vec<TxnId>,
    /// Local transactions pausing between write-operation broadcasts; the
    /// engine schedules their next step.
    pub write_pauses: Vec<TxnId>,
}

impl Effects {
    /// Creates an empty effect set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message to every other site.
    pub fn send_others(&mut self, msg: ReplicaMsg) {
        self.sends.push((Dest::Others, msg));
    }

    /// Queues a unicast.
    pub fn send_to(&mut self, site: SiteId, msg: ReplicaMsg) {
        self.sends.push((Dest::Site(site), msg));
    }

    /// Queues a message according to an explicit destination selector.
    pub fn send(&mut self, dest: Dest, msg: ReplicaMsg) {
        self.sends.push((dest, msg));
    }
}

/// What a protocol hands a recovering replica besides the shared site
/// state: the delivery positions of its broadcast engines.
#[derive(Debug, Clone)]
pub enum ProtoSnapshot {
    /// The baseline has no broadcast layer to fast-forward.
    None,
    /// Per-origin reliable-broadcast delivery watermarks.
    Reliable(std::sync::Arc<[u64]>),
    /// The causal engine's delivered-messages clock and last stamps.
    Causal(bcastdb_broadcast::causal::Snapshot),
    /// Both engines of the atomic protocol plus its version directory.
    Atomic(atomic::AbSnapshot),
}

/// One engine step as a protocol sees it: the site's shared state, where
/// the step's outbound effects go, and the virtual time.
#[derive(Debug)]
pub struct Step<'a> {
    /// The shared site state.
    pub st: &'a mut SiteState,
    /// Outbound messages and pauses of this step.
    pub fx: &'a mut Effects,
    /// Virtual time of this step.
    pub now: SimTime,
}

impl<'a> Step<'a> {
    /// The step at virtual time `now` over `st`, its effects going to `fx`.
    pub fn new(st: &'a mut SiteState, fx: &'a mut Effects, now: SimTime) -> Self {
        Step { st, fx, now }
    }
}

/// A replication protocol as the engine sees it: inputs in, [`Effects`]
/// out. The transaction driver is the one implementation, generic over
/// what the paper varies.
pub trait Protocol: fmt::Debug {
    /// Sets the conflict-handling switches of the shared site state that
    /// this protocol's commitment rule can live with.
    fn configure_state(&self, st: &mut SiteState);

    /// Handles one incoming protocol message (anything but membership
    /// traffic; kinds this protocol does not speak are dropped).
    fn on_msg(&mut self, step: Step<'_>, from: SiteId, msg: ReplicaMsg);

    /// Handles events produced outside the protocol (submission read
    /// phases, lock grants after releases).
    fn handle_events(&mut self, step: Step<'_>, events: EventBuf);

    /// Resumes a paced write phase (next step after think time).
    fn continue_write(&mut self, step: Step<'_>, id: TxnId);

    /// True while the protocol wants periodic ticks.
    fn needs_ticks(&self, st: &SiteState) -> bool;

    /// Periodic tick (timeouts, keep-alives, loss-recovery solicitations).
    fn on_tick(&mut self, step: Step<'_>);

    /// Installs view `view_id`: departed sites no longer count towards a
    /// decision, and transactions they originated abort.
    fn set_view(&mut self, step: Step<'_>, view_id: u64, members: BTreeSet<SiteId>);

    /// The broadcast engines' delivery positions (state transfer).
    fn snapshot(&self) -> ProtoSnapshot;

    /// Resumes a recovered site from a donor's snapshot and view. Assumes
    /// a quiet moment: in-flight bookkeeping is dropped (the transferred
    /// store and decision map carry the outcomes).
    fn resume(&mut self, donor: &ProtoSnapshot, view: BTreeSet<SiteId>);

    /// Contributes the protocol's gauges to a metrics sample. Read-only by
    /// contract — the sampler must never change protocol behavior.
    fn sample_stats(&self, me: SiteId, sample: &mut SampleWriter);
}

/// Builds the protocol `cfg` selects for site `me`.
pub fn build(me: SiteId, cfg: &ClusterConfig) -> Box<dyn Protocol> {
    match cfg.protocol {
        ProtocolKind::PointToPoint => Box::new(Driver::<p2p::P2pProto>::new(me, cfg)),
        ProtocolKind::ReliableBcast => Box::new(Driver::<reliable::ReliableProto>::new(me, cfg)),
        ProtocolKind::CausalBcast => Box::new(Driver::<causal::CausalProto>::new(me, cfg)),
        ProtocolKind::AtomicBcast => Box::new(Driver::<atomic::AtomicProto>::new(me, cfg)),
    }
}

/// One unit of pending protocol work.
#[derive(Debug)]
pub(crate) enum Work<D> {
    /// A state transition surfaced by the shared site state.
    Event(LocalEvent),
    /// Something the protocol's dissemination layer handed up: a broadcast
    /// delivery, a point-to-point message, a step it deferred behind them.
    Deliver(D),
}

/// Whose word a decision needs: the installed view's members.
#[derive(Debug)]
pub(crate) struct Quorum {
    /// The installed view's members.
    pub view: BTreeSet<SiteId>,
}

/// What [`Quorum::verdict`] makes of a transaction's acknowledgements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Acknowledgements are still missing.
    Wait,
    /// Somebody rejected the transaction.
    Abort,
    /// The whole view acknowledged positively.
    Commit,
}

impl Quorum {
    /// The quorum of an `n`-site system before any view change.
    pub fn full(n: usize) -> Self {
        Quorum {
            view: (0..n).map(SiteId).collect(),
        }
    }

    /// THE decision rule over acknowledgements, shared by every protocol
    /// that collects them (explicit votes or implicit acks alike).
    ///
    /// `yes(s)` says whether member `s` acknowledged positively. A
    /// rejection always wins; otherwise the full view's positive
    /// acknowledgements commit, and anything less waits. A member that
    /// falls silent is waited out until the view change evicts it.
    pub fn verdict(&self, any_no: bool, yes: impl Fn(SiteId) -> bool) -> Verdict {
        if any_no {
            Verdict::Abort
        } else if self.view.iter().all(|&s| yes(s)) {
            Verdict::Commit
        } else {
            Verdict::Wait
        }
    }
}

/// Where a local transaction holding a read lock on a key some
/// commit-requesting writer writes currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reader {
    /// A read-only transaction.
    ReadOnly,
    /// An update transaction still acquiring its reads.
    Reading,
    /// An update transaction that already disseminates its own writes.
    Writing,
}

/// What the reader gate does about one conflicting local reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// The reader prevails: the writer must be rejected at this site.
    Veto,
    /// The reader is aborted (purely local, always safe).
    Wound,
    /// Leave both: other rules settle the conflict.
    Ignore,
}

/// Everything one driver step works on, handed to every [`Variation`]
/// method.
#[derive(Debug)]
pub(crate) struct Cx<'a, D> {
    /// The shared site state.
    pub st: &'a mut SiteState,
    /// Outbound messages and pauses of this step.
    pub fx: &'a mut Effects,
    /// Virtual time of this step.
    pub now: SimTime,
    /// The work queue being pumped.
    pub work: &'a mut VecDeque<Work<D>>,
    /// Whose acknowledgements a decision needs right now.
    pub quorum: &'a Quorum,
    /// Paced write phases: next operation index per local transaction
    /// (only used when the cluster configures per-operation think time).
    writing: &'a mut BTreeMap<TxnId, usize>,
}

impl<D> Cx<'_, D> {
    /// Runs one site-state transition and queues the events it surfaces.
    pub fn transition(&mut self, f: impl FnOnce(&mut SiteState, SimTime, &mut EventBuf)) {
        let mut events = EventBuf::new();
        f(self.st, self.now, &mut events);
        self.work.extend(events.into_iter().map(Work::Event));
    }

    /// Applies the commit of `txn` at this site.
    pub fn apply_commit(&mut self, txn: TxnId) {
        self.transition(|st, now, events| st.apply_commit(txn, now, events));
    }

    /// Applies the abort of `txn` at this site.
    pub fn abort_remote(&mut self, txn: TxnId, reason: AbortReason) {
        self.transition(|st, now, events| st.apply_remote_abort(txn, reason, now, events));
    }

    /// Hands one broadcast-engine step on: wire traffic to the network,
    /// deliveries (the local self-delivery included) into the work queue.
    pub fn route<W: Into<ReplicaMsg>>(
        &mut self,
        outbound: impl IntoIterator<Item = Outbound<W>>,
        deliveries: impl IntoIterator<Item = D>,
    ) {
        for ob in outbound {
            self.fx.send(ob.dest, ob.wire.into());
        }
        self.work.extend(deliveries.into_iter().map(Work::Deliver));
    }

    /// THE GATE: settles conflicts between a writer whose commit request
    /// is being processed and *local readers* of the keys it writes, before
    /// this site's acknowledgement of the writer can be held hostage by
    /// them — a reader that, across sites, waits back on this writer closes
    /// a distributed cycle no local waits-for graph can see. `policy` says
    /// what becomes of each kind of reader; returns true iff one of them
    /// vetoes the writer (how a veto is published is the caller's).
    pub fn gate_local_readers(&mut self, txn: TxnId, policy: impl Fn(Reader) -> Gate) -> bool {
        let mut veto = false;
        let mut wound: Vec<TxnId> = Vec::new();
        let ops = self.st.remote.get(&txn).map_or(&[][..], |e| &e.ops);
        for op in ops {
            for &(holder, mode) in self.st.locks.holders(&op.key) {
                if holder == txn || mode != LockMode::Shared {
                    continue;
                }
                let Some(local) = self.st.local.get(&holder) else {
                    continue; // not a local transaction (or already gone)
                };
                let reader = if local.spec.is_read_only() {
                    Reader::ReadOnly
                } else if matches!(local.phase, LocalPhase::AcquiringReads { .. }) {
                    Reader::Reading
                } else {
                    Reader::Writing
                };
                match policy(reader) {
                    Gate::Veto => veto = true,
                    Gate::Wound => wound.push(holder),
                    Gate::Ignore => {}
                }
            }
        }
        for reader in wound {
            self.transition(|st, now, ev| st.abort_local(reader, AbortReason::Wounded, now, ev));
        }
        veto
    }
}

/// What the paper varies between its protocols; everything else is
/// [`Driver`]. Methods without a default are the variation points proper.
pub(crate) trait Variation: fmt::Debug + Sized {
    /// What this protocol's dissemination layer hands up to
    /// [`Variation::on_deliver`].
    type Delivery: fmt::Debug;

    /// The protocol instance for site `me` of the cluster `cfg` describes.
    fn new(me: SiteId, cfg: &ClusterConfig) -> Self;

    /// See [`Protocol::configure_state`].
    fn configure_state(st: &mut SiteState);

    // -- Dissemination ---------------------------------------------------

    /// Feeds wire traffic to the dissemination layer, routing what it
    /// delivers into the work queue.
    fn on_wire(&mut self, cx: &mut Cx<'_, Self::Delivery>, from: SiteId, msg: ReplicaMsg);

    /// Origin side, reads done: disseminates `id`'s write set, then its
    /// commit request. Paced by the configured think time unless the
    /// protocol has a pace of its own.
    fn write_phase(&mut self, cx: &mut Cx<'_, Self::Delivery>, id: TxnId) {
        paced_write_phase(self, cx, id);
    }

    /// Sends one write operation (`write` is a [`Payload::Write`]) to every
    /// site.
    fn disseminate_write(&mut self, cx: &mut Cx<'_, Self::Delivery>, write: Payload);

    /// The write set is out: sends (or schedules) `txn`'s commit request.
    fn request_commit(
        &mut self,
        cx: &mut Cx<'_, Self::Delivery>,
        txn: TxnId,
        prio: TxnPriority,
        n_writes: usize,
    );

    // -- Acknowledgement and decision --------------------------------------

    /// Handles one delivery: records what it acknowledges and decides what
    /// that settles.
    fn on_deliver(&mut self, cx: &mut Cx<'_, Self::Delivery>, d: Self::Delivery);

    /// Reacts to a lock-table event about a broadcast transaction
    /// (prepared, doomed, one key granted).
    fn on_event(&mut self, _cx: &mut Cx<'_, Self::Delivery>, _ev: LocalEvent) {}

    /// Re-evaluates undecided `txn` after the quorum changed. Protocols
    /// that collect no acknowledgements have nothing to re-evaluate.
    fn try_decide(&mut self, _cx: &mut Cx<'_, Self::Delivery>, _txn: TxnId) {}

    // -- Time, membership, recovery ----------------------------------------

    /// See [`Protocol::needs_ticks`].
    fn needs_ticks(&self, _st: &SiteState) -> bool {
        false
    }

    /// See [`Protocol::on_tick`].
    fn on_tick(&mut self, _cx: &mut Cx<'_, Self::Delivery>) {}

    /// Reacts to view `view_id` (already in `cx.quorum`) being installed.
    fn set_view(&mut self, cx: &mut Cx<'_, Self::Delivery>, _view_id: u64) {
        sweep_view(self, cx);
    }

    /// The view-change sweep just aborted a transaction of a departed
    /// origin; what that released is queued behind the rest of the sweep
    /// unless the protocol settles it first.
    fn orphan_aborted(&mut self, _cx: &mut Cx<'_, Self::Delivery>) {}

    /// See [`Protocol::snapshot`].
    fn snapshot(&self) -> ProtoSnapshot;

    /// Fast-forwards the dissemination layer to `donor`'s positions and
    /// drops in-flight bookkeeping; `view` is the view being resumed into.
    fn resume(&mut self, donor: &ProtoSnapshot, view: &BTreeSet<SiteId>);

    /// See [`Protocol::sample_stats`].
    fn sample_stats(&self, _me: SiteId, _sample: &mut SampleWriter) {}
}

/// Processes queued work to a fixed point: nothing a step causes is handled
/// recursively — it is queued — so the order of effects is the queue's.
pub(crate) fn drain<V: Variation>(v: &mut V, cx: &mut Cx<'_, V::Delivery>) {
    while let Some(item) = cx.work.pop_front() {
        match item {
            Work::Event(LocalEvent::ReadsComplete(id)) => start_write_phase(v, cx, id),
            Work::Event(LocalEvent::ReadPaused(id)) => cx.fx.pauses.push(id),
            Work::Event(ev) => v.on_event(cx, ev),
            Work::Deliver(d) => v.on_deliver(cx, d),
        }
    }
}

/// The view-change sweep: transactions originated by departed sites abort;
/// the others are re-evaluated against the shrunken view.
pub(crate) fn sweep_view<V: Variation>(v: &mut V, cx: &mut Cx<'_, V::Delivery>) {
    let undecided: Vec<TxnId> = cx.st.remote.keys().collect();
    for txn in undecided {
        if cx.quorum.view.contains(&txn.origin) {
            v.try_decide(cx, txn);
        } else {
            cx.abort_remote(txn, AbortReason::ViewChange);
            v.orphan_aborted(cx);
        }
    }
}

/// Origin side: reads done → the write set goes out, then the commit
/// request.
fn start_write_phase<V: Variation>(v: &mut V, cx: &mut Cx<'_, V::Delivery>, id: TxnId) {
    if cx.st.local.contains_key(&id) {
        v.write_phase(cx, id);
    } // else: wounded in the meantime
}

/// The think-time-paced write phase: everything at once when no think time
/// is configured, otherwise one operation per step.
pub(crate) fn paced_write_phase<V: Variation>(v: &mut V, cx: &mut Cx<'_, V::Delivery>, id: TxnId) {
    if cx.st.think.is_zero() {
        emit_write_step(v, cx, id, usize::MAX);
    } else {
        cx.writing.insert(id, 0);
        paced_write_step(v, cx, id);
    }
}

/// One paced step; schedules the next unless that was the last.
fn paced_write_step<V: Variation>(v: &mut V, cx: &mut Cx<'_, V::Delivery>, id: TxnId) {
    emit_write_step(v, cx, id, 1);
    if cx.writing.contains_key(&id) {
        cx.fx.write_pauses.push(id);
    }
}

/// Disseminates up to `budget` write operations of `id` (`usize::MAX` =
/// all of them in one go), then the commit request once the write set is
/// out.
fn emit_write_step<V: Variation>(
    v: &mut V,
    cx: &mut Cx<'_, V::Delivery>,
    id: TxnId,
    budget: usize,
) {
    let Some(local) = cx.st.local.get(&id) else {
        cx.writing.remove(&id);
        return;
    };
    let (prio, n_writes) = (local.prio, local.spec.writes().len());
    let start = cx.writing.get(&id).copied().unwrap_or(0);
    let end = start.saturating_add(budget).min(n_writes);
    for index in start..end {
        // Dissemination only queues (self-deliveries run from the pump),
        // so the transaction is still there for the next operation.
        let write = Payload::Write {
            txn: id,
            prio,
            op: cx.st.local[&id].spec.writes()[index].clone(),
            index,
            of: n_writes,
        };
        v.disseminate_write(cx, write);
    }
    if end >= n_writes {
        cx.writing.remove(&id);
        v.request_commit(cx, id, prio, n_writes);
    } else {
        cx.writing.insert(id, end);
    }
}

/// The transaction driver: the commit skeleton shared by all four
/// protocols, around the [`Variation`] that tells them apart.
#[derive(Debug)]
pub(crate) struct Driver<V: Variation> {
    /// What this protocol does differently.
    pub(crate) rules: V,
    quorum: Quorum,
    writing: BTreeMap<TxnId, usize>,
    /// Reusable work queue: taken at each entry point and handed back
    /// (empty) by `pump`, so steady-state message handling never allocates
    /// a fresh queue.
    idle_work: VecDeque<Work<V::Delivery>>,
}

impl<V: Variation> Driver<V> {
    /// The driver for site `me` of the cluster `cfg` describes.
    pub(crate) fn new(me: SiteId, cfg: &ClusterConfig) -> Self {
        Driver {
            rules: V::new(me, cfg),
            quorum: Quorum::full(cfg.sites),
            writing: BTreeMap::new(),
            idle_work: VecDeque::new(),
        }
    }

    /// Runs `seed` (one entry point's own work), then drains the work
    /// queue to a fixed point.
    pub(crate) fn pump(
        &mut self,
        step: Step<'_>,
        seed: impl FnOnce(&mut V, &mut Cx<'_, V::Delivery>),
    ) {
        let mut work = std::mem::take(&mut self.idle_work);
        let mut cx = Cx {
            st: step.st,
            fx: step.fx,
            now: step.now,
            work: &mut work,
            quorum: &self.quorum,
            writing: &mut self.writing,
        };
        seed(&mut self.rules, &mut cx);
        drain(&mut self.rules, &mut cx);
        // The queue is empty again: hand it back for the next entry point.
        self.idle_work = work;
    }
}

impl<V: Variation> Protocol for Driver<V> {
    fn configure_state(&self, st: &mut SiteState) {
        V::configure_state(st);
    }

    fn on_msg(&mut self, step: Step<'_>, from: SiteId, msg: ReplicaMsg) {
        self.pump(step, |v, cx| v.on_wire(cx, from, msg));
    }

    fn handle_events(&mut self, step: Step<'_>, events: EventBuf) {
        self.pump(step, |_, cx| {
            cx.work.extend(events.into_iter().map(Work::Event))
        });
    }

    fn continue_write(&mut self, step: Step<'_>, id: TxnId) {
        self.pump(step, |v, cx| {
            if cx.st.decided.contains_key(&id) || !cx.st.local.contains_key(&id) {
                cx.writing.remove(&id);
            } else {
                paced_write_step(v, cx, id);
            }
        });
    }

    fn needs_ticks(&self, st: &SiteState) -> bool {
        self.rules.needs_ticks(st)
    }

    fn on_tick(&mut self, step: Step<'_>) {
        self.pump(step, |v, cx| v.on_tick(cx));
    }

    fn set_view(&mut self, step: Step<'_>, view_id: u64, members: BTreeSet<SiteId>) {
        self.quorum.view = members;
        self.pump(step, |v, cx| v.set_view(cx, view_id));
    }

    fn snapshot(&self) -> ProtoSnapshot {
        self.rules.snapshot()
    }

    fn resume(&mut self, donor: &ProtoSnapshot, view: BTreeSet<SiteId>) {
        self.rules.resume(donor, &view);
        self.quorum.view = view;
    }

    fn sample_stats(&self, me: SiteId, sample: &mut SampleWriter) {
        self.rules.sample_stats(me, sample);
    }
}

/// Bounded exponential backoff over the engine's tick cadence, used by the
/// loss-recovery retransmit solicitations (reliable `RSync` watermarks and
/// causal gap-reporting nulls).
///
/// With a fixed tick interval every undecided transaction costs one
/// solicitation broadcast per tick cluster-wide, even when nothing was lost.
/// Backoff keeps the first solicitation immediate and then doubles the gap
/// between repeats — 1, 2, 4, … [`RetransmitBackoff::MAX_EXP`] ticks — while
/// any sign of progress (the protocol's delivery frontier moving) snaps the
/// cadence back to every tick. A deterministic per-site jitter derived from
/// `(site, attempt)` desynchronizes the herd without consuming simulator
/// randomness, preserving the replayability contract.
///
/// Disabled (the cluster default) it fires on every tick, byte-identical to the
/// fixed-interval behavior that predates it.
#[derive(Debug)]
pub struct RetransmitBackoff {
    enabled: bool,
    site: usize,
    /// Consecutive solicitations without observed progress (capped).
    attempt: u32,
    /// Ticks still to skip before the next solicitation may fire.
    skip: u32,
}

impl RetransmitBackoff {
    /// Cap on the exponent: the base gap never exceeds `2^MAX_EXP` ticks
    /// (jitter can at most double it, keeping the cadence bounded).
    pub const MAX_EXP: u32 = 4;

    /// Creates the backoff for `site`: the exponential cadence when
    /// `enabled`, fire-every-tick otherwise.
    pub fn new(site: SiteId, enabled: bool) -> Self {
        RetransmitBackoff {
            enabled,
            site: site.0,
            attempt: 0,
            skip: 0,
        }
    }

    /// Records protocol progress: the next solicitation fires on the very
    /// next tick again.
    pub fn reset(&mut self) {
        self.attempt = 0;
        self.skip = 0;
    }

    /// Called once per engine tick; returns whether the solicitation
    /// should fire on this tick.
    pub fn due(&mut self) -> bool {
        if !self.enabled {
            return true;
        }
        if self.skip > 0 {
            self.skip -= 1;
            return false;
        }
        let exp = self.attempt.min(Self::MAX_EXP);
        let gap = 1u32 << exp;
        // Deterministic jitter in `0..gap`: a hash of (site, attempt), so
        // sites that backed off together do not re-solicit in lockstep.
        let jitter = if gap > 1 {
            let h = (self.site as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(self.attempt.wrapping_mul(40503));
            h % gap
        } else {
            0
        };
        self.skip = gap - 1 + jitter;
        self.attempt = self.attempt.saturating_add(1);
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::payload::{P2pMsg, Payload};
    use bcastdb_broadcast::msg::dest_iter;
    use bcastdb_db::{TxnSpec, WriteOp};
    use bcastdb_sim::telemetry::Phase;
    use bcastdb_sim::SimDuration;
    use std::sync::Arc;

    /// A transport-free harness: n sites' protocol + state, wires shuttled
    /// through an in-memory FIFO queue.
    pub(crate) struct Rig<P: Protocol + ?Sized> {
        pub protos: Vec<Box<P>>,
        pub states: Vec<SiteState>,
        pub wires: VecDeque<(SiteId, SiteId, ReplicaMsg)>,
        /// Every message handed to the network so far, before fan-out.
        pub sent: Vec<ReplicaMsg>,
        /// Paced write phases waiting for their next step.
        pub write_pauses: Vec<TxnId>,
    }

    /// An `n`-site cluster configuration running `protocol`.
    pub(crate) fn cfg(n: usize, protocol: ProtocolKind) -> ClusterConfig {
        ClusterConfig {
            sites: n,
            protocol,
            ..ClusterConfig::default()
        }
    }

    impl<V: Variation> Rig<Driver<V>> {
        /// A rig of one variation's drivers, the rules open to the test.
        pub fn of(cfg: &ClusterConfig) -> Self {
            Rig::new(cfg, |me| Box::new(Driver::new(me, cfg)))
        }
    }

    impl<P: Protocol + ?Sized> Rig<P> {
        pub fn new(cfg: &ClusterConfig, make: impl Fn(SiteId) -> Box<P>) -> Self {
            let protos: Vec<Box<P>> = (0..cfg.sites).map(|i| make(SiteId(i))).collect();
            let states = protos
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut st = SiteState::new(SiteId(i), cfg.sites, cfg.policy);
                    p.configure_state(&mut st);
                    st.think = cfg.think_time;
                    st
                })
                .collect();
            Rig {
                protos,
                states,
                wires: VecDeque::new(),
                sent: Vec::new(),
                write_pauses: Vec::new(),
            }
        }

        /// Runs one protocol step at `site` and hands its effects to the
        /// in-memory network.
        pub fn step(&mut self, site: usize, now_us: u64, f: impl FnOnce(&mut P, Step<'_>)) {
            let mut fx = Effects::new();
            let step = Step {
                st: &mut self.states[site],
                fx: &mut fx,
                now: SimTime::from_micros(now_us),
            };
            f(&mut self.protos[site], step);
            let (me, n) = (SiteId(site), self.protos.len());
            for (dest, msg) in fx.sends {
                for to in dest_iter(dest, me, n) {
                    if to != me {
                        self.wires.push_back((me, to, msg.clone()));
                    }
                }
                self.sent.push(msg);
            }
            self.write_pauses.extend(fx.write_pauses);
        }

        pub fn submit(&mut self, site: usize, ts: u64, spec: TxnSpec) -> TxnId {
            let (id, events) = self.states[site].begin_txn(SimTime::from_micros(ts), spec);
            self.step(site, 0, |p, step| p.handle_events(step, events));
            id
        }

        pub fn tick_all(&mut self) {
            for site in 0..self.protos.len() {
                self.step(site, 50, |p, step| p.on_tick(step));
            }
        }

        /// Alternates wire delivery with ticks until both drain: implicit
        /// acks need at least one message from every site.
        pub fn settle(&mut self) {
            for _ in 0..64 {
                while let Some((from, to, msg)) = self.wires.pop_front() {
                    self.step(to.0, 2, |p, step| p.on_msg(step, from, msg));
                }
                if !self.states.iter().any(|st| st.has_undecided()) {
                    break;
                }
                self.tick_all();
            }
        }

        /// Messages of the vote phase handed to the network so far.
        pub fn vote_msgs(&self) -> usize {
            let votes = self.sent.iter().filter(|m| m.phase() == Phase::Vote);
            votes.count()
        }
    }

    /// Every kind of protocol payload about `txn`, as a late duplicate would
    /// carry it: handed to a site that has already decided `txn`, to check
    /// that nothing brings it back.
    fn stale_payloads(txn: TxnId) -> Vec<Payload> {
        let prio = TxnPriority {
            ts: 1,
            origin: txn.origin,
            num: txn.num,
        };
        let site = SiteId(1);
        vec![
            Payload::Write {
                txn,
                prio,
                op: WriteOp {
                    key: "x".into(),
                    value: 1,
                },
                index: 0,
                of: 1,
            },
            Payload::CommitReq {
                txn,
                prio,
                n_writes: 1,
                versions: Vec::new(),
            },
            Payload::Vote {
                txn,
                site,
                yes: true,
            },
            Payload::Vote {
                txn,
                site,
                yes: false,
            },
            Payload::Nack { txn, site },
            Payload::AbortDecision { txn },
        ]
    }

    /// One row of the redelivery table: commits a transaction under
    /// `protocol`, then hands every site late duplicates of everything ever
    /// said about it — `redeliver` wraps a stale payload as this protocol's
    /// dissemination layer would deliver it, `idle` checks what the rules
    /// keep beside the shared state.
    fn redelivery_resurrects_nothing<V: Variation>(
        protocol: ProtocolKind,
        redeliver: impl Fn(&Driver<V>, Payload) -> Vec<V::Delivery>,
        idle: impl Fn(&V) -> bool,
    ) {
        let mut rig = Rig::<Driver<V>>::of(&cfg(3, protocol));
        let id = rig.submit(1, 1, TxnSpec::new().write("x", 4));
        rig.settle();
        let now = SimTime::from_micros(9);
        for (i, (p, st)) in rig.protos.iter_mut().zip(&mut rig.states).enumerate() {
            assert_eq!(st.decided.get(&id), Some(true), "{protocol} site {i}");
            let installed = st.store.applied_writes();
            for payload in stale_payloads(id) {
                for d in redeliver(p, payload.clone()) {
                    let mut fx = Effects::new();
                    let fx = &mut fx;
                    p.pump(Step { st, fx, now }, |_, cx| {
                        cx.work.push_back(Work::Deliver(d))
                    });
                    assert!(
                        fx.sends.is_empty(),
                        "{protocol} site {i} answered {payload:?}"
                    );
                }
            }
            assert!(
                st.remote.is_empty() && !st.has_undecided(),
                "{protocol} site {i}"
            );
            assert!(idle(&p.rules), "{protocol} site {i} kept protocol state");
            assert_eq!(
                st.store.applied_writes(),
                installed,
                "{protocol} site {i} terminated {id} again"
            );
            assert_eq!(st.decided.get(&id), Some(true), "{protocol} site {i}");
        }
    }

    #[test]
    fn redelivery_after_the_decision_resurrects_nothing() {
        redelivery_resurrects_nothing(
            ProtocolKind::PointToPoint,
            p2p::tests::redeliver,
            p2p::tests::idle,
        );
        redelivery_resurrects_nothing::<reliable::ReliableProto>(
            ProtocolKind::ReliableBcast,
            |_, payload| vec![Arc::new(payload)],
            |_| true,
        );
        redelivery_resurrects_nothing(ProtocolKind::CausalBcast, causal::tests::redeliver, |_| {
            true
        });
        redelivery_resurrects_nothing(
            ProtocolKind::AtomicBcast,
            atomic::tests::redeliver,
            atomic::tests::idle,
        );
    }

    #[test]
    fn a_no_aborts_the_full_view_commits_and_anything_less_waits() {
        let on = |q: &Quorum, no: bool, yes: &[usize]| q.verdict(no, |s| yes.contains(&s.0));
        let q = Quorum::full(5);
        let everyone = &[0, 1, 2, 3, 4];
        assert_eq!(on(&q, false, everyone), Verdict::Commit);
        assert_eq!(on(&q, true, everyone), Verdict::Abort);
        assert_eq!(on(&q, true, &[]), Verdict::Abort);
        for yes in [&[][..], &[0], &[0, 1, 2], &[0, 1, 2, 3]] {
            assert_eq!(on(&q, false, yes), Verdict::Wait, "{yes:?}");
        }
        // Once a view change evicts the silent members, the survivors'
        // acknowledgements are the full view's.
        let q = Quorum {
            view: [0, 1, 2].map(SiteId).into(),
        };
        assert_eq!(on(&q, false, &[0, 1, 2]), Verdict::Commit);
        assert_eq!(on(&q, false, &[0, 1]), Verdict::Wait);
    }

    /// A transaction wounded between two `WriteStep`s: the paced write
    /// phase forgets it and its commit request never reaches the wire.
    fn wound_between_write_steps<V: Variation>(protocol: ProtocolKind) {
        let paced = ClusterConfig {
            think_time: SimDuration::from_millis(1),
            ..cfg(3, protocol)
        };
        let mut rig = Rig::<Driver<V>>::of(&paced);
        let id = rig.submit(0, 1, TxnSpec::new().write("a", 1).write("b", 2));
        assert_eq!(rig.write_pauses, [id], "{protocol}: one op out, one to go");
        assert_eq!(rig.protos[0].writing.get(&id), Some(&1), "{protocol}");
        let at = SimTime::from_micros(500);
        let mut events = EventBuf::new();
        rig.states[0].abort_local(id, AbortReason::Wounded, at, &mut events);
        rig.step(0, 500, |p, step| p.handle_events(step, events));
        // Think time elapses: the engine resumes the write phase.
        rig.step(0, 1_000, |p, step| p.continue_write(step, id));
        assert!(rig.protos[0].writing.is_empty(), "{protocol}");
        assert_eq!(rig.write_pauses, [id], "{protocol}: no further step");
        rig.settle();
        // Only commit requests travel by atomic broadcast.
        let is_commit_req = |m: &&ReplicaMsg| match m {
            ReplicaMsg::R(w) => matches!(*w.payload, Payload::CommitReq { .. }),
            ReplicaMsg::C(w) => matches!(*w.payload, Payload::CommitReq { .. }),
            m => matches!(m, ReplicaMsg::ASeq(_) | ReplicaMsg::ARing(_)),
        };
        assert_eq!(
            rig.sent.iter().filter(is_commit_req).count(),
            0,
            "{protocol}: commit request sent"
        );
    }

    #[test]
    fn wound_between_write_steps_reliable() {
        wound_between_write_steps::<reliable::ReliableProto>(ProtocolKind::ReliableBcast);
    }

    #[test]
    fn wound_between_write_steps_causal() {
        wound_between_write_steps::<causal::CausalProto>(ProtocolKind::CausalBcast);
    }

    #[test]
    fn wound_between_write_steps_atomic() {
        wound_between_write_steps::<atomic::AtomicProto>(ProtocolKind::AtomicBcast);
    }

    #[test]
    fn backoff_disabled_fires_every_tick() {
        let mut b = RetransmitBackoff::new(SiteId(3), false);
        assert!((0..32).all(|_| b.due()));
    }

    #[test]
    fn backoff_gaps_grow_exponentially_and_stay_bounded() {
        let mut b = RetransmitBackoff::new(SiteId(0), true);
        // Collect the tick indices that fire over a long stall.
        let fire_ticks: Vec<usize> = (0..200usize).filter(|_| b.due()).collect();
        assert_eq!(fire_ticks[0], 0, "first solicitation is immediate");
        let gaps: Vec<usize> = fire_ticks.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|w| w[1] >= w[0] || w[0] >= 16),
            "gaps never shrink before the cap: {gaps:?}"
        );
        let max_gap = 2 * (1usize << RetransmitBackoff::MAX_EXP);
        assert!(
            gaps.iter().all(|&g| g <= max_gap),
            "gap bounded by 2*2^MAX_EXP (jitter included): {gaps:?}"
        );
        assert!(
            gaps.iter().any(|&g| g > 1),
            "the cadence actually backs off: {gaps:?}"
        );
    }

    #[test]
    fn backoff_reset_snaps_back_to_next_tick() {
        let mut b = RetransmitBackoff::new(SiteId(1), true);
        assert!(b.due());
        // Walk into a long gap, then signal progress mid-gap.
        for _ in 0..3 {
            while !b.due() {}
        }
        assert!(!b.due(), "deep in a gap now");
        b.reset();
        assert!(b.due(), "progress makes the next tick fire again");
    }

    #[test]
    fn backoff_jitter_desynchronizes_sites() {
        // Two sites that stall in lockstep must not fire in lockstep
        // forever: at some attempt their jitter separates them.
        let fire = |site: usize| {
            let mut b = RetransmitBackoff::new(SiteId(site), true);
            (0..400).filter(|_| b.due()).count()
        };
        let schedules: Vec<usize> = (0..4).map(fire).collect();
        assert!(
            schedules.windows(2).any(|w| w[0] != w[1]),
            "per-site jitter must differentiate schedules: {schedules:?}"
        );
    }

    #[test]
    fn effects_preserve_emission_order() {
        let mut fx = Effects::new();
        let t = TxnId::new(SiteId(0), 1);
        fx.send_others(ReplicaMsg::P2p(P2pMsg::Abort { txn: t }));
        fx.send_to(SiteId(2), ReplicaMsg::P2p(P2pMsg::Abort { txn: t }));
        assert_eq!(fx.sends.len(), 2);
        assert_eq!(fx.sends[0].0, Dest::Others);
        assert_eq!(fx.sends[1].0, Dest::Site(SiteId(2)));
    }
}
