//! Pipelined ring atomic broadcast — the third A1 backend (DESIGN.md §16).
//!
//! The sequencer's NIC carries `N-1` copies of every payload and ISIS
//! concentrates proposals on the origin, so both go leader-bound as `N`
//! grows. Here, in the style of Ring Paxos \[MPSP10\], every site forwards
//! each payload to its ring successor exactly once (`Data`, stopping at
//! the origin's predecessor), so every link carries ~1x the payload bytes.
//! The coordinator assigns the gseq when a payload reaches it and the
//! small `(gseq, id)` record circulates hop by hop (`Commit`); the
//! origin's predecessor acks cumulatively (`Ack`), releasing the origin's
//! in-flight window, and the origin piggybacks that floor on its next
//! `Data` so every site can prune what is delivered and stable. Ordering
//! and the view-change repair round are the [`order`](crate::order) core;
//! on a view change every site also re-offers its retained payloads to its
//! new successor. A broadcast costs `2N - 1` messages, and no site sends
//! more than a constant number of payload copies.

use crate::atomic::{AtomicBcast, Output};
use crate::msg::{Dest, MsgId, Outbound, SeqWindow};
pub use crate::order::SKIP_ID;
use crate::order::{Fresh, Order, OrderWire, Report, Snapshot};
use bcastdb_sim::SiteId;
use std::collections::VecDeque;

/// Default bound on a site's in-flight (launched but un-acked) broadcasts.
pub const DEFAULT_WINDOW: u64 = 8;

/// Wire messages of [`RingAbcast`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingWire<P> {
    /// Payload dissemination hop: site → ring successor.
    Data {
        /// Identity assigned by the origin.
        id: MsgId,
        /// Application payload.
        payload: P,
        /// Origin's cumulative ring-acked sequence number, piggybacked so
        /// receivers can prune delivered payloads of this origin.
        stable: u64,
    },
    /// Ordering record, circulated hop-by-hop from the coordinator.
    Commit {
        /// View epoch the assignment was made in (stale commits from a
        /// replaced coordinator are dropped).
        epoch: u64,
        /// Global sequence number.
        gseq: u64,
        /// Identity of the ordered message, or [`SKIP_ID`] for a filled
        /// hole.
        id: MsgId,
    },
    /// Cumulative ack: ring tail → origin, releasing the pipeline window.
    Ack {
        /// Highest contiguous per-origin sequence number received.
        upto: u64,
    },
    /// View-change report: member → coordinator.
    Repair(Report),
}

impl<P: crate::batch::WireSize> crate::batch::WireSize for RingWire<P> {
    fn wire_size(&self) -> usize {
        match self {
            RingWire::Data { id, payload, .. } => id.wire_size() + payload.wire_size() + 8,
            RingWire::Commit { id, .. } => 8 + 8 + id.wire_size(),
            RingWire::Ack { .. } => 8,
            RingWire::Repair(r) => 8 + 8 + 8 + r.entries.len() * 24,
        }
    }
}

/// Pipelined ring atomic broadcast engine for one site; views and state
/// transfer come in through [`set_view`](Self::set_view) and
/// [`resume_from`](Self::resume_from).
#[derive(Debug)]
pub struct RingAbcast<P> {
    me: SiteId,
    /// Max launched-but-unacked own broadcasts.
    window: u64,
    /// Last own sequence number launched, and ring-acked.
    sent_seq: u64,
    acked_seq: u64,
    /// Own broadcasts waiting for window space.
    pending_local: VecDeque<(MsgId, P)>,
    /// Per-origin receipt trackers (drive tail acks); `None` until a
    /// payload or a floor of that origin arrives.
    received: Vec<Option<SeqWindow<()>>>,
    /// Per-origin stability floors learned from `Data` piggybacks.
    stable: Vec<u64>,
    /// Total payloads forwarded onward (the `ring.forwarded` counter).
    forwarded_total: u64,
    /// The order; its held payloads are the retained ones (undelivered,
    /// or delivered but not yet stable).
    core: Order<P>,
}

impl<P> OrderWire<P> for RingWire<P> {
    fn order(epoch: u64, gseq: u64, id: MsgId, _: Option<&P>) -> Self {
        RingWire::Commit { epoch, gseq, id }
    }
}

/// `me`'s successor on `ring` (itself when solo or not a member).
fn successor_in(ring: &[SiteId], me: SiteId) -> SiteId {
    match ring.iter().position(|&s| s == me) {
        Some(i) => ring[(i + 1) % ring.len()],
        None => me,
    }
}

impl<P: Clone> RingAbcast<P> {
    /// Creates an engine for site `me` of an `n`-site ring; sites are
    /// arranged in ascending id order and site 0 starts as coordinator.
    ///
    /// # Panics
    /// Panics if `me` is not a valid site of an `n`-site system.
    pub fn new(me: SiteId, n: usize) -> Self {
        RingAbcast {
            me,
            window: DEFAULT_WINDOW,
            sent_seq: 0,
            acked_seq: 0,
            pending_local: VecDeque::new(),
            received: vec![None; n],
            stable: vec![0; n],
            forwarded_total: 0,
            core: Order::new(me, n),
        }
    }

    fn successor(&self) -> SiteId {
        successor_in(&self.core.members, self.me)
    }

    /// A fresh commit starts circulating at the successor.
    fn fresh(&self) -> Fresh {
        let succ = self.successor();
        (succ != self.me).then_some(Dest::Site(succ))
    }

    /// Own broadcasts not yet ring-acked (the `ring.inflight` gauge);
    /// includes broadcasts queued behind the window.
    pub fn inflight(&self) -> u64 {
        self.core.next_seq - self.acked_seq
    }

    /// Total payloads this site forwarded onward (the `ring.forwarded`
    /// counter).
    pub fn forwarded_count(&self) -> u64 {
        self.forwarded_total
    }

    /// Entries in the `(gseq, id)` assignment log (the `ring.ordered_len`
    /// gauge). The log is what a view change's repair round reports and
    /// re-announces from, so it is kept whole: it grows with the run.
    pub fn ordered_len(&self) -> usize {
        self.core.logged
    }

    /// Lowest sequence number of `origin` known to be held by every ring
    /// member (everything at or below it may be pruned once delivered).
    fn stable_floor(&self, origin: SiteId) -> u64 {
        if origin == self.me {
            self.acked_seq
        } else {
            self.stable[origin.0]
        }
    }

    /// Raises `origin`'s stability floor, prunes what it covers, and counts
    /// it as received: what a rejoined origin gave up on never comes, and
    /// must not hold its tail's cumulative ack back.
    fn raise_stable(&mut self, origin: SiteId, floor: u64) {
        if origin != self.me && floor > self.stable[origin.0] {
            self.stable[origin.0] = floor;
            self.core.prune(origin, floor);
            let received = self.received[origin.0].get_or_insert_with(SeqWindow::default);
            received.raise(floor);
            while received.pop().is_some() {}
        }
    }

    /// Assigns `id` a gseq if this site coordinates and no round is open.
    fn assign(&mut self, id: MsgId, out: &mut Output<P, RingWire<P>>) {
        self.core.assign(id, out, self.fresh());
    }

    /// Launches queued own broadcasts while the pipeline window has room.
    fn pump_pending(&mut self, out: &mut Output<P, RingWire<P>>) {
        while self.sent_seq - self.acked_seq < self.window {
            let Some((id, payload)) = self.pending_local.pop_front() else {
                break;
            };
            self.launch(id, payload, out);
        }
    }

    /// Puts one own broadcast onto the ring.
    fn launch(&mut self, id: MsgId, payload: P, out: &mut Output<P, RingWire<P>>) {
        self.sent_seq = id.seq;
        self.core.hold(id, payload.clone());
        let succ = self.successor();
        if succ != self.me {
            let stable = self.acked_seq;
            let data = RingWire::Data {
                id,
                payload,
                stable,
            };
            out.outbound.push(Outbound::to(succ, data));
        } else {
            // Solo ring: there is no tail to ack us.
            self.acked_seq = id.seq;
        }
        self.assign(id, out);
    }

    /// Delivers every ordered message whose payload has arrived, in gseq
    /// order; a delivered payload is retained until it is stable.
    fn drain(&mut self, out: &mut Output<P, RingWire<P>>) {
        let (me, acked, stable) = (self.me, self.acked_seq, &self.stable);
        let floor = |o: SiteId| if o == me { acked } else { stable[o.0] };
        self.core.drain(out, |id| id.seq > floor(id.origin));
    }

    /// Handles a payload dissemination hop.
    fn on_data(&mut self, id: MsgId, payload: P, stable: u64, out: &mut Output<P, RingWire<P>>) {
        let origin = id.origin;
        self.raise_stable(origin, stable);
        if origin == self.me || id.seq <= self.stable_floor(origin) || !self.core.is_new(id) {
            // Echo or duplicate: never re-forwarded. At the ring tail it
            // refreshes the cumulative ack, in case the first was lost.
            if origin != self.me && self.successor() == origin {
                if let Some(received) = &self.received[origin.0] {
                    let upto = received.watermark();
                    out.outbound
                        .push(Outbound::to(origin, RingWire::Ack { upto }));
                }
            }
            return;
        }
        self.core.hold(id, payload.clone());
        let succ = self.successor();
        if succ != origin && succ != self.me {
            let stable = self.stable_floor(origin);
            let data = RingWire::Data {
                id,
                payload,
                stable,
            };
            out.outbound.push(Outbound::to(succ, data));
            self.forwarded_total += 1;
        }
        let received = self.received[origin.0].get_or_insert_with(SeqWindow::default);
        let before = received.watermark();
        received.insert(id.seq);
        let upto = received.watermark();
        if upto > before && succ == origin {
            // We are the last site on this origin's ring path: cumulative
            // ack releases its pipeline window.
            out.outbound
                .push(Outbound::to(origin, RingWire::Ack { upto }));
        }
        self.assign(id, out);
        self.drain(out);
    }

    /// Handles an ordering record.
    fn on_commit(&mut self, epoch: u64, gseq: u64, id: MsgId, out: &mut Output<P, RingWire<P>>) {
        if epoch != self.core.epoch || !self.core.learn(gseq, id) {
            return; // stale epoch, or known: the round re-announces
        }
        let succ = self.successor();
        if succ != self.core.coordinator() && succ != self.me {
            out.outbound
                .push(Outbound::to(succ, RingWire::Commit { epoch, gseq, id }));
        }
        self.drain(out);
    }

    /// Handles a cumulative window ack for our own broadcasts.
    fn on_ack(&mut self, upto: u64, out: &mut Output<P, RingWire<P>>) {
        let upto = upto.min(self.sent_seq);
        if upto > self.acked_seq {
            self.acked_seq = upto;
            self.core.prune(self.me, upto);
            self.pump_pending(out);
            self.drain(out);
        }
    }

    /// Installs view `epoch`: reports to the coordinator (or opens the
    /// round), re-offers retained payloads to the new successor, and
    /// refreshes the cumulative ack of the origin this site is now tail of.
    pub fn set_view(&mut self, members: &[SiteId], epoch: u64) -> Output<P, RingWire<P>> {
        let mut out = Output::empty();
        let mut ring = members.to_vec();
        ring.sort_unstable();
        let succ = successor_in(&ring, self.me);
        let fresh = (succ != self.me).then_some(Dest::Site(succ));
        if let Some(report) = self.core.install((members, epoch), &mut out, fresh) {
            out.outbound.push(Outbound::to(
                self.core.coordinator(),
                RingWire::Repair(report),
            ));
        }
        if succ != self.me {
            // Heal the ring break; duplicates are no-ops at the receiver.
            for (origin, held) in self.core.store.iter().enumerate() {
                let origin = SiteId(origin);
                if origin == succ {
                    continue;
                }
                let stable = self.stable_floor(origin);
                for h in held {
                    let (id, payload) = (MsgId { origin, seq: h.seq }, h.payload.clone());
                    let data = RingWire::Data {
                        id,
                        payload,
                        stable,
                    };
                    out.outbound.push(Outbound::to(succ, data));
                }
                self.forwarded_total += held.len() as u64;
            }
            let upto = self.received[succ.0]
                .as_ref()
                .map_or(0, SeqWindow::watermark);
            out.outbound
                .push(Outbound::to(succ, RingWire::Ack { upto }));
        } else {
            // Solo: outstanding windows complete vacuously.
            self.acked_seq = self.sent_seq;
            self.pump_pending(&mut out);
        }
        self.drain(&mut out);
        out
    }

    /// This site's state-transfer snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.core.snapshot()
    }

    /// Resumes at the donor's watermark. Receipt starts over: an origin's
    /// next `Data` raises it to the origin's stability floor. Own
    /// broadcasts from before the crash are given up (this site's next
    /// `Data`'s floor says so); the readmitting view change re-supplies
    /// what is undelivered.
    pub fn resume_from(&mut self, snap: &Snapshot) {
        self.core.resume(snap);
        self.pending_local.clear();
        self.received.fill(None);
        self.stable.fill(0);
        (self.sent_seq, self.acked_seq) = (self.core.next_seq, self.core.next_seq);
    }
}

impl<P: Clone> AtomicBcast<P> for RingAbcast<P> {
    type Wire = RingWire<P>;

    fn broadcast(&mut self, payload: P) -> (MsgId, Output<P, RingWire<P>>) {
        let id = self.core.next_id();
        self.pending_local.push_back((id, payload));
        let mut out = Output::empty();
        self.pump_pending(&mut out);
        self.drain(&mut out);
        (id, out)
    }

    fn on_wire(&mut self, _from: SiteId, wire: RingWire<P>) -> Output<P, RingWire<P>> {
        let mut out = Output::empty();
        match wire {
            RingWire::Data {
                id,
                payload,
                stable,
            } => self.on_data(id, payload, stable, &mut out),
            RingWire::Commit { epoch, gseq, id } => self.on_commit(epoch, gseq, id, &mut out),
            RingWire::Ack { upto } => self.on_ack(upto, &mut out),
            RingWire::Repair(report) => {
                self.core.on_report(report, &mut out, self.fresh());
                self.drain(&mut out);
            }
        }
        out
    }

    fn delivered_count(&self) -> u64 {
        self.core.next_deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payloads retained for forwarding and repair.
    pub(super) fn retained<P: Clone>(engine: &RingAbcast<P>) -> usize {
        engine.core.store.iter().map(VecDeque::len).sum()
    }

    /// The highest sequence number received from each tracked origin, and
    /// handed out here.
    pub(super) fn seq_floors<P>(engine: &RingAbcast<P>) -> Vec<(SiteId, u64)> {
        let seen = engine.received.iter().enumerate();
        let seen = seen.filter_map(|(s, c)| Some((SiteId(s), c.as_ref()?.max_seen())));
        let mut floors: Vec<(SiteId, u64)> = seen.collect();
        floors.push((engine.me, engine.core.next_seq));
        floors.sort_unstable();
        floors
    }
    use crate::atomic::TotalDelivery;
    use crate::batch::WireSize;
    use crate::msg::expand_dest;

    /// Deterministic fleet runner with crash and view-change support. The
    /// queue is globally FIFO (which preserves per-link FIFO); messages to
    /// or from a crashed site are dropped, modelling in-flight loss
    /// harsher than the simulator does.
    struct Fleet {
        engines: Vec<RingAbcast<u64>>,
        queue: VecDeque<(SiteId, SiteId, RingWire<u64>)>,
        logs: Vec<Vec<TotalDelivery<u64>>>,
        crashed: Vec<bool>,
        sends: usize,
    }

    impl Fleet {
        fn new(n: usize) -> Self {
            Fleet {
                engines: (0..n).map(|i| RingAbcast::new(SiteId(i), n)).collect(),
                queue: VecDeque::new(),
                logs: vec![Vec::new(); n],
                crashed: vec![false; n],
                sends: 0,
            }
        }

        fn absorb(&mut self, site: usize, out: Output<u64, RingWire<u64>>) {
            let n = self.engines.len();
            for delivery in out.deliveries {
                self.logs[site].push(delivery);
            }
            for ob in out.outbound {
                for to in expand_dest(ob.dest, SiteId(site), n) {
                    self.queue.push_back((SiteId(site), to, ob.wire.clone()));
                    self.sends += 1;
                }
            }
        }

        fn broadcast(&mut self, site: usize, value: u64) -> MsgId {
            let (id, out) = self.engines[site].broadcast(value);
            self.absorb(site, out);
            id
        }

        /// Processes up to `limit` queued messages.
        fn settle_n(&mut self, limit: usize) {
            for _ in 0..limit {
                let Some((from, to, wire)) = self.queue.pop_front() else {
                    break;
                };
                if self.crashed[from.0] || self.crashed[to.0] {
                    continue;
                }
                let out = self.engines[to.0].on_wire(from, wire);
                self.absorb(to.0, out);
            }
        }

        fn settle(&mut self) {
            self.settle_n(usize::MAX);
        }

        /// Settles the queue delivering every message twice, modelling a
        /// network that duplicates every hop.
        fn settle_duplicating(&mut self) {
            while let Some((from, to, wire)) = self.queue.pop_front() {
                if self.crashed[from.0] || self.crashed[to.0] {
                    continue;
                }
                let out = self.engines[to.0].on_wire(from, wire.clone());
                self.absorb(to.0, out);
                let out = self.engines[to.0].on_wire(from, wire);
                self.absorb(to.0, out);
            }
        }

        /// Settles the queue in LIFO order, violating per-link FIFO as
        /// aggressively as a single queue can.
        fn settle_lifo(&mut self) {
            while let Some((from, to, wire)) = self.queue.pop_back() {
                if self.crashed[from.0] || self.crashed[to.0] {
                    continue;
                }
                let out = self.engines[to.0].on_wire(from, wire);
                self.absorb(to.0, out);
            }
        }

        fn crash(&mut self, site: usize) {
            self.crashed[site] = true;
        }

        /// Installs the surviving membership at every live site, then
        /// settles the repair traffic.
        fn view_change(&mut self, epoch: u64) {
            let members: Vec<SiteId> = (0..self.engines.len())
                .filter(|&i| !self.crashed[i])
                .map(SiteId)
                .collect();
            for i in 0..self.engines.len() {
                if self.crashed[i] {
                    continue;
                }
                let out = self.engines[i].set_view(&members, epoch);
                self.absorb(i, out);
            }
            self.settle();
        }

        /// Asserts every live site delivered the same `expected` payload
        /// sequence at identical gseqs.
        fn assert_agreement(&self, expected: &[u64]) {
            let mut reference: Option<&Vec<TotalDelivery<u64>>> = None;
            for (site, log) in self.logs.iter().enumerate() {
                if self.crashed[site] {
                    continue;
                }
                let payloads: Vec<u64> = log.iter().map(|d| d.payload).collect();
                assert_eq!(payloads, expected, "site {site} delivered {payloads:?}");
                if let Some(reference) = reference {
                    assert_eq!(log, reference, "site {site} disagrees on gseqs");
                } else {
                    reference = Some(log);
                }
            }
        }
    }

    #[test]
    fn single_broadcast_delivers_everywhere() {
        let mut fleet = Fleet::new(4);
        fleet.broadcast(2, 42);
        fleet.settle();
        fleet.assert_agreement(&[42]);
        for log in &fleet.logs {
            assert_eq!(log[0].gseq, 0);
        }
    }

    #[test]
    fn message_complexity_is_2n_minus_1() {
        // N-1 data hops + N-1 commit hops + 1 tail ack.
        let mut fleet = Fleet::new(4);
        fleet.broadcast(2, 7);
        fleet.settle();
        assert_eq!(fleet.sends, 7);

        // Same count when the origin is the coordinator.
        let mut fleet = Fleet::new(4);
        fleet.broadcast(0, 7);
        fleet.settle();
        assert_eq!(fleet.sends, 7);
    }

    #[test]
    fn duplicated_hops_deliver_exactly_once() {
        let mut fleet = Fleet::new(4);
        fleet.broadcast(1, 11);
        fleet.broadcast(3, 33);
        fleet.settle_duplicating();
        let expected: Vec<u64> = fleet.logs[0].iter().map(|d| d.payload).collect();
        let mut sorted = expected.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![11, 33], "each payload delivered exactly once");
        fleet.assert_agreement(&expected);
    }

    #[test]
    fn reordered_hops_still_reach_agreement() {
        let mut fleet = Fleet::new(4);
        fleet.broadcast(1, 1);
        fleet.broadcast(2, 2);
        fleet.broadcast(3, 3);
        fleet.settle_lifo();
        let expected: Vec<u64> = fleet.logs[0].iter().map(|d| d.payload).collect();
        let mut sorted = expected.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3], "nothing lost or duplicated");
        fleet.assert_agreement(&expected);
    }

    #[test]
    fn duplicate_data_at_tail_refreshes_a_lost_ack() {
        let mut fleet = Fleet::new(4);
        let id = fleet.broadcast(1, 9);
        // Deliver everything except the tail's cumulative Ack.
        while let Some((from, to, wire)) = fleet.queue.pop_front() {
            if matches!(wire, RingWire::Ack { .. }) {
                continue; // lost on the wire
            }
            let out = fleet.engines[to.0].on_wire(from, wire);
            fleet.absorb(to.0, out);
        }
        assert_eq!(fleet.engines[1].acked_seq, 0, "the only ack was dropped");
        // A retransmitted payload reaching the ring tail (site 0, the
        // origin's predecessor) must refresh the cumulative ack even though
        // the payload itself is a duplicate.
        let out = fleet.engines[0].on_wire(
            SiteId(3),
            RingWire::Data {
                id,
                payload: 9,
                stable: 0,
            },
        );
        fleet.absorb(0, out);
        fleet.settle();
        assert_eq!(
            fleet.engines[1].acked_seq, 1,
            "duplicate Data at the tail re-acks"
        );
    }

    #[test]
    fn concurrent_origins_agree_on_total_order() {
        let mut fleet = Fleet::new(5);
        for round in 0..4u64 {
            for site in 0..5usize {
                fleet.broadcast(site, round * 10 + site as u64);
            }
        }
        fleet.settle();
        let reference: Vec<u64> = fleet.logs[0].iter().map(|d| d.payload).collect();
        assert_eq!(reference.len(), 20);
        fleet.assert_agreement(&reference);
        let gseqs: Vec<u64> = fleet.logs[0].iter().map(|d| d.gseq).collect();
        assert_eq!(gseqs, (0..20).collect::<Vec<u64>>(), "gseqs must be dense");
    }

    #[test]
    fn solo_ring_delivers_inline() {
        let mut engine = RingAbcast::new(SiteId(0), 1);
        let (id, out) = engine.broadcast(9u64);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].payload, 9);
        assert_eq!(out.deliveries[0].id, id);
        assert!(out.outbound.is_empty());
        assert_eq!(engine.inflight(), 0);
    }

    #[test]
    fn window_bounds_launches_until_acked() {
        let mut fleet = Fleet::new(3);
        fleet.engines[1].window = 2;
        for value in 0..10u64 {
            fleet.broadcast(1, value);
        }
        // Only the window's worth of Data launched so far.
        let launched = fleet
            .queue
            .iter()
            .filter(|(from, _, wire)| from.0 == 1 && matches!(wire, RingWire::Data { .. }))
            .count();
        assert_eq!(launched, 2);
        assert_eq!(fleet.engines[1].inflight(), 10);
        // Acks drain the backlog and everything delivers everywhere.
        fleet.settle();
        fleet.assert_agreement(&(0..10).collect::<Vec<u64>>());
        assert_eq!(fleet.engines[1].inflight(), 0);
    }

    #[test]
    fn piggybacked_stability_prunes_retained_payloads() {
        let mut fleet = Fleet::new(3);
        fleet.broadcast(0, 1);
        fleet.settle();
        // Delivered but not yet known stable: everyone retains it.
        assert_eq!(retained(&fleet.engines[1]), 1);
        // The next broadcast piggybacks stable=1, pruning the first.
        fleet.broadcast(0, 2);
        fleet.settle();
        for site in [1, 2] {
            assert_eq!(
                retained(&fleet.engines[site]),
                1,
                "site {site} should have pruned the stable payload"
            );
        }
        // The origin prunes everything acked and delivered.
        assert_eq!(retained(&fleet.engines[0]), 0);
        fleet.assert_agreement(&[1, 2]);
    }

    #[test]
    fn tail_crash_heals_and_delivery_continues() {
        let mut fleet = Fleet::new(4);
        fleet.broadcast(1, 1);
        fleet.settle();
        // Site 3 crashes; a broadcast from 2 has its first hop (2 -> 3)
        // dropped in flight.
        fleet.crash(3);
        fleet.broadcast(2, 2);
        fleet.settle();
        assert_eq!(fleet.logs[0].len(), 1, "payload lost with the crash so far");
        // The view change re-offers retained payloads around the break.
        fleet.view_change(1);
        fleet.broadcast(0, 3);
        fleet.settle();
        fleet.assert_agreement(&[1, 2, 3]);
    }

    #[test]
    fn coordinator_crash_reassigns_stranded_payloads() {
        let mut fleet = Fleet::new(4);
        // Data from 2 reaches the coordinator (which orders and delivers
        // it) and site 1 via the commit hop, then 0 and 1 both crash: the
        // surviving sites 2 and 3 hold the payload with no ordering.
        fleet.broadcast(2, 5);
        fleet.settle_n(4);
        fleet.crash(0);
        fleet.crash(1);
        fleet.settle();
        assert!(fleet.logs[2].is_empty() && fleet.logs[3].is_empty());
        // The new coordinator (2) re-assigns the stranded payload.
        fleet.view_change(1);
        fleet.assert_agreement(&[5]);
        fleet.broadcast(3, 6);
        fleet.settle();
        fleet.assert_agreement(&[5, 6]);
    }

    #[test]
    fn coordinator_crash_fills_holes_with_skips() {
        let mut fleet = Fleet::new(4);
        // Coordinator 0 orders its own broadcast (gseq 0) and delivers it,
        // but crashes before Data or Commit reach anyone. Survivors must
        // not stall: after repair they agree the payload vanished.
        fleet.broadcast(0, 9);
        fleet.crash(0);
        fleet.settle();
        fleet.view_change(1);
        fleet.assert_agreement(&[]);
        // Survivors continue from a consistent numbering.
        fleet.broadcast(1, 10);
        fleet.settle();
        fleet.assert_agreement(&[10]);
    }

    #[test]
    fn stale_epoch_commits_are_dropped() {
        let mut engine: RingAbcast<u64> = RingAbcast::new(SiteId(1), 3);
        let members: Vec<SiteId> = (0..3).map(SiteId).collect();
        let out = engine.set_view(&members, 1);
        drop(out);
        let out = engine.on_wire(
            SiteId(0),
            RingWire::Commit {
                epoch: 0,
                gseq: 0,
                id: MsgId {
                    origin: SiteId(0),
                    seq: 1,
                },
            },
        );
        assert!(out.deliveries.is_empty() && out.outbound.is_empty());
        assert_eq!(engine.delivered_count(), 0);
    }

    #[test]
    fn resume_from_skips_past_snapshot_and_avoids_id_reuse() {
        let mut fleet = Fleet::new(3);
        for value in 0..5u64 {
            fleet.broadcast(2, value);
        }
        fleet.settle();
        // Donor 0 snapshots; a "recovered" replacement engine for site 2
        // resumes from it.
        let snap = fleet.engines[0].snapshot();
        assert_eq!(snap.watermark, 5);
        let mut recovered: RingAbcast<u64> = RingAbcast::new(SiteId(2), 3);
        recovered.resume_from(&snap);
        assert_eq!(recovered.delivered_count(), 5);
        // Fresh broadcasts start past the pre-crash ids.
        let (id, _) = recovered.broadcast(99);
        assert_eq!(id.seq, 6);
    }

    #[test]
    fn wire_sizes_match_encoded_layout() {
        #[derive(Clone)]
        struct Blob(usize);
        impl WireSize for Blob {
            fn wire_size(&self) -> usize {
                self.0
            }
        }
        let id = MsgId {
            origin: SiteId(1),
            seq: 3,
        };
        let data = RingWire::Data {
            id,
            payload: Blob(100),
            stable: 0,
        };
        // MsgId (16) + payload (100) + stable (8).
        assert_eq!(data.wire_size(), 124);
        let commit: RingWire<Blob> = RingWire::Commit {
            epoch: 0,
            gseq: 0,
            id,
        };
        assert_eq!(commit.wire_size(), 32);
        let ack: RingWire<Blob> = RingWire::Ack { upto: 1 };
        assert_eq!(ack.wire_size(), 8);
        let repair: RingWire<Blob> = RingWire::Repair(Report {
            site: SiteId(0),
            epoch: 1,
            entries: vec![(0, id), (1, id)],
            delivered: 0,
        });
        assert_eq!(repair.wire_size(), 24 + 48);
    }
}

/// The engine as it was before its tables were indexed — payloads in one
/// `BTreeMap` keyed by id, the assignment log a `BTreeMap` keyed by gseq,
/// the ordered ids a `HashSet`, receipt sets and stability floors
/// `BTreeMap`s keyed by site — kept as the reference the indexed engine is held to,
/// the way `lock.rs` and `sg.rs` keep theirs. It follows a schedule up to
/// its first view change: its repair path ordered before every report was
/// in, so it is gone, and invariants check what comes after.
#[cfg(test)]
mod oracle {
    use super::tests::{retained, seq_floors};
    use super::*;
    use crate::atomic::TotalDelivery;
    use crate::order::schedule::{self, step, Fleet, Reached, Step};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, HashSet};

    #[derive(Debug)]
    struct Held<P> {
        payload: P,
        delivered: bool,
    }

    /// One origin's receipts: every sequence number received.
    #[derive(Debug, Default)]
    struct Received(BTreeSet<u64>);

    impl Received {
        /// Highest `seq` such that all of `1..=seq` were received.
        fn watermark(&self) -> u64 {
            (1..).take_while(|seq| self.0.contains(seq)).count() as u64
        }

        fn max_seen(&self) -> u64 {
            self.0.last().copied().unwrap_or(0)
        }
    }

    #[derive(Debug)]
    pub(super) struct Oracle<P> {
        me: SiteId,
        ring: Vec<SiteId>,
        epoch: u64,
        window: u64,
        next_seq: u64,
        sent_seq: u64,
        acked_seq: u64,
        pending_local: VecDeque<(MsgId, P)>,
        store: BTreeMap<MsgId, Held<P>>,
        ordered: BTreeMap<u64, MsgId>,
        ordered_ids: HashSet<MsgId>,
        next_gseq_deliver: u64,
        received: BTreeMap<SiteId, Received>,
        stable: BTreeMap<SiteId, u64>,
        next_gseq_assign: u64,
        forwarded_total: u64,
    }

    impl<P: Clone> Oracle<P> {
        pub(super) fn new(me: SiteId, n: usize) -> Self {
            Oracle {
                me,
                ring: (0..n).map(SiteId).collect(),
                epoch: 0,
                window: DEFAULT_WINDOW,
                next_seq: 0,
                sent_seq: 0,
                acked_seq: 0,
                pending_local: VecDeque::new(),
                store: BTreeMap::new(),
                ordered: BTreeMap::new(),
                ordered_ids: HashSet::new(),
                next_gseq_deliver: 0,
                received: BTreeMap::new(),
                stable: BTreeMap::new(),
                next_gseq_assign: 0,
                forwarded_total: 0,
            }
        }

        pub(super) fn with_window(mut self, window: u64) -> Self {
            self.window = window;
            self
        }

        fn coordinator(&self) -> SiteId {
            self.ring[0]
        }

        fn successor(&self) -> SiteId {
            match self.ring.iter().position(|&s| s == self.me) {
                Some(i) => self.ring[(i + 1) % self.ring.len()],
                None => self.me,
            }
        }

        pub(super) fn inflight(&self) -> u64 {
            self.next_seq - self.acked_seq
        }

        pub(super) fn forwarded_count(&self) -> u64 {
            self.forwarded_total
        }

        pub(super) fn delivered_watermark(&self) -> u64 {
            self.next_gseq_deliver
        }

        pub(super) fn retained_payloads(&self) -> usize {
            self.store.len()
        }

        pub(super) fn ordered_len(&self) -> usize {
            self.ordered.len()
        }

        pub(super) fn seq_floors(&self) -> Vec<(SiteId, u64)> {
            let mut floors: Vec<(SiteId, u64)> = self
                .received
                .iter()
                .map(|(&site, received)| (site, received.max_seen()))
                .collect();
            floors.push((self.me, self.next_seq));
            floors.sort_unstable();
            floors
        }

        fn stable_floor(&self, origin: SiteId) -> u64 {
            if origin == self.me {
                self.acked_seq
            } else {
                self.stable.get(&origin).copied().unwrap_or(0)
            }
        }

        fn raise_stable(&mut self, origin: SiteId, floor: u64) {
            if origin == self.me {
                return;
            }
            let current = self.stable.get(&origin).copied().unwrap_or(0);
            if floor > current {
                self.stable.insert(origin, floor);
                self.prune_origin(origin);
            }
        }

        fn prune_origin(&mut self, origin: SiteId) {
            let floor = self.stable_floor(origin);
            if floor == 0 {
                return;
            }
            let lo = MsgId { origin, seq: 0 };
            let hi = MsgId { origin, seq: floor };
            let dead: Vec<MsgId> = self
                .store
                .range(lo..=hi)
                .filter(|(_, held)| held.delivered)
                .map(|(&id, _)| id)
                .collect();
            for id in dead {
                self.store.remove(&id);
            }
        }

        fn pump_pending(&mut self, out: &mut Output<P, RingWire<P>>) {
            while self.sent_seq - self.acked_seq < self.window {
                let Some((id, payload)) = self.pending_local.pop_front() else {
                    break;
                };
                self.launch(id, payload, out);
            }
        }

        fn launch(&mut self, id: MsgId, payload: P, out: &mut Output<P, RingWire<P>>) {
            self.sent_seq = id.seq;
            self.store.insert(
                id,
                Held {
                    payload: payload.clone(),
                    delivered: false,
                },
            );
            let succ = self.successor();
            if succ != self.me {
                out.outbound.push(Outbound::to(
                    succ,
                    RingWire::Data {
                        id,
                        payload,
                        stable: self.acked_seq,
                    },
                ));
            } else {
                self.acked_seq = id.seq;
            }
            if self.me == self.coordinator() {
                self.assign(id, out);
            }
        }

        fn assign(&mut self, id: MsgId, out: &mut Output<P, RingWire<P>>) {
            if !self.ordered_ids.insert(id) {
                return;
            }
            let gseq = self.next_gseq_assign;
            self.next_gseq_assign += 1;
            self.ordered.insert(gseq, id);
            let succ = self.successor();
            if succ != self.me {
                out.outbound.push(Outbound::to(
                    succ,
                    RingWire::Commit {
                        epoch: self.epoch,
                        gseq,
                        id,
                    },
                ));
            }
        }

        fn drain(&mut self, out: &mut Output<P, RingWire<P>>) {
            while let Some(&id) = self.ordered.get(&self.next_gseq_deliver) {
                if id == SKIP_ID {
                    self.next_gseq_deliver += 1;
                    continue;
                }
                let Some(held) = self.store.get_mut(&id) else {
                    break;
                };
                debug_assert!(!held.delivered, "oracle: message {id} delivered twice");
                held.delivered = true;
                let payload = held.payload.clone();
                out.deliveries.push(TotalDelivery {
                    gseq: self.next_gseq_deliver,
                    id,
                    payload,
                });
                self.next_gseq_deliver += 1;
                if id.seq <= self.stable_floor(id.origin) {
                    self.store.remove(&id);
                }
            }
        }

        fn on_data(
            &mut self,
            id: MsgId,
            payload: P,
            stable: u64,
            out: &mut Output<P, RingWire<P>>,
        ) {
            let origin = id.origin;
            self.raise_stable(origin, stable);
            if origin == self.me
                || id.seq <= self.stable_floor(origin)
                || self.store.contains_key(&id)
            {
                if origin != self.me && self.successor() == origin {
                    if let Some(received) = self.received.get(&origin) {
                        out.outbound.push(Outbound::to(
                            origin,
                            RingWire::Ack {
                                upto: received.watermark(),
                            },
                        ));
                    }
                }
                return;
            }
            self.store.insert(
                id,
                Held {
                    payload: payload.clone(),
                    delivered: false,
                },
            );
            let succ = self.successor();
            if succ != origin && succ != self.me {
                out.outbound.push(Outbound::to(
                    succ,
                    RingWire::Data {
                        id,
                        payload,
                        stable: self.stable_floor(origin),
                    },
                ));
                self.forwarded_total += 1;
            }
            let received = self.received.entry(origin).or_default();
            let before = received.watermark();
            received.0.insert(id.seq);
            let upto = received.watermark();
            if upto > before && succ == origin {
                out.outbound
                    .push(Outbound::to(origin, RingWire::Ack { upto }));
            }
            if self.me == self.coordinator() {
                self.assign(id, out);
            }
            self.drain(out);
        }

        fn on_commit(
            &mut self,
            epoch: u64,
            gseq: u64,
            id: MsgId,
            out: &mut Output<P, RingWire<P>>,
        ) {
            if epoch != self.epoch {
                return;
            }
            if gseq < self.next_gseq_deliver || self.ordered.contains_key(&gseq) {
                debug_assert!(
                    self.ordered.get(&gseq).is_none_or(|&known| known == id),
                    "oracle: conflicting assignment at gseq {gseq}"
                );
                return;
            }
            self.ordered.insert(gseq, id);
            if id != SKIP_ID {
                self.ordered_ids.insert(id);
            }
            self.next_gseq_assign = self.next_gseq_assign.max(gseq + 1);
            let succ = self.successor();
            if succ != self.coordinator() && succ != self.me {
                out.outbound
                    .push(Outbound::to(succ, RingWire::Commit { epoch, gseq, id }));
            }
            self.drain(out);
        }

        fn on_ack(&mut self, upto: u64, out: &mut Output<P, RingWire<P>>) {
            let upto = upto.min(self.sent_seq);
            if upto > self.acked_seq {
                self.acked_seq = upto;
                self.prune_origin(self.me);
                self.pump_pending(out);
                self.drain(out);
            }
        }

        pub(super) fn broadcast(&mut self, payload: P) -> (MsgId, Output<P, RingWire<P>>) {
            self.next_seq += 1;
            let id = MsgId {
                origin: self.me,
                seq: self.next_seq,
            };
            self.pending_local.push_back((id, payload));
            let mut out = Output::empty();
            self.pump_pending(&mut out);
            self.drain(&mut out);
            (id, out)
        }

        pub(super) fn on_wire(&mut self, wire: RingWire<P>) -> Output<P, RingWire<P>> {
            let mut out = Output::empty();
            match wire {
                RingWire::Data {
                    id,
                    payload,
                    stable,
                } => self.on_data(id, payload, stable, &mut out),
                RingWire::Commit { epoch, gseq, id } => self.on_commit(epoch, gseq, id, &mut out),
                RingWire::Ack { upto } => self.on_ack(upto, &mut out),
                RingWire::Repair { .. } => unreachable!("no view changes here"),
            }
            out
        }
    }

    /// The indexed engine under the shared schedule driver.
    impl schedule::FrontEnd for RingAbcast<u64> {
        fn set_view(&mut self, members: &[SiteId], epoch: u64) -> Output<u64, Self::Wire> {
            RingAbcast::set_view(self, members, epoch)
        }

        fn snapshot(&self) -> Snapshot {
            RingAbcast::snapshot(self)
        }

        fn resume_from(&mut self, snap: &Snapshot) {
            RingAbcast::resume_from(self, snap)
        }

        fn make(me: SiteId, n: usize, window: u64) -> Self {
            RingAbcast {
                window,
                ..RingAbcast::new(me, n)
            }
        }

        fn duplicable(wire: &RingWire<u64>) -> bool {
            matches!(wire, RingWire::Data { .. } | RingWire::Commit { .. })
        }

        fn is_report(wire: &RingWire<u64>) -> bool {
            matches!(wire, RingWire::Repair { .. })
        }

        fn is_skip(wire: &RingWire<u64>) -> bool {
            matches!(wire, RingWire::Commit { id, .. } if *id == SKIP_ID)
        }

        fn inflight(&self) -> Option<u64> {
            Some(RingAbcast::inflight(self))
        }
    }

    /// The oracle engines, fed every input of a schedule's fault-free
    /// prefix: each output and gauge must match the indexed engine's. A
    /// view change ends the comparison — the oracle has neither the repair
    /// round nor the ordered ids in its snapshot.
    struct Oracles(Vec<Oracle<u64>>);

    impl schedule::Shadow<RingAbcast<u64>> for Oracles {
        fn broadcast(
            &mut self,
            site: usize,
            payload: u64,
            new: &(MsgId, Output<u64, RingWire<u64>>),
        ) -> TestResult {
            let old = self.0[site].broadcast(payload);
            prop_assert_eq!(&old, new, "site {} broadcast", site);
            Ok(())
        }

        fn on_wire(
            &mut self,
            site: usize,
            wire: RingWire<u64>,
            new: &Output<u64, RingWire<u64>>,
        ) -> TestResult {
            prop_assert_eq!(&self.0[site].on_wire(wire), new, "site {} output", site);
            Ok(())
        }

        fn compare(&self, engines: &[RingAbcast<u64>]) -> TestResult {
            for (s, (new, old)) in engines.iter().zip(&self.0).enumerate() {
                prop_assert_eq!(
                    new.ordered_len(),
                    old.ordered_len(),
                    "site {} ordered_len",
                    s
                );
                let retained = (retained(new), old.retained_payloads());
                prop_assert_eq!(retained.0, retained.1, "site {} retained", s);
                prop_assert_eq!(new.inflight(), old.inflight(), "site {} inflight", s);
                let watermarks = (new.delivered_count(), old.delivered_watermark());
                prop_assert_eq!(watermarks.0, watermarks.1, "site {} watermark", s);
                prop_assert_eq!(seq_floors(new), old.seq_floors(), "site {} floors", s);
                let forwarded = (new.forwarded_count(), old.forwarded_count());
                prop_assert_eq!(forwarded.0, forwarded.1, "site {} forwarded", s);
            }
            Ok(())
        }
    }

    type TestResult = schedule::TestResult;

    /// The schedule driver with the oracle watching its fault-free prefix.
    fn lockstep(n: usize, window: u64, steps: &[Step]) -> Result<Reached, TestCaseError> {
        let mut fleet = Fleet::<RingAbcast<u64>>::new(n, window);
        let oracles = (0..n).map(|i| Oracle::new(SiteId(i), n).with_window(window));
        fleet.shadow = Some(Box::new(Oracles(oracles.collect())));
        schedule::run_with(fleet, steps)
    }

    /// The cases `indexed_engine_agrees_with_the_oracle` generates reach
    /// deliveries, broadcasts held back by the window, duplicates,
    /// crashes, rejoins, repair reports, broadcasts while a round is open,
    /// and rejoined sites that coordinate.
    #[test]
    fn generated_schedules_reach_every_path() {
        let mut total = Reached::default();
        for case in 0..256 {
            let (n, window, steps) = schedule::sample(case, 2..=5, 160);
            total += lockstep(n, window, &steps).expect("agrees with the oracle");
        }
        let Reached {
            deliveries,
            held_back,
            duplicates,
            crashes,
            rejoins,
            rejoined_coordinators,
            reports,
            broadcasts_mid_round,
            skips: _,
        } = total;
        let all = [
            deliveries,
            held_back,
            duplicates,
            crashes,
            rejoins,
            rejoined_coordinators,
            reports,
            broadcasts_mid_round,
        ];
        assert!(all.iter().all(|&count| count > 0), "{total:?}");
    }

    /// A rejoined origin gives up on its broadcasts from before the crash,
    /// and its next `Data` says so in its stability floor: the ring tail
    /// counts what is below the floor as received, so the gap they leave
    /// does not hold the origin's window shut. The tail here has never
    /// heard from origin 1 (its donor's floors name only itself), or has
    /// heard up to 0.
    #[test]
    fn a_tail_acks_up_to_the_origins_stability_floor() {
        let id = MsgId {
            origin: SiteId(1),
            seq: 3,
        };
        let wire = RingWire::Data {
            id,
            payload: 7u64,
            stable: 2,
        };
        for donor in [0, 1] {
            let snap = RingAbcast::<u64>::new(SiteId(donor), 2).snapshot();
            let mut tail = RingAbcast::new(SiteId(0), 2);
            tail.resume_from(&snap);
            let out = tail.on_wire(SiteId(1), wire.clone());
            let wires = out.outbound.iter().map(|ob| ob.wire.clone());
            let acks: Vec<_> = wires
                .filter(|w| matches!(w, RingWire::Ack { .. }))
                .collect();
            assert_eq!(acks, [RingWire::Ack { upto: 3 }], "donor {donor}");
            assert_eq!(seq_floors(&tail), [(SiteId(0), 0), (SiteId(1), 3)]);
        }
    }

    /// The first repair gap, pinned. Coordinator 0 orders X at gseq 0;
    /// before its commit reaches 1, two view changes make it stale there,
    /// while 2 has heard gseq 0 from 0's first round. Then 0 crashes and 1
    /// coordinates without knowing gseq 0. Its own broadcast Y must wait
    /// for 2's report, or it takes gseq 0 too — as the oracle's repair did.
    #[test]
    fn a_round_assigns_nothing_until_every_report_is_in() {
        let mut fleet = Fleet::<RingAbcast<u64>>::new(5, DEFAULT_WINDOW);
        fleet.broadcast(0).expect("X, ordered at gseq 0");
        fleet.crash(4).expect("view {0, 1, 2, 3}");
        for reporter in [1, 2, 3] {
            fleet.deliver_front((reporter, 0)).expect("report");
        }
        let resend = |w: &RingWire<u64>| matches!(w, RingWire::Commit { epoch: 1, .. });
        while !fleet.links[&(0, 2)].front().is_some_and(resend) {
            fleet.deliver_front((0, 2)).expect("to 2");
        }
        fleet.deliver_front((0, 2)).expect("2 hears gseq 0");
        fleet
            .crash(3)
            .expect("view {0, 1, 2}: 0's commits to 1 go stale");
        fleet.crash(0).expect("view {1, 2}, coordinated by 1");
        fleet.broadcast(1).expect("Y, during 1's round");
        fleet.settle().expect("round closes, Y after X");
        fleet.check().expect("agreement");
        let x = MsgId {
            origin: SiteId(0),
            seq: 1,
        };
        assert_eq!(fleet.engines[1].core.ordered_at(0), Some(x));
        assert_eq!(fleet.engines[1].delivered_count(), 2);
    }

    /// The second repair gap, pinned: a site that rejoins and coordinates
    /// knows from its snapshot which payloads are ordered, so the ring's
    /// re-offers of delivered ones are not ordered (and delivered) again.
    #[test]
    fn a_rejoined_coordinator_never_orders_a_delivered_payload_again() {
        let mut fleet = Fleet::<RingAbcast<u64>>::new(3, DEFAULT_WINDOW);
        fleet.broadcast(1).expect("X");
        fleet
            .settle()
            .expect("X delivered everywhere, retained (not stable)");
        fleet.crash(0).expect("view {1, 2}");
        fleet.settle().expect("round");
        fleet
            .run(&Step::Rejoin(0))
            .expect("0 rejoins from a donor and coordinates");
        fleet.settle().expect("re-offers of X reach 0");
        fleet.check().expect("X delivered once");
        assert_eq!(retained(&fleet.engines[0]), 0, "nothing held again");
        fleet.broadcast(2).expect("Y");
        fleet
            .settle()
            .expect("Y ordered by the rejoined coordinator");
        fleet.check().expect("agreement");
        assert_eq!(fleet.engines[0].delivered_count(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Broadcasts from random sites, per-link FIFO deliveries in random
        /// interleavings, duplicated `Data`/`Commit`, crashes and rejoins
        /// that never wait for a repair round: the indexed engine sends,
        /// delivers and reports exactly what the oracle does up to the
        /// first view change, and at quiescence the survivors agree on one
        /// total order, delivered once, with no wedged gap.
        #[test]
        fn indexed_engine_agrees_with_the_oracle(
            n in 2usize..=5,
            window in 1u64..=3,
            steps in proptest::collection::vec(step(), 0..160)
        ) {
            lockstep(n, window, &steps)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10_000, ..ProptestConfig::default() })]

        /// The same property over 10 000 schedules (release:
        /// `cargo test --release -p bcastdb-broadcast _10k -- --ignored`).
        #[test]
        #[ignore]
        fn indexed_engine_agrees_with_the_oracle_10k(
            n in 2usize..=6,
            window in 1u64..=8,
            steps in proptest::collection::vec(step(), 0..240)
        ) {
            lockstep(n, window, &steps)?;
        }
    }
}
