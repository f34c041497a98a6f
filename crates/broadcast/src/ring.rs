//! Pipelined ring atomic broadcast — the third A1 backend.
//!
//! [`SequencerAbcast`](crate::atomic::SequencerAbcast) concentrates all
//! payload bytes on the sequencer's links (`N-1` copies per broadcast) and
//! [`IsisAbcast`](crate::atomic::IsisAbcast) concentrates proposal traffic
//! on the origin. Both go leader-bound as `N` and payload size grow. The
//! ring backend instead pipelines payload dissemination around a ring in
//! the style of Ring Paxos \[MPSP10\]: every site forwards each payload to
//! its successor exactly once, so every link (and every NIC) carries ~1x
//! the payload bytes regardless of group size.
//!
//! Protocol sketch:
//!
//! - **Data** — the origin sends the payload to its ring successor; each
//!   site stores and forwards it onward, stopping at the origin's
//!   predecessor. The ring coordinator (lowest member, matching
//!   [`View::coordinator`](crate::membership::View::coordinator)) assigns
//!   the global sequence number when the payload reaches it.
//! - **Commit** — the small `(gseq, id)` ordering record also circulates
//!   hop-by-hop from the coordinator, so no single NIC carries an `O(N)`
//!   control fan-out either.
//! - **Ack** — the origin's ring predecessor (the last site to receive its
//!   payloads) sends a cumulative ack straight back, releasing the
//!   origin's bounded in-flight window. The origin piggybacks that
//!   cumulative floor on its next `Data` as a stability hint, letting every
//!   site prune delivered payloads — the same coalescing idea as
//!   `batch.rs` cumulative-ack piggybacking.
//! - **Repair** — on a view change every site re-offers its retained
//!   payloads to its new successor (heals the ring break) and reports its
//!   ordering log to the (possibly new) coordinator, which re-announces
//!   missed commits, fills unrecoverable holes with skip markers, and
//!   re-orders payloads stranded by a coordinator crash.
//!
//! Per broadcast the ring costs `2N - 1` point-to-point messages (`N-1`
//! data hops, `N-1` commit hops, one ack) but — unlike the sequencer's
//! `N+1` — no site sends more than a constant number of payload copies.

use crate::atomic::{AtomicBcast, Output, TotalDelivery};
use crate::contig::Contig;
use crate::msg::{MsgId, Outbound};
use bcastdb_sim::SiteId;
use std::collections::{BTreeSet, VecDeque};

/// Default bound on a site's in-flight (launched but un-acked) broadcasts.
pub const DEFAULT_WINDOW: u64 = 8;

/// Sentinel id used by hole-filling skip commits after a coordinator
/// change: the global sequence number is consumed but nothing is delivered.
pub const SKIP_ID: MsgId = MsgId {
    origin: SiteId(usize::MAX),
    seq: 0,
};

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
    Repair {
        /// Reporting site (carried explicitly; transports may not preserve
        /// the sender).
        site: SiteId,
        /// View epoch this report belongs to.
        epoch: u64,
        /// The reporter's full `(gseq, id)` ordering log.
        entries: Vec<(u64, MsgId)>,
        /// The reporter's delivery watermark (next gseq to deliver).
        delivered: u64,
    },
}

impl<P: crate::batch::WireSize> crate::batch::WireSize for RingWire<P> {
    fn wire_size(&self) -> usize {
        match self {
            RingWire::Data { id, payload, .. } => id.wire_size() + payload.wire_size() + 8,
            RingWire::Commit { id, .. } => 8 + 8 + id.wire_size(),
            RingWire::Ack { .. } => 8,
            RingWire::Repair { entries, .. } => 8 + 8 + 8 + entries.len() * 24,
        }
    }
}

/// A payload retained for forwarding, delivery, and ring repair.
#[derive(Debug)]
struct Held<P> {
    seq: u64,
    payload: P,
    delivered: bool,
}

/// Where `seq` sits in one origin's retained payloads (ascending by
/// sequence number): `Ok` if held, else the index that keeps the order.
/// Links are FIFO, so a new payload almost always goes at the back.
fn slot_of<P>(held: &VecDeque<Held<P>>, seq: u64) -> Result<usize, usize> {
    match held.back() {
        Some(last) if last.seq >= seq => held.binary_search_by_key(&seq, |h| h.seq),
        _ => Err(held.len()),
    }
}

/// A stashed [`RingWire::Repair`] report: `(site, epoch, entries,
/// delivered)`.
type StashedRepair = (SiteId, u64, Vec<(u64, MsgId)>, u64);

/// Pipelined ring atomic broadcast engine for one site.
///
/// Fault handling is driven externally: on a view change the replication
/// layer calls [`set_ring`](RingAbcast::set_ring) with the surviving
/// members, and a recovering site seeds itself from a peer snapshot via
/// [`resume_from`](RingAbcast::resume_from).
#[derive(Debug)]
pub struct RingAbcast<P> {
    me: SiteId,
    /// Current ring members, ascending; `ring[0]` is the coordinator.
    ring: Vec<SiteId>,
    /// View epoch of the current ring; stale commits/repairs are dropped.
    epoch: u64,
    /// Max launched-but-unacked own broadcasts.
    window: u64,
    /// Last own per-origin sequence number handed out by `broadcast`.
    next_seq: u64,
    /// Last own sequence number actually launched onto the ring.
    sent_seq: u64,
    /// Own cumulative ring-completion ack.
    acked_seq: u64,
    /// Own broadcasts waiting for window space.
    pending_local: VecDeque<(MsgId, P)>,
    /// Retained payloads (undelivered, or delivered but not yet stable),
    /// one table per origin, ascending by sequence number.
    store: Vec<VecDeque<Held<P>>>,
    /// Full assignment log indexed by gseq, retained for view-change
    /// repair; `None` is a gseq not known here. Never ends in `None`.
    ordered: Vec<Option<MsgId>>,
    /// Entries of `ordered` that are `Some`.
    ordered_count: usize,
    /// Per-origin sequence numbers with an assigned gseq (dedup on
    /// re-arrival and re-assignment).
    ordered_ids: Vec<Contig>,
    /// Next global sequence number to deliver.
    next_gseq_deliver: u64,
    /// Per-origin contiguous receipt trackers (drives tail acks); `None`
    /// until a payload or snapshot floor of that origin arrives.
    received: Vec<Option<Contig>>,
    /// Per-origin stability floors learned from `Data` piggybacks.
    stable: Vec<u64>,
    /// Coordinator state: next global sequence number to assign.
    next_gseq_assign: u64,
    /// Coordinator state: members whose `Repair` arrived this epoch.
    repaired: BTreeSet<SiteId>,
    /// `Repair` messages for a future epoch, replayed once we catch up.
    stashed_repairs: Vec<StashedRepair>,
    /// Total payloads forwarded onward (the `ring.forwarded` counter).
    forwarded_total: u64,
}

impl<P: Clone> RingAbcast<P> {
    /// Creates an engine for site `me` of an `n`-site ring; sites are
    /// arranged in ascending id order and site 0 starts as coordinator.
    ///
    /// # Panics
    /// Panics if `me` is not a valid site of an `n`-site system.
    pub fn new(me: SiteId, n: usize) -> Self {
        assert!(me.0 < n, "site {me} out of range for {n} sites");
        RingAbcast {
            me,
            ring: (0..n).map(SiteId).collect(),
            epoch: 0,
            window: DEFAULT_WINDOW,
            next_seq: 0,
            sent_seq: 0,
            acked_seq: 0,
            pending_local: VecDeque::new(),
            store: (0..n).map(|_| VecDeque::new()).collect(),
            ordered: Vec::new(),
            ordered_count: 0,
            ordered_ids: vec![Contig::default(); n],
            next_gseq_deliver: 0,
            received: vec![None; n],
            stable: vec![0; n],
            next_gseq_assign: 0,
            repaired: BTreeSet::new(),
            stashed_repairs: Vec::new(),
            forwarded_total: 0,
        }
    }

    /// Sets the in-flight pipeline window (default [`DEFAULT_WINDOW`]).
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: u64) -> Self {
        assert!(window >= 1, "window must be at least 1");
        self.window = window;
        self
    }

    /// The current ring coordinator (lowest member).
    pub fn coordinator(&self) -> SiteId {
        self.ring[0]
    }

    /// This site's current ring successor (itself when solo or evicted).
    pub fn successor(&self) -> SiteId {
        match self.ring.iter().position(|&s| s == self.me) {
            Some(i) => self.ring[(i + 1) % self.ring.len()],
            None => self.me,
        }
    }

    /// Own broadcasts not yet ring-acked (the `ring.inflight` gauge);
    /// includes broadcasts queued behind the window.
    pub fn inflight(&self) -> u64 {
        self.next_seq - self.acked_seq
    }

    /// Total payloads this site forwarded onward (the `ring.forwarded`
    /// counter).
    pub fn forwarded_count(&self) -> u64 {
        self.forwarded_total
    }

    /// The next global sequence number this site would deliver.
    pub fn delivered_watermark(&self) -> u64 {
        self.next_gseq_deliver
    }

    /// Number of payloads currently retained for forwarding/repair.
    pub fn retained_payloads(&self) -> usize {
        self.store.iter().map(VecDeque::len).sum()
    }

    /// Entries in the `(gseq, id)` assignment log (the `ring.ordered_len`
    /// gauge). The log is what a view change's repair round reports and
    /// re-announces from, so it is kept whole: it grows with the run.
    pub fn ordered_len(&self) -> usize {
        self.ordered_count
    }

    /// Current view epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-origin sequence floors for a recovery snapshot: the highest
    /// sequence number this site has seen from each origin (and assigned
    /// itself). A rejoiner seeds [`resume_from`](RingAbcast::resume_from) with these so fresh ids
    /// never collide with pre-crash ones.
    pub fn seq_floors(&self) -> Vec<(SiteId, u64)> {
        let mut floors: Vec<(SiteId, u64)> = self
            .received
            .iter()
            .enumerate()
            .filter_map(|(site, contig)| Some((SiteId(site), contig.as_ref()?.max_seen())))
            .collect();
        floors.push((self.me, self.next_seq));
        floors.sort_unstable();
        floors
    }

    /// Re-seeds a recovering site from a peer snapshot: delivery resumes at
    /// `watermark` and per-origin counters start past `floors` (see
    /// [`seq_floors`](Self::seq_floors)). Retained transient state is
    /// discarded; the view change that readmits this site re-supplies
    /// undelivered payloads and orderings.
    pub fn resume_from(&mut self, watermark: u64, floors: &[(SiteId, u64)]) {
        self.ordered.clear();
        self.ordered_count = 0;
        self.ordered_ids.fill(Contig::default());
        self.store.iter_mut().for_each(VecDeque::clear);
        self.pending_local.clear();
        self.received.fill(None);
        self.stable.fill(0);
        self.repaired.clear();
        self.stashed_repairs.clear();
        self.next_gseq_deliver = self.next_gseq_deliver.max(watermark);
        self.next_gseq_assign = self.next_gseq_assign.max(watermark);
        for &(site, seq) in floors {
            if site == self.me {
                self.next_seq = self.next_seq.max(seq);
                self.sent_seq = self.sent_seq.max(seq);
                self.acked_seq = self.acked_seq.max(seq);
            } else {
                self.received[site.0]
                    .get_or_insert_with(Contig::default)
                    .raise(seq);
            }
        }
    }

    /// Installs a new ring membership for view `epoch` and starts repair:
    /// re-offers retained payloads to the new successor, refreshes the
    /// cumulative ack for the origin this site is now tail of, and either
    /// reports its ordering log to the coordinator or (as coordinator)
    /// begins collecting reports.
    pub fn set_ring(&mut self, members: &[SiteId], epoch: u64) -> Output<P, RingWire<P>> {
        let mut ring: Vec<SiteId> = members.to_vec();
        ring.sort_unstable();
        ring.dedup();
        assert!(!ring.is_empty(), "ring must have at least one member");
        self.ring = ring;
        self.epoch = epoch;
        self.repaired.clear();
        let mut out = Output::empty();
        let succ = self.successor();
        if succ != self.me {
            // Heal the ring break: re-offer every retained payload to the
            // new successor. Duplicates are cheap no-ops at the receiver.
            let mut offered = 0;
            for (origin, held) in self.store.iter().enumerate() {
                let origin = SiteId(origin);
                if origin == succ {
                    continue;
                }
                let stable = self.stable_floor(origin);
                for h in held {
                    let id = MsgId { origin, seq: h.seq };
                    let payload = h.payload.clone();
                    out.outbound.push(Outbound::to(
                        succ,
                        RingWire::Data {
                            id,
                            payload,
                            stable,
                        },
                    ));
                }
                offered += held.len() as u64;
            }
            self.forwarded_total += offered;
            // We are now the ring tail for our successor's broadcasts;
            // refresh its cumulative ack so its window can't deadlock.
            let upto = self.received[succ.0].as_ref().map_or(0, Contig::watermark);
            out.outbound
                .push(Outbound::to(succ, RingWire::Ack { upto }));
        } else {
            // Ring collapsed to just us: outstanding windows complete
            // vacuously.
            self.acked_seq = self.sent_seq;
            self.pump_pending(&mut out);
        }
        if self.me == self.coordinator() {
            // The log never ends in a gap: its length is the highest
            // assigned gseq plus one.
            self.next_gseq_assign = self.next_gseq_assign.max(self.ordered.len() as u64);
            self.next_gseq_assign = self.next_gseq_assign.max(self.next_gseq_deliver);
            self.repaired.insert(self.me);
            self.maybe_fill_holes(&mut out);
            let stashed = std::mem::take(&mut self.stashed_repairs);
            for (site, repair_epoch, entries, delivered) in stashed {
                self.on_repair(site, repair_epoch, entries, delivered, &mut out);
            }
        } else {
            let entries: Vec<(u64, MsgId)> = self.log_from(0).collect();
            out.outbound.push(Outbound::to(
                self.coordinator(),
                RingWire::Repair {
                    site: self.me,
                    epoch,
                    entries,
                    delivered: self.next_gseq_deliver,
                },
            ));
        }
        self.drain(&mut out);
        out
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

    /// Raises the stability floor for `origin` and prunes newly stable,
    /// already delivered payloads.
    fn raise_stable(&mut self, origin: SiteId, floor: u64) {
        if origin != self.me && floor > self.stable[origin.0] {
            self.stable[origin.0] = floor;
            self.prune_origin(origin);
        }
    }

    /// Drops delivered payloads of `origin` at or below its stability
    /// floor.
    fn prune_origin(&mut self, origin: SiteId) {
        let floor = self.stable_floor(origin);
        let held = &mut self.store[origin.0];
        while held.front().is_some_and(|h| h.delivered && h.seq <= floor) {
            held.pop_front();
        }
        // An undelivered payload at or below the floor stays, and the
        // delivered ones behind it still go.
        if held.front().is_some_and(|h| h.seq <= floor) {
            held.retain(|h| !h.delivered || h.seq > floor);
        }
    }

    /// Retains `payload`, which is not held yet, as undelivered.
    fn hold(&mut self, id: MsgId, payload: P) {
        let held = &mut self.store[id.origin.0];
        let at = slot_of(held, id.seq).expect_err("a payload is held once");
        let h = Held {
            seq: id.seq,
            payload,
            delivered: false,
        };
        held.insert(at, h);
    }

    /// The id assigned `gseq`, if known here.
    fn ordered_at(&self, gseq: u64) -> Option<MsgId> {
        self.ordered.get(gseq as usize).copied().flatten()
    }

    /// True iff `id` has been assigned a gseq.
    fn is_ordered(&self, id: MsgId) -> bool {
        self.ordered_ids[id.origin.0].contains(id.seq)
    }

    /// Logs `id` at `gseq`.
    fn record(&mut self, gseq: u64, id: MsgId) {
        let at = gseq as usize;
        if at >= self.ordered.len() {
            self.ordered.resize(at + 1, None);
        }
        if self.ordered[at].replace(id).is_none() {
            self.ordered_count += 1;
        }
        if id != SKIP_ID {
            self.ordered_ids[id.origin.0].insert(id.seq);
        }
    }

    /// The assignment log from `gseq` on, ascending.
    fn log_from(&self, gseq: u64) -> impl Iterator<Item = (u64, MsgId)> + '_ {
        let entries = self.ordered.iter().enumerate().skip(gseq as usize);
        entries.filter_map(|(gseq, id)| Some((gseq as u64, (*id)?)))
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
        self.hold(id, payload.clone());
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
            // Solo ring: there is no tail to ack us.
            self.acked_seq = id.seq;
        }
        if self.me == self.coordinator() {
            self.assign(id, out);
        }
    }

    /// Coordinator: assigns the next global sequence number to `id` and
    /// starts the commit circulating. No-op if `id` is already ordered.
    fn assign(&mut self, id: MsgId, out: &mut Output<P, RingWire<P>>) {
        if self.is_ordered(id) {
            return;
        }
        let gseq = self.next_gseq_assign;
        self.next_gseq_assign += 1;
        self.record(gseq, id);
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

    /// Delivers every ordered message whose payload has arrived, in gseq
    /// order.
    fn drain(&mut self, out: &mut Output<P, RingWire<P>>) {
        while let Some(id) = self.ordered_at(self.next_gseq_deliver) {
            if id == SKIP_ID {
                self.next_gseq_deliver += 1;
                continue;
            }
            let floor = self.stable_floor(id.origin);
            let held = &mut self.store[id.origin.0];
            let Ok(at) = slot_of(held, id.seq) else {
                break;
            };
            let h = &mut held[at];
            debug_assert!(!h.delivered, "message {id} delivered twice");
            h.delivered = true;
            out.deliveries.push(TotalDelivery {
                gseq: self.next_gseq_deliver,
                id,
                payload: h.payload.clone(),
            });
            self.next_gseq_deliver += 1;
            if id.seq <= floor {
                held.remove(at);
            }
        }
    }

    /// Handles a payload dissemination hop.
    fn on_data(&mut self, id: MsgId, payload: P, stable: u64, out: &mut Output<P, RingWire<P>>) {
        let origin = id.origin;
        self.raise_stable(origin, stable);
        if origin == self.me
            || id.seq <= self.stable_floor(origin)
            || slot_of(&self.store[origin.0], id.seq).is_ok()
        {
            // Echo or duplicate: already held (or stable everywhere).
            // Never re-forwarded, which bounds circulation. A duplicate
            // reaching the ring tail does refresh the cumulative ack,
            // though — if the original Ack was lost, the origin's pipeline
            // window would otherwise stay clogged forever.
            if origin != self.me && self.successor() == origin {
                if let Some(contig) = &self.received[origin.0] {
                    out.outbound.push(Outbound::to(
                        origin,
                        RingWire::Ack {
                            upto: contig.watermark(),
                        },
                    ));
                }
            }
            return;
        }
        self.hold(id, payload.clone());
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
        let contig = self.received[origin.0].get_or_insert_with(Contig::default);
        let before = contig.watermark();
        contig.insert(id.seq);
        let upto = contig.watermark();
        let advanced = upto > before;
        if advanced && succ == origin {
            // We are the last site on this origin's ring path: cumulative
            // ack releases its pipeline window.
            out.outbound
                .push(Outbound::to(origin, RingWire::Ack { upto }));
        }
        if self.me == self.coordinator() {
            self.assign(id, out);
        }
        self.drain(out);
    }

    /// Handles an ordering record.
    fn on_commit(&mut self, epoch: u64, gseq: u64, id: MsgId, out: &mut Output<P, RingWire<P>>) {
        if epoch != self.epoch {
            // A replaced coordinator's commits must not interleave with the
            // current one's; lagging sites are healed by the Repair
            // re-announce once they install the view.
            return;
        }
        let known = self.ordered_at(gseq);
        if gseq < self.next_gseq_deliver || known.is_some() {
            debug_assert!(
                known.is_none_or(|known| known == id),
                "conflicting assignment at gseq {gseq}"
            );
            return;
        }
        self.record(gseq, id);
        self.next_gseq_assign = self.next_gseq_assign.max(gseq + 1);
        let succ = self.successor();
        if succ != self.coordinator() && succ != self.me {
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
            self.prune_origin(self.me);
            self.pump_pending(out);
            self.drain(out);
        }
    }

    /// Coordinator: merges a member's view-change report, re-announces
    /// commits it missed, and once every member has reported, fills
    /// unrecoverable holes and re-orders stranded payloads.
    fn on_repair(
        &mut self,
        site: SiteId,
        epoch: u64,
        entries: Vec<(u64, MsgId)>,
        delivered: u64,
        out: &mut Output<P, RingWire<P>>,
    ) {
        if epoch > self.epoch {
            // The reporter installed the next view before we did; replay
            // once our own set_ring catches up.
            self.stashed_repairs.push((site, epoch, entries, delivered));
            return;
        }
        if epoch < self.epoch || self.me != self.coordinator() {
            return;
        }
        for (gseq, id) in entries {
            if let Some(known) = self.ordered_at(gseq) {
                debug_assert_eq!(known, id, "conflicting assignment at gseq {gseq}");
            } else {
                self.record(gseq, id);
            }
            self.next_gseq_assign = self.next_gseq_assign.max(gseq + 1);
        }
        self.next_gseq_assign = self.next_gseq_assign.max(delivered);
        // Re-announce everything the reporter may have missed.
        for (gseq, id) in self.log_from(delivered) {
            out.outbound.push(Outbound::to(
                site,
                RingWire::Commit {
                    epoch: self.epoch,
                    gseq,
                    id,
                },
            ));
        }
        self.repaired.insert(site);
        self.maybe_fill_holes(out);
        self.drain(out);
    }

    /// Coordinator: once every current member has reported, fills
    /// assignment holes nobody can resolve with [`SKIP_ID`] markers (safe:
    /// a gseq unknown to every survivor was delivered by no survivor) and
    /// assigns fresh gseqs to payloads stranded without an ordering by the
    /// old coordinator's crash.
    fn maybe_fill_holes(&mut self, out: &mut Output<P, RingWire<P>>) {
        if !self.ring.iter().all(|s| self.repaired.contains(s)) {
            return;
        }
        let succ = self.successor();
        for gseq in self.next_gseq_deliver..self.next_gseq_assign {
            if self.ordered_at(gseq).is_some() {
                continue;
            }
            self.record(gseq, SKIP_ID);
            if succ != self.me {
                out.outbound.push(Outbound::to(
                    succ,
                    RingWire::Commit {
                        epoch: self.epoch,
                        gseq,
                        id: SKIP_ID,
                    },
                ));
            }
        }
        let stranded: Vec<MsgId> = (self.store.iter().enumerate())
            .flat_map(|(origin, held)| {
                let origin = SiteId(origin);
                held.iter().map(move |h| MsgId { origin, seq: h.seq })
            })
            .filter(|&id| !self.is_ordered(id))
            .collect();
        for id in stranded {
            self.assign(id, out);
        }
    }
}

impl<P: Clone> AtomicBcast<P> for RingAbcast<P> {
    type Wire = RingWire<P>;

    fn broadcast(&mut self, payload: P) -> (MsgId, Output<P, RingWire<P>>) {
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
            RingWire::Repair {
                site,
                epoch,
                entries,
                delivered,
            } => self.on_repair(site, epoch, entries, delivered, &mut out),
        }
        out
    }

    fn delivered_count(&self) -> u64 {
        self.next_gseq_deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let out = self.engines[i].set_ring(&members, epoch);
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
        fleet.engines[1] = RingAbcast::new(SiteId(1), 3).with_window(2);
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
        assert_eq!(fleet.engines[1].retained_payloads(), 1);
        // The next broadcast piggybacks stable=1, pruning the first.
        fleet.broadcast(0, 2);
        fleet.settle();
        for site in [1, 2] {
            assert_eq!(
                fleet.engines[site].retained_payloads(),
                1,
                "site {site} should have pruned the stable payload"
            );
        }
        // The origin prunes everything acked and delivered.
        assert_eq!(fleet.engines[0].retained_payloads(), 0);
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
        let out = engine.set_ring(&members, 1);
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
        assert_eq!(engine.delivered_watermark(), 0);
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
        let watermark = fleet.engines[0].delivered_watermark();
        let floors = fleet.engines[0].seq_floors();
        assert_eq!(watermark, 5);
        let mut recovered: RingAbcast<u64> = RingAbcast::new(SiteId(2), 3);
        recovered.resume_from(watermark, &floors);
        assert_eq!(recovered.delivered_watermark(), 5);
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
        let repair: RingWire<Blob> = RingWire::Repair {
            site: SiteId(0),
            epoch: 1,
            entries: vec![(0, id), (1, id)],
            delivered: 0,
        };
        assert_eq!(repair.wire_size(), 24 + 48);
    }
}

/// The engine as it was before its tables were indexed — payloads in one
/// `BTreeMap` keyed by id, the assignment log a `BTreeMap` keyed by gseq,
/// the ordered ids a `HashSet`, receipt and stability floors `BTreeMap`s
/// keyed by site — kept as the reference the indexed engine is held to,
/// the way `lock.rs` and `sg.rs` keep theirs.
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    #[derive(Debug)]
    struct Held<P> {
        payload: P,
        delivered: bool,
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
        received: BTreeMap<SiteId, Contig>,
        stable: BTreeMap<SiteId, u64>,
        next_gseq_assign: u64,
        repaired: BTreeSet<SiteId>,
        stashed_repairs: Vec<StashedRepair>,
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
                repaired: BTreeSet::new(),
                stashed_repairs: Vec::new(),
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
                .map(|(&site, contig)| (site, contig.max_seen()))
                .collect();
            floors.push((self.me, self.next_seq));
            floors.sort_unstable();
            floors
        }

        pub(super) fn resume_from(&mut self, watermark: u64, floors: &[(SiteId, u64)]) {
            self.ordered.clear();
            self.ordered_ids.clear();
            self.store.clear();
            self.pending_local.clear();
            self.received.clear();
            self.stable.clear();
            self.repaired.clear();
            self.stashed_repairs.clear();
            self.next_gseq_deliver = self.next_gseq_deliver.max(watermark);
            self.next_gseq_assign = self.next_gseq_assign.max(watermark);
            for &(site, seq) in floors {
                if site == self.me {
                    self.next_seq = self.next_seq.max(seq);
                    self.sent_seq = self.sent_seq.max(seq);
                    self.acked_seq = self.acked_seq.max(seq);
                } else {
                    self.received.entry(site).or_default().raise(seq);
                }
            }
        }

        pub(super) fn set_ring(
            &mut self,
            members: &[SiteId],
            epoch: u64,
        ) -> Output<P, RingWire<P>> {
            let mut ring: Vec<SiteId> = members.to_vec();
            ring.sort_unstable();
            ring.dedup();
            self.ring = ring;
            self.epoch = epoch;
            self.repaired.clear();
            let mut out = Output::empty();
            let succ = self.successor();
            if succ != self.me {
                let offers: Vec<(MsgId, P, u64)> = self
                    .store
                    .iter()
                    .filter(|(id, _)| id.origin != succ)
                    .map(|(&id, held)| (id, held.payload.clone(), self.stable_floor(id.origin)))
                    .collect();
                for (id, payload, stable) in offers {
                    out.outbound.push(Outbound::to(
                        succ,
                        RingWire::Data {
                            id,
                            payload,
                            stable,
                        },
                    ));
                    self.forwarded_total += 1;
                }
                let upto = self.received.get(&succ).map_or(0, Contig::watermark);
                out.outbound
                    .push(Outbound::to(succ, RingWire::Ack { upto }));
            } else {
                self.acked_seq = self.sent_seq;
                self.pump_pending(&mut out);
            }
            if self.me == self.coordinator() {
                if let Some((&max_gseq, _)) = self.ordered.iter().next_back() {
                    self.next_gseq_assign = self.next_gseq_assign.max(max_gseq + 1);
                }
                self.next_gseq_assign = self.next_gseq_assign.max(self.next_gseq_deliver);
                self.repaired.insert(self.me);
                self.maybe_fill_holes(&mut out);
                let stashed = std::mem::take(&mut self.stashed_repairs);
                for (site, repair_epoch, entries, delivered) in stashed {
                    self.on_repair(site, repair_epoch, entries, delivered, &mut out);
                }
            } else {
                let entries: Vec<(u64, MsgId)> =
                    self.ordered.iter().map(|(&gseq, &id)| (gseq, id)).collect();
                out.outbound.push(Outbound::to(
                    self.coordinator(),
                    RingWire::Repair {
                        site: self.me,
                        epoch,
                        entries,
                        delivered: self.next_gseq_deliver,
                    },
                ));
            }
            self.drain(&mut out);
            out
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
                    if let Some(contig) = self.received.get(&origin) {
                        out.outbound.push(Outbound::to(
                            origin,
                            RingWire::Ack {
                                upto: contig.watermark(),
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
            let contig = self.received.entry(origin).or_default();
            let before = contig.watermark();
            contig.insert(id.seq);
            let upto = contig.watermark();
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

        fn on_repair(
            &mut self,
            site: SiteId,
            epoch: u64,
            entries: Vec<(u64, MsgId)>,
            delivered: u64,
            out: &mut Output<P, RingWire<P>>,
        ) {
            if epoch > self.epoch {
                self.stashed_repairs.push((site, epoch, entries, delivered));
                return;
            }
            if epoch < self.epoch || self.me != self.coordinator() {
                return;
            }
            for (gseq, id) in entries {
                if let Some(&known) = self.ordered.get(&gseq) {
                    debug_assert_eq!(known, id, "oracle: conflicting assignment at gseq {gseq}");
                } else {
                    self.ordered.insert(gseq, id);
                    if id != SKIP_ID {
                        self.ordered_ids.insert(id);
                    }
                }
                self.next_gseq_assign = self.next_gseq_assign.max(gseq + 1);
            }
            self.next_gseq_assign = self.next_gseq_assign.max(delivered);
            for (&gseq, &id) in self.ordered.range(delivered..) {
                out.outbound.push(Outbound::to(
                    site,
                    RingWire::Commit {
                        epoch: self.epoch,
                        gseq,
                        id,
                    },
                ));
            }
            self.repaired.insert(site);
            self.maybe_fill_holes(out);
            self.drain(out);
        }

        fn maybe_fill_holes(&mut self, out: &mut Output<P, RingWire<P>>) {
            if !self.ring.iter().all(|s| self.repaired.contains(s)) {
                return;
            }
            let holes: Vec<u64> = (self.next_gseq_deliver..self.next_gseq_assign)
                .filter(|gseq| !self.ordered.contains_key(gseq))
                .collect();
            let succ = self.successor();
            for gseq in holes {
                self.ordered.insert(gseq, SKIP_ID);
                if succ != self.me {
                    out.outbound.push(Outbound::to(
                        succ,
                        RingWire::Commit {
                            epoch: self.epoch,
                            gseq,
                            id: SKIP_ID,
                        },
                    ));
                }
            }
            let stranded: Vec<MsgId> = self
                .store
                .keys()
                .copied()
                .filter(|id| !self.ordered_ids.contains(id))
                .collect();
            for id in stranded {
                self.assign(id, out);
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
                RingWire::Repair {
                    site,
                    epoch,
                    entries,
                    delivered,
                } => self.on_repair(site, epoch, entries, delivered, &mut out),
            }
            out
        }
    }

    /// One step of a lock-step schedule; each `usize` picks among what is
    /// possible at that point (live sites, busy links, crashed sites).
    #[derive(Debug, Clone)]
    enum Step {
        Broadcast(usize),
        /// Delivers the oldest message on a link (per-link FIFO).
        Deliver(usize),
        /// Delivers a copy of a link's oldest `Data` or `Commit`, leaving
        /// it queued.
        Duplicate(usize),
        /// Crashes a live site (dropping its links), then installs the
        /// survivors' ring at every survivor and settles.
        Crash(usize),
        /// Resumes a crashed site from a live donor's watermark and
        /// floors, then installs the ring with it back in and settles.
        Rejoin(usize),
    }

    /// Mostly deliveries; a crash or a rejoin in about one step of
    /// fourteen.
    fn step() -> impl Strategy<Value = Step> {
        let pick = || 0usize..64;
        let membership = (pick(), 0u8..3).prop_map(|(p, kind)| match kind {
            0 => Step::Crash(p),
            1 => Step::Rejoin(p),
            _ => Step::Deliver(p),
        });
        prop_oneof![
            pick().prop_map(Step::Broadcast),
            pick().prop_map(Step::Broadcast),
            pick().prop_map(Step::Deliver),
            pick().prop_map(Step::Deliver),
            pick().prop_map(Step::Deliver),
            pick().prop_map(Step::Deliver),
            pick().prop_map(Step::Deliver),
            pick().prop_map(Step::Duplicate),
            membership,
        ]
    }

    /// How often a schedule reached each path worth reaching.
    #[derive(Debug, Default)]
    struct Reached {
        deliveries: usize,
        /// Broadcasts queued behind a full window.
        held_back: usize,
        duplicates: usize,
        crashes: usize,
        rejoins: usize,
        repairs: usize,
        skips: usize,
    }

    /// Both engines at every site, fed the same inputs.
    struct Lockstep {
        window: u64,
        reached: Reached,
        new: Vec<RingAbcast<u64>>,
        old: Vec<Oracle<u64>>,
        links: BTreeMap<(usize, usize), VecDeque<RingWire<u64>>>,
        crashed: Vec<bool>,
        /// Sites that have been resumed from a donor.
        rejoined: Vec<bool>,
        epoch: u64,
        next_payload: u64,
    }

    impl Lockstep {
        fn new(n: usize, window: u64) -> Self {
            Lockstep {
                window,
                reached: Reached::default(),
                new: (0..n)
                    .map(|i| RingAbcast::new(SiteId(i), n).with_window(window))
                    .collect(),
                old: (0..n)
                    .map(|i| Oracle::new(SiteId(i), n).with_window(window))
                    .collect(),
                links: BTreeMap::new(),
                crashed: vec![false; n],
                rejoined: vec![false; n],
                epoch: 0,
                next_payload: 0,
            }
        }

        fn sites(&self, crashed: bool) -> Vec<usize> {
            (0..self.new.len())
                .filter(|&s| self.crashed[s] == crashed)
                .collect()
        }

        /// Checks both engines said the same, then queues what they sent.
        fn absorb(
            &mut self,
            site: usize,
            new: Output<u64, RingWire<u64>>,
            old: Output<u64, RingWire<u64>>,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(&new, &old, "site {} output", site);
            self.reached.deliveries += new.deliveries.len();
            for ob in new.outbound {
                for to in crate::msg::expand_dest(ob.dest, SiteId(site), self.new.len()) {
                    if !self.crashed[to.0] {
                        let link = self.links.entry((site, to.0)).or_default();
                        link.push_back(ob.wire.clone());
                    }
                }
            }
            Ok(())
        }

        fn compare(&self) -> Result<(), TestCaseError> {
            for (s, (new, old)) in self.new.iter().zip(&self.old).enumerate() {
                prop_assert_eq!(
                    new.ordered_len(),
                    old.ordered_len(),
                    "site {} ordered_len",
                    s
                );
                let retained = (new.retained_payloads(), old.retained_payloads());
                prop_assert_eq!(retained.0, retained.1, "site {} retained", s);
                prop_assert_eq!(new.inflight(), old.inflight(), "site {} inflight", s);
                let watermarks = (new.delivered_watermark(), old.delivered_watermark());
                prop_assert_eq!(watermarks.0, watermarks.1, "site {} watermark", s);
                prop_assert_eq!(new.seq_floors(), old.seq_floors(), "site {} floors", s);
                let forwarded = (new.forwarded_count(), old.forwarded_count());
                prop_assert_eq!(forwarded.0, forwarded.1, "site {} forwarded", s);
            }
            Ok(())
        }

        fn deliver(&mut self, (from, to): (usize, usize), wire: RingWire<u64>) -> TestResult {
            match wire {
                RingWire::Repair { .. } => self.reached.repairs += 1,
                RingWire::Commit { id, .. } if id == SKIP_ID => self.reached.skips += 1,
                _ => {}
            }
            let old = self.old[to].on_wire(wire.clone());
            let new = self.new[to].on_wire(SiteId(from), wire);
            self.absorb(to, new, old)
        }

        /// Installs the live sites' ring at each of them, in site order,
        /// and runs the repair round to the end: a coordinator assigns
        /// fresh gseqs before every report is in, so a broadcast in the
        /// middle of the round can take a gseq that only a reporter knows
        /// is used, in both engines (a repair gap they share).
        fn view_change(&mut self) -> TestResult {
            self.epoch += 1;
            let live = self.sites(false);
            let members: Vec<SiteId> = live.iter().map(|&s| SiteId(s)).collect();
            for s in live {
                let new = self.new[s].set_ring(&members, self.epoch);
                let old = self.old[s].set_ring(&members, self.epoch);
                self.absorb(s, new, old)?;
            }
            self.settle()
        }

        fn run(&mut self, step: &Step) -> TestResult {
            let busy: Vec<(usize, usize)> = (self.links.iter())
                .filter(|(_, q)| !q.is_empty())
                .map(|(&link, _)| link)
                .collect();
            match *step {
                Step::Broadcast(pick) => {
                    let live = self.sites(false);
                    let site = live[pick % live.len()];
                    self.next_payload += 1;
                    let (id, new) = self.new[site].broadcast(self.next_payload);
                    let (old_id, old) = self.old[site].broadcast(self.next_payload);
                    prop_assert_eq!(id, old_id);
                    self.reached.held_back += usize::from(self.new[site].inflight() > self.window);
                    self.absorb(site, new, old)?;
                }
                Step::Deliver(pick) if !busy.is_empty() => {
                    self.deliver_front(busy[pick % busy.len()])?;
                }
                Step::Duplicate(pick) => {
                    let repeatable: Vec<(usize, usize)> = (busy.into_iter())
                        .filter(|link| {
                            let front = self.links[link].front();
                            matches!(front, Some(RingWire::Data { .. } | RingWire::Commit { .. }))
                        })
                        .collect();
                    if !repeatable.is_empty() {
                        let link = repeatable[pick % repeatable.len()];
                        let wire = self.links[&link].front().cloned();
                        self.reached.duplicates += 1;
                        self.deliver(link, wire.expect("busy link"))?;
                    }
                }
                Step::Crash(pick) => {
                    // Never hands the ring to a rejoined site: resuming
                    // forgets which payloads are ordered, so as coordinator
                    // it orders the repair's re-offers of delivered ones
                    // again, in both engines (a rejoin gap they share).
                    let live = self.sites(false);
                    let site = live[pick % live.len()];
                    let next = live.iter().find(|&&s| s != site);
                    if next.is_some_and(|&next| !self.rejoined[next]) {
                        self.crashed[site] = true;
                        self.reached.crashes += 1;
                        self.links
                            .retain(|&(from, to), _| from != site && to != site);
                        self.view_change()?;
                    }
                }
                Step::Rejoin(pick) => {
                    // Only above the coordinator, for the same reason.
                    let live = self.sites(false);
                    let down: Vec<usize> = (self.sites(true).into_iter())
                        .filter(|&s| s > live[0])
                        .collect();
                    if !down.is_empty() {
                        let site = down[pick % down.len()];
                        let donor = live[pick % live.len()];
                        let watermark = self.new[donor].delivered_watermark();
                        let floors = self.new[donor].seq_floors();
                        self.new[site].resume_from(watermark, &floors);
                        self.old[site].resume_from(watermark, &floors);
                        self.crashed[site] = false;
                        self.rejoined[site] = true;
                        self.reached.rejoins += 1;
                        self.view_change()?;
                    }
                }
                Step::Deliver(_) => {}
            }
            self.compare()
        }

        /// Delivers the oldest message on `link`.
        fn deliver_front(&mut self, link: (usize, usize)) -> TestResult {
            let wire = self.links.get_mut(&link).and_then(VecDeque::pop_front);
            self.deliver(link, wire.expect("busy link"))
        }

        /// Delivers everything still queued, lowest link first.
        fn settle(&mut self) -> TestResult {
            while let Some((&link, _)) = self.links.iter().find(|(_, q)| !q.is_empty()) {
                self.deliver_front(link)?;
                self.compare()?;
            }
            Ok(())
        }

        /// Installs the full ring for `epoch` at site `s` only.
        fn set_ring_at(&mut self, s: usize, epoch: u64) -> TestResult {
            let members: Vec<SiteId> = (0..self.new.len()).map(SiteId).collect();
            let new = self.new[s].set_ring(&members, epoch);
            let old = self.old[s].set_ring(&members, epoch);
            self.absorb(s, new, old)
        }
    }

    type TestResult = Result<(), TestCaseError>;

    fn lockstep(n: usize, window: u64, steps: &[Step]) -> Result<Reached, TestCaseError> {
        let mut fleet = Lockstep::new(n, window);
        for step in steps {
            fleet.run(step)?;
        }
        fleet.settle()?;
        Ok(fleet.reached)
    }

    /// The cases `indexed_engine_agrees_with_the_oracle` generates reach
    /// deliveries, broadcasts held back by the window, duplicates,
    /// crashes, rejoins and repair reports; none fills a hole.
    #[test]
    fn generated_schedules_reach_every_path() {
        let mut total = Reached::default();
        for case in 0..256 {
            let mut rng = proptest::TestRng::for_case(case);
            let strategy = (
                2usize..=5,
                1u64..=3,
                proptest::collection::vec(step(), 0..160),
            );
            let (n, window, steps) = strategy.sample(&mut rng);
            let r = lockstep(n, window, &steps).expect("agrees with the oracle");
            total.deliveries += r.deliveries;
            total.held_back += r.held_back;
            total.duplicates += r.duplicates;
            total.crashes += r.crashes;
            total.rejoins += r.rejoins;
            total.repairs += r.repairs;
            total.skips += r.skips;
        }
        let Reached {
            deliveries,
            held_back,
            duplicates,
            crashes,
            rejoins,
            repairs,
            skips,
        } = total;
        let all = [deliveries, held_back, duplicates, crashes, rejoins, repairs];
        assert!(all.iter().all(|&count| count > 0), "{total:?}");
        assert_eq!(skips, 0, "holes need the schedule below: {total:?}");
    }

    /// "No receipt yet" is not "received up to 0": a payload that is
    /// already stable when it first reaches its ring tail is acked only if
    /// the tail holds a receipt tracker for its origin (here seeded by a
    /// donor's floor of 0), and the tracker shows in the tail's floors.
    #[test]
    fn a_tail_acks_a_stable_payload_only_with_a_receipt_tracker() {
        let id = MsgId {
            origin: SiteId(1),
            seq: 1,
        };
        let wire = RingWire::Data {
            id,
            payload: 7u64,
            stable: 1,
        };
        for floors in [vec![], vec![(SiteId(1), 0)]] {
            let mut new = RingAbcast::new(SiteId(0), 2);
            let mut old = Oracle::new(SiteId(0), 2);
            new.resume_from(0, &floors);
            old.resume_from(0, &floors);
            assert_eq!(new.seq_floors(), old.seq_floors());
            let out = new.on_wire(SiteId(1), wire.clone());
            assert_eq!(out, old.on_wire(wire.clone()));
            assert_eq!(out.outbound.len(), floors.len(), "acked iff tracked");
        }
    }

    /// The hole-filling path, which the generated schedules never reach
    /// (a hole needs a coordinator crash in the middle of a repair
    /// round). Site 1 installs epoch 1 first and drops the coordinator's
    /// epoch-0 commit of X at gseq 0, then hears the epoch-1 commit of Y
    /// at gseq 1; the coordinator crashes before re-announcing gseq 0, so
    /// the next coordinator fills it with a skip and orders the stranded X
    /// again — in both engines alike.
    #[test]
    fn a_dropped_commit_becomes_a_skip_in_both_engines() {
        let mut fleet = Lockstep::new(4, DEFAULT_WINDOW);
        fleet.run(&Step::Broadcast(1)).expect("X from site 1");
        for link in [(1, 2), (2, 3), (3, 0)] {
            fleet.deliver_front(link).expect("X around the ring");
        }
        fleet.set_ring_at(1, 1).expect("site 1 moves first");
        fleet.deliver_front((0, 1)).expect("stale commit of X");
        for s in [0, 2, 3] {
            fleet.set_ring_at(s, 1).expect("the rest follow");
        }
        fleet.run(&Step::Broadcast(2)).expect("Y from site 2");
        for link in [(2, 3), (3, 0), (0, 1)] {
            while fleet.links.get(&link).is_some_and(|q| !q.is_empty()) {
                fleet.deliver_front(link).expect("Y ordered, commit to 1");
            }
        }
        fleet.epoch = 1; // the crash installs epoch 2
        fleet.run(&Step::Crash(0)).expect("coordinator crashes");
        assert_eq!(fleet.reached.skips, 2, "one skip commit, two hops");
        let logs: Vec<u64> = (1..4).map(|s| fleet.new[s].delivered_watermark()).collect();
        assert_eq!(
            logs,
            vec![3, 3, 3],
            "skip, Y and X again delivered everywhere"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Broadcasts from random sites, per-link FIFO deliveries in random
        /// interleavings, duplicated `Data`/`Commit`, crashes with ring
        /// repair and rejoins from a donor snapshot: the indexed engine
        /// sends, delivers and reports exactly what the oracle does after
        /// every step.
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
        /// `cargo test --release -p bcastdb-broadcast indexed_engine -- --ignored`).
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
