//! The ordering core under both coordinator-based total-order broadcasts
//! (DESIGN.md §16): the view, the held payloads, the gseq-indexed log with
//! its [`SKIP_ID`] hole fills, the per-origin ordered-id trackers, the
//! assign and deliver counters, and the repair round of a view change,
//! which assigns nothing until every member of the new view has reported
//! its log, as a Ring Paxos coordinator first hears from every acceptor
//! \[MPSP10\]. [`SequencerAbcast`](crate::atomic::SequencerAbcast) and
//! [`RingAbcast`](crate::ring::RingAbcast) differ only in how payloads and
//! assignments travel.

use crate::atomic::{Output, TotalDelivery};
use crate::msg::{Dest, MsgId, Outbound, SeqWindow};
use bcastdb_sim::SiteId;
use std::collections::{BTreeMap, VecDeque};

/// Sentinel id of a filled hole: the gseq is consumed, nothing delivered.
pub const SKIP_ID: MsgId = MsgId {
    origin: SiteId(usize::MAX),
    seq: 0,
};

/// A member's view-change report to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Reporting site (transports may not preserve the sender).
    pub site: SiteId,
    /// View epoch this report belongs to.
    pub epoch: u64,
    /// The reporter's whole `(gseq, id)` log.
    pub entries: Vec<(u64, MsgId)>,
    /// The reporter's delivery watermark (next gseq to deliver).
    pub delivered: u64,
}

/// A state-transfer snapshot: the donor's view, watermark, ordered ids and
/// undelivered log, so a rejoiner knows what is delivered.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    members: Vec<SiteId>,
    /// The next gseq the donor would deliver.
    pub(crate) watermark: u64,
    ordered: Vec<SeqWindow<()>>,
    pending: Vec<(u64, MsgId)>,
    /// Per origin, the highest sequence number the donor knows of: a
    /// rejoiner's fresh ids start past its own.
    floors: Vec<u64>,
}

/// A held payload, in its origin's table ascending by `seq`.
#[derive(Debug)]
pub(crate) struct Held<P> {
    pub(crate) seq: u64,
    pub(crate) payload: P,
    pub(crate) delivered: bool,
}

/// Where `seq` sits in one origin's held payloads: `Ok` if held, else the
/// index that keeps the order (almost always the back: links are FIFO).
fn slot_of<P>(held: &VecDeque<Held<P>>, seq: u64) -> Result<usize, usize> {
    match held.back() {
        Some(last) if last.seq >= seq => held.binary_search_by_key(&seq, |h| h.seq),
        _ => Err(held.len()),
    }
}

/// A front end's wire for the core's assignments: the record that `gseq`
/// holds `id` in view `epoch`, carrying the payload when it is given.
pub(crate) trait OrderWire<P> {
    fn order(epoch: u64, gseq: u64, id: MsgId, payload: Option<&P>) -> Self;
}

/// Where a fresh assignment goes (`None`: nowhere, a solo ring).
pub(crate) type Fresh = Option<Dest>;

/// The ordering state of one site.
#[derive(Debug)]
pub(crate) struct Order<P> {
    pub(crate) me: SiteId,
    /// This site's last own sequence number handed out.
    pub(crate) next_seq: u64,
    /// Current members, ascending; `members[0]` is the coordinator.
    pub(crate) members: Vec<SiteId>,
    pub(crate) epoch: u64,
    /// Held payloads, one table per origin.
    pub(crate) store: Vec<VecDeque<Held<P>>>,
    /// The log indexed by gseq (`None`: not known here); never ends in
    /// `None`. `logged` counts its entries.
    log: Vec<Option<MsgId>>,
    pub(crate) logged: usize,
    /// Per-origin sequence numbers with an assigned gseq.
    ordered: Vec<SeqWindow<()>>,
    next_assign: u64,
    pub(crate) next_deliver: u64,
    /// Coordinator, while a round is open: each reporter's watermark.
    round: Option<BTreeMap<SiteId, u64>>,
    /// Reports that arrived before their view was installed here.
    stashed: Vec<Report>,
}

impl<P: Clone> Order<P> {
    pub(crate) fn new(me: SiteId, n: usize) -> Self {
        assert!(me.0 < n, "site {me} out of range for {n} sites");
        Order {
            me,
            next_seq: 0,
            members: (0..n).map(SiteId).collect(),
            epoch: 0,
            store: (0..n).map(|_| VecDeque::new()).collect(),
            log: Vec::new(),
            logged: 0,
            ordered: vec![SeqWindow::default(); n],
            next_assign: 0,
            next_deliver: 0,
            round: None,
            stashed: Vec::new(),
        }
    }

    /// The id of this site's next broadcast.
    pub(crate) fn next_id(&mut self) -> MsgId {
        self.next_seq += 1;
        let (origin, seq) = (self.me, self.next_seq);
        MsgId { origin, seq }
    }

    pub(crate) fn coordinator(&self) -> SiteId {
        self.members[0]
    }

    pub(crate) fn is_coordinator(&self) -> bool {
        self.me == self.coordinator()
    }

    /// Ordered ids held individually, above a gap in their origin's.
    pub(crate) fn dedup_live(&self) -> usize {
        self.ordered.iter().map(SeqWindow::held).sum()
    }

    /// The id assigned `gseq`, if known here.
    pub(crate) fn ordered_at(&self, gseq: u64) -> Option<MsgId> {
        self.log.get(gseq as usize).copied().flatten()
    }

    fn is_ordered(&self, id: MsgId) -> bool {
        self.ordered[id.origin.0].contains(id.seq)
    }

    /// Whether `id`'s payload is neither held nor delivered here.
    pub(crate) fn is_new(&self, id: MsgId) -> bool {
        let pending = || self.log_from(self.next_deliver).any(|(_, at)| at == id);
        !self.holds(id) && (!self.is_ordered(id) || pending())
    }

    pub(crate) fn holds(&self, id: MsgId) -> bool {
        slot_of(&self.store[id.origin.0], id.seq).is_ok()
    }

    fn payload_of(&self, id: MsgId) -> Option<&P> {
        let held = self.store.get(id.origin.0)?;
        slot_of(held, id.seq).ok().map(|at| &held[at].payload)
    }

    /// Holds `payload`, which is not held yet, as undelivered.
    pub(crate) fn hold(&mut self, id: MsgId, payload: P) {
        let held = &mut self.store[id.origin.0];
        let at = slot_of(held, id.seq).expect_err("a payload is held once");
        let (seq, delivered) = (id.seq, false);
        held.insert(
            at,
            Held {
                seq,
                payload,
                delivered,
            },
        );
    }

    /// Drops `origin`'s delivered payloads at or below `floor`.
    pub(crate) fn prune(&mut self, origin: SiteId, floor: u64) {
        let held = &mut self.store[origin.0];
        while held.front().is_some_and(|h| h.delivered && h.seq <= floor) {
            held.pop_front();
        }
        if held.front().is_some_and(|h| h.seq <= floor) {
            held.retain(|h| !h.delivered || h.seq > floor);
        }
    }

    fn record(&mut self, gseq: u64, id: MsgId) {
        let at = gseq as usize;
        if at >= self.log.len() {
            self.log.resize(at + 1, None);
        }
        self.logged += usize::from(self.log[at].replace(id).is_none());
        if id != SKIP_ID {
            self.ordered[id.origin.0].insert(id.seq);
        }
    }

    /// The log from `gseq` on, ascending.
    fn log_from(&self, gseq: u64) -> impl Iterator<Item = (u64, MsgId)> + '_ {
        let entries = self.log.iter().enumerate().skip(gseq as usize);
        entries.filter_map(|(gseq, id)| Some((gseq as u64, (*id)?)))
    }

    /// Records an assignment heard from the coordinator; false when it was
    /// already known or delivered.
    pub(crate) fn learn(&mut self, gseq: u64, id: MsgId) -> bool {
        let known = self.ordered_at(gseq);
        if gseq < self.next_deliver || known.is_some() {
            debug_assert!(
                known.is_none_or(|k| k == id),
                "conflicting assignment at gseq {gseq}"
            );
            return false;
        }
        self.record(gseq, id);
        true
    }

    /// Coordinator, outside a round: gives `id` the next gseq unless it is
    /// ordered already.
    pub(crate) fn assign<W: OrderWire<P>>(&mut self, id: MsgId, out: &mut Output<P, W>, to: Fresh) {
        if !self.is_coordinator() || self.round.is_some() || self.is_ordered(id) {
            return;
        }
        let gseq = self.next_assign;
        self.next_assign += 1;
        self.record(gseq, id);
        if let Some(dest) = to {
            let wire = W::order(self.epoch, gseq, id, self.payload_of(id));
            out.outbound.push(Outbound { dest, wire });
        }
    }

    /// Delivers every ordered payload held here, in gseq order; a delivered
    /// payload stays held iff `keep` says so.
    pub(crate) fn drain<W>(&mut self, out: &mut Output<P, W>, keep: impl Fn(MsgId) -> bool) {
        while let Some(id) = self.ordered_at(self.next_deliver) {
            if id != SKIP_ID {
                let held = &mut self.store[id.origin.0];
                let Ok(at) = slot_of(held, id.seq) else {
                    break;
                };
                debug_assert!(!held[at].delivered, "message {id} delivered twice");
                held[at].delivered = true;
                let payload = match keep(id) {
                    true => held[at].payload.clone(),
                    false => held.remove(at).expect("held").payload,
                };
                let gseq = self.next_deliver;
                out.deliveries.push(TotalDelivery { gseq, id, payload });
            }
            self.next_deliver += 1;
        }
    }

    /// Installs view `epoch` and starts its round. The coordinator opens it
    /// with its own log as its report (it assigns nothing until the round
    /// closes) and replays reports that came early; any other member gets
    /// back the report it owes the coordinator.
    pub(crate) fn install<W: OrderWire<P>>(
        &mut self,
        (members, epoch): (&[SiteId], u64),
        out: &mut Output<P, W>,
        to: Fresh,
    ) -> Option<Report> {
        self.members = members.to_vec();
        self.members.sort_unstable();
        self.members.dedup();
        assert!(!self.members.is_empty(), "a view has at least one member");
        self.epoch = epoch;
        self.round = None;
        self.stashed.retain(|r| r.epoch >= epoch);
        if !self.is_coordinator() {
            let entries = self.log_from(0).collect();
            let (site, delivered) = (self.me, self.next_deliver);
            return Some(Report {
                site,
                epoch,
                entries,
                delivered,
            });
        }
        let known = (self.log.len() as u64).max(self.next_deliver);
        self.next_assign = self.next_assign.max(known);
        self.round = Some(BTreeMap::from([(self.me, self.next_deliver)]));
        self.close_round(out, to);
        for report in std::mem::take(&mut self.stashed) {
            self.on_report(report, out, to);
        }
        None
    }

    /// Coordinator: merges a report; closes the round when all are in.
    pub(crate) fn on_report<W: OrderWire<P>>(
        &mut self,
        report: Report,
        out: &mut Output<P, W>,
        to: Fresh,
    ) {
        if report.epoch > self.epoch {
            // The reporter installed the next view before we did.
            self.stashed.push(report);
            return;
        }
        if report.epoch < self.epoch || !self.is_coordinator() {
            return;
        }
        for (gseq, id) in report.entries {
            match self.ordered_at(gseq) {
                Some(known) => debug_assert_eq!(known, id, "conflicting assignment at gseq {gseq}"),
                None => self.record(gseq, id),
            }
            self.next_assign = self.next_assign.max(gseq + 1);
        }
        self.next_assign = self.next_assign.max(report.delivered);
        if let Some(reported) = &mut self.round {
            reported.insert(report.site, report.delivered);
        }
        self.close_round(out, to);
    }

    /// Once every member has reported: fills the gseqs nobody reported with
    /// skips (none of them delivered one), re-announces to every member the
    /// merged log above its watermark, then orders every held payload that
    /// is still unordered, above everything reported.
    fn close_round<W: OrderWire<P>>(&mut self, out: &mut Output<P, W>, fresh: Fresh) {
        match &self.round {
            Some(reported) if self.members.iter().all(|s| reported.contains_key(s)) => {}
            _ => return,
        }
        let reported = self.round.take().expect("open");
        for gseq in self.next_deliver..self.next_assign {
            if self.ordered_at(gseq).is_none() {
                self.record(gseq, SKIP_ID);
            }
        }
        for (&to, &delivered) in reported.iter().filter(|(&s, _)| s != self.me) {
            for (gseq, id) in self.log_from(delivered) {
                let wire = W::order(self.epoch, gseq, id, self.payload_of(id));
                out.outbound.push(Outbound::to(to, wire));
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
            self.assign(id, out, fresh);
        }
    }

    /// This site's snapshot. Its floors cover every id ordered or held
    /// here (a received payload is held until it is ordered).
    pub(crate) fn snapshot(&self) -> Snapshot {
        let held = |o: usize| self.store[o].back().map_or(0, |h| h.seq);
        let floors = (0..self.store.len()).map(|o| self.ordered[o].max_seen().max(held(o)));
        let mut floors: Vec<u64> = floors.collect();
        floors[self.me.0] = self.next_seq;
        Snapshot {
            epoch: self.epoch,
            members: self.members.clone(),
            watermark: self.next_deliver,
            ordered: self.ordered.clone(),
            pending: self.log_from(self.next_deliver).collect(),
            floors,
        }
    }

    /// Adopts a donor's snapshot, own fresh ids past its floor; held
    /// payloads go (the readmitting view change re-supplies them).
    pub(crate) fn resume(&mut self, snap: &Snapshot) {
        self.members.clone_from(&snap.members);
        (self.epoch, self.round) = (snap.epoch, None);
        self.stashed.clear();
        self.store.iter_mut().for_each(VecDeque::clear);
        self.log.clear();
        self.logged = 0;
        self.ordered.clone_from(&snap.ordered);
        (self.next_deliver, self.next_assign) = (snap.watermark, snap.watermark);
        for &(gseq, id) in &snap.pending {
            self.record(gseq, id);
        }
        self.next_seq = self.next_seq.max(snap.floors[self.me.0]);
    }
}

#[cfg(test)]
pub(crate) mod schedule {
    //! A schedule generator and driver shared by both front ends' tests:
    //! broadcasts from random sites, per-link FIFO deliveries in random
    //! interleavings, duplicated payload and ordering messages, crashes,
    //! and rejoins by state transfer. No step waits for a repair round to
    //! finish, and any site may come back and coordinate.

    use super::*;
    use crate::atomic::AtomicBcast;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    pub(crate) type TestResult = Result<(), TestCaseError>;

    /// One step of a schedule; each `usize` picks among what is possible
    /// at that point (live sites, busy links, crashed sites).
    #[derive(Debug, Clone)]
    pub(crate) enum Step {
        Broadcast(usize),
        /// Delivers the oldest message on a link (per-link FIFO).
        Deliver(usize),
        /// Delivers a copy of a link's oldest payload or ordering message,
        /// leaving it queued.
        Duplicate(usize),
        /// Crashes a live site if a majority stays up, then installs the
        /// survivors' view at every survivor.
        Crash(usize),
        /// Once the network is quiet (state transfer assumes a quiet
        /// moment), resumes a crashed site from a live donor's snapshot and
        /// installs the view with it back in.
        Rejoin(usize),
    }

    /// Mostly deliveries; a crash or a rejoin in about one step of
    /// fourteen.
    pub(crate) fn step() -> impl Strategy<Value = Step> {
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

    /// A front end as the driver sees it.
    pub(crate) trait FrontEnd:
        AtomicBcast<u64, Wire: Clone + std::fmt::Debug> + Sized
    {
        fn set_view(&mut self, members: &[SiteId], epoch: u64) -> Output<u64, Self::Wire>;
        fn snapshot(&self) -> Snapshot;
        fn resume_from(&mut self, snap: &Snapshot);
        fn make(me: SiteId, n: usize, window: u64) -> Self;
        /// A payload or ordering message: what a duplicating network copies.
        fn duplicable(wire: &Self::Wire) -> bool;
        /// A view-change report.
        fn is_report(wire: &Self::Wire) -> bool;
        /// An ordering message that fills a hole.
        fn is_skip(wire: &Self::Wire) -> bool;
        /// Own broadcasts not yet through the pipeline window, if there is
        /// one.
        fn inflight(&self) -> Option<u64>;
    }

    /// Watches every input of the fault-free prefix of a schedule (the
    /// ring's B-tree oracle, fed the same inputs, checks the indexed
    /// engine's outputs and gauges).
    pub(crate) trait Shadow<E: FrontEnd> {
        fn broadcast(
            &mut self,
            site: usize,
            payload: u64,
            new: &(MsgId, Output<u64, E::Wire>),
        ) -> TestResult;
        fn on_wire(&mut self, site: usize, wire: E::Wire, new: &Output<u64, E::Wire>)
            -> TestResult;
        fn compare(&self, engines: &[E]) -> TestResult;
    }

    /// How often a schedule reached each path worth reaching.
    #[derive(Debug, Default, Clone, Copy)]
    pub(crate) struct Reached {
        pub(crate) deliveries: usize,
        /// Broadcasts queued behind a full window.
        pub(crate) held_back: usize,
        pub(crate) duplicates: usize,
        pub(crate) crashes: usize,
        pub(crate) rejoins: usize,
        /// View changes that handed the coordinator role to a rejoined site.
        pub(crate) rejoined_coordinators: usize,
        pub(crate) reports: usize,
        /// Broadcasts while a report was still on the wire.
        pub(crate) broadcasts_mid_round: usize,
        pub(crate) skips: usize,
    }

    impl std::ops::AddAssign for Reached {
        fn add_assign(&mut self, r: Reached) {
            self.deliveries += r.deliveries;
            self.held_back += r.held_back;
            self.duplicates += r.duplicates;
            self.crashes += r.crashes;
            self.rejoins += r.rejoins;
            self.rejoined_coordinators += r.rejoined_coordinators;
            self.reports += r.reports;
            self.broadcasts_mid_round += r.broadcasts_mid_round;
            self.skips += r.skips;
        }
    }

    /// A fleet of one front end's engines on per-link FIFO queues.
    pub(crate) struct Fleet<E: FrontEnd> {
        pub(crate) engines: Vec<E>,
        pub(crate) links: BTreeMap<(usize, usize), VecDeque<E::Wire>>,
        pub(crate) crashed: Vec<bool>,
        rejoined: Vec<bool>,
        pub(crate) epoch: u64,
        next_payload: u64,
        window: u64,
        /// What each site delivered since it last resumed, by gseq.
        delivered: Vec<BTreeMap<u64, MsgId>>,
        /// The gseq each site resumed at.
        base: Vec<u64>,
        /// Own broadcasts of each site since it last crashed.
        sent: Vec<Vec<MsgId>>,
        pub(crate) reached: Reached,
        /// Fed every input until the first crash or rejoin.
        pub(crate) shadow: Option<Box<dyn Shadow<E>>>,
    }

    impl<E: FrontEnd> Fleet<E>
    where
        E::Wire: Clone + std::fmt::Debug,
    {
        pub(crate) fn new(n: usize, window: u64) -> Self {
            Fleet {
                engines: (0..n).map(|i| E::make(SiteId(i), n, window)).collect(),
                links: BTreeMap::new(),
                crashed: vec![false; n],
                rejoined: vec![false; n],
                epoch: 0,
                next_payload: 0,
                window,
                delivered: vec![BTreeMap::new(); n],
                base: vec![0; n],
                sent: vec![Vec::new(); n],
                reached: Reached::default(),
                shadow: None,
            }
        }

        fn sites(&self, crashed: bool) -> Vec<usize> {
            (0..self.engines.len())
                .filter(|&s| self.crashed[s] == crashed)
                .collect()
        }

        /// Records what `site` delivered and queues what it sent.
        fn absorb(&mut self, site: usize, out: Output<u64, E::Wire>) -> TestResult {
            for d in out.deliveries {
                self.reached.deliveries += 1;
                let again = self.delivered[site].insert(d.gseq, d.id);
                prop_assert!(
                    again.is_none(),
                    "site {} delivered gseq {} twice",
                    site,
                    d.gseq
                );
            }
            for ob in out.outbound {
                for to in crate::msg::dest_iter(ob.dest, SiteId(site), self.engines.len()) {
                    if !self.crashed[to.0] {
                        let link = self.links.entry((site, to.0)).or_default();
                        link.push_back(ob.wire.clone());
                    }
                }
            }
            Ok(())
        }

        pub(crate) fn broadcast(&mut self, site: usize) -> TestResult {
            self.next_payload += 1;
            let payload = self.next_payload;
            let step = self.engines[site].broadcast(payload);
            if let Some(shadow) = &mut self.shadow {
                shadow.broadcast(site, payload, &step)?;
            }
            let inflight = self.engines[site].inflight();
            self.reached.held_back += usize::from(inflight.is_some_and(|i| i > self.window));
            let reports = self.links.values().flatten().filter(|w| E::is_report(w));
            self.reached.broadcasts_mid_round += usize::from(reports.count() > 0);
            self.sent[site].push(step.0);
            self.absorb(site, step.1)
        }

        pub(crate) fn deliver(&mut self, (from, to): (usize, usize), wire: E::Wire) -> TestResult {
            self.reached.reports += usize::from(E::is_report(&wire));
            self.reached.skips += usize::from(E::is_skip(&wire));
            let out = self.engines[to].on_wire(SiteId(from), wire.clone());
            if let Some(shadow) = &mut self.shadow {
                shadow.on_wire(to, wire, &out)?;
            }
            self.absorb(to, out)
        }

        /// Delivers the oldest message on `link`.
        pub(crate) fn deliver_front(&mut self, link: (usize, usize)) -> TestResult {
            let wire = self.links.get_mut(&link).and_then(VecDeque::pop_front);
            self.deliver(link, wire.expect("busy link"))
        }

        /// Delivers everything still queued, lowest link first.
        pub(crate) fn settle(&mut self) -> TestResult {
            while let Some((&link, _)) = self.links.iter().find(|(_, q)| !q.is_empty()) {
                self.deliver_front(link)?;
                self.compare()?;
            }
            Ok(())
        }

        fn compare(&self) -> TestResult {
            match &self.shadow {
                Some(shadow) => shadow.compare(&self.engines),
                None => Ok(()),
            }
        }

        /// Installs the live sites' view at each of them, in site order.
        pub(crate) fn view_change(&mut self) -> TestResult {
            self.epoch += 1;
            let live = self.sites(false);
            let members: Vec<SiteId> = live.iter().map(|&s| SiteId(s)).collect();
            self.reached.rejoined_coordinators += usize::from(self.rejoined[live[0]]);
            for s in live {
                let out = self.engines[s].set_view(&members, self.epoch);
                self.absorb(s, out)?;
            }
            Ok(())
        }

        /// Crashes `site`: what is queued for it is lost, and what it sent
        /// lands before the survivors install the view that evicts it, as
        /// in the simulator (DESIGN.md §16 says why the sequencer needs it).
        pub(crate) fn crash(&mut self, site: usize) -> TestResult {
            self.shadow = None;
            self.crashed[site] = true;
            self.sent[site].clear();
            self.reached.crashes += 1;
            self.links.retain(|&(_, to), _| to != site);
            let from_site: Vec<(usize, usize)> =
                self.links.keys().filter(|l| l.0 == site).copied().collect();
            for link in from_site {
                while self.links.get(&link).is_some_and(|q| !q.is_empty()) {
                    self.deliver_front(link)?;
                }
            }
            self.links.retain(|&(from, _), _| from != site);
            self.view_change()
        }

        pub(crate) fn run(&mut self, step: &Step) -> TestResult {
            let busy: Vec<(usize, usize)> = (self.links.iter())
                .filter(|(_, q)| !q.is_empty())
                .map(|(&link, _)| link)
                .collect();
            match *step {
                Step::Broadcast(pick) => {
                    let live = self.sites(false);
                    self.broadcast(live[pick % live.len()])?;
                }
                Step::Deliver(pick) if !busy.is_empty() => {
                    self.deliver_front(busy[pick % busy.len()])?;
                }
                Step::Deliver(_) => {}
                Step::Duplicate(pick) => {
                    let repeatable: Vec<(usize, usize)> = (busy.into_iter())
                        .filter(|link| self.links[link].front().is_some_and(E::duplicable))
                        .collect();
                    if !repeatable.is_empty() {
                        let link = repeatable[pick % repeatable.len()];
                        let wire = self.links[&link].front().cloned();
                        self.reached.duplicates += 1;
                        self.deliver(link, wire.expect("busy link"))?;
                    }
                }
                Step::Crash(pick) => {
                    // Views need a majority, as the membership service's do.
                    let live = self.sites(false);
                    if 2 * (live.len() - 1) > self.engines.len() {
                        self.crash(live[pick % live.len()])?;
                    }
                }
                Step::Rejoin(pick) => {
                    let down = self.sites(true);
                    if !down.is_empty() {
                        self.shadow = None;
                        self.settle()?;
                        let live = self.sites(false);
                        let (site, donor) = (down[pick % down.len()], live[pick % live.len()]);
                        let snap = self.engines[donor].snapshot();
                        self.engines[site].resume_from(&snap);
                        self.crashed[site] = false;
                        self.rejoined[site] = true;
                        self.delivered[site].clear();
                        self.base[site] = snap.watermark;
                        self.reached.rejoins += 1;
                        self.view_change()?;
                    }
                }
            }
            self.compare()
        }

        /// At quiescence: every live site has delivered up to the same
        /// gseq; any two of them delivered the same id at every gseq both
        /// cover since they last resumed (a delivery at one is a delivery
        /// at the other, not a skip); no id was delivered at two gseqs;
        /// and every site delivered each of its own broadcasts since it
        /// last crashed.
        pub(crate) fn check(&self) -> TestResult {
            let live = self.sites(false);
            let top = self.engines[live[0]].delivered_count();
            let mut at: BTreeMap<MsgId, u64> = BTreeMap::new();
            for &s in &live {
                let mark = self.engines[s].delivered_count();
                prop_assert_eq!(mark, top, "site {} is wedged below site {}", s, live[0]);
                for (&gseq, &id) in &self.delivered[s] {
                    let first = *at.entry(id).or_insert(gseq);
                    prop_assert_eq!(first, gseq, "{} delivered at two gseqs", id);
                }
                for &a in &live {
                    let from = self.base[a].max(self.base[s]);
                    let (mine, theirs) = (
                        self.delivered[s].range(from..),
                        self.delivered[a].range(from..),
                    );
                    let differ = mine.zip(theirs).find(|(m, t)| m != t);
                    prop_assert!(
                        differ.is_none(),
                        "sites {} and {} disagree: {:?}",
                        s,
                        a,
                        differ
                    );
                    let counts = (
                        self.delivered[s].range(from..).count(),
                        self.delivered[a].range(from..).count(),
                    );
                    prop_assert_eq!(
                        counts.0,
                        counts.1,
                        "sites {} and {} deliveries above gseq {}",
                        s,
                        a,
                        from
                    );
                }
                for id in &self.sent[s] {
                    prop_assert!(
                        self.delivered[s].values().any(|d| d == id),
                        "site {} never delivered its own {}",
                        s,
                        id
                    );
                }
            }
            Ok(())
        }
    }

    /// Runs `steps`, settles, and checks the invariants.
    pub(crate) fn run<E: FrontEnd>(
        n: usize,
        window: u64,
        steps: &[Step],
    ) -> Result<Reached, TestCaseError>
    where
        E::Wire: Clone + std::fmt::Debug,
    {
        run_with::<E>(Fleet::new(n, window), steps)
    }

    /// [`run`] from a prepared fleet (with a shadow, say).
    pub(crate) fn run_with<E: FrontEnd>(
        mut fleet: Fleet<E>,
        steps: &[Step],
    ) -> Result<Reached, TestCaseError>
    where
        E::Wire: Clone + std::fmt::Debug,
    {
        for step in steps {
            fleet.run(step)?;
        }
        fleet.settle()?;
        fleet.check()?;
        Ok(fleet.reached)
    }

    /// Samples case `case` of the generator the property tests use.
    pub(crate) fn sample(
        case: u32,
        sites: std::ops::RangeInclusive<usize>,
        len: usize,
    ) -> (usize, u64, Vec<Step>) {
        let mut rng = proptest::TestRng::for_case(case);
        (sites, 1u64..=3, proptest::collection::vec(step(), 0..len)).sample(&mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(origin: usize, seq: u64) -> MsgId {
        let origin = SiteId(origin);
        MsgId { origin, seq }
    }

    /// A snapshot carries what is ordered, so the site that resumes from
    /// it knows a payload delivered before its watermark (and holds no
    /// re-offer or re-submission of it) from one ordered above it, and
    /// starts its own ids past every one the donor holds.
    #[test]
    fn a_snapshot_says_what_is_delivered() {
        let mut donor: Order<u64> = Order::new(SiteId(0), 3);
        donor.learn(0, id(1, 1));
        donor.learn(1, id(2, 1));
        donor.hold(id(1, 1), 7);
        donor.drain(&mut Output::<u64, ()>::empty(), |_| false);
        assert_eq!(donor.next_deliver, 1, "gseq 1 waits for its payload");
        donor.hold(id(2, 4), 9);
        let mut rejoined: Order<u64> = Order::new(SiteId(2), 3);
        rejoined.resume(&donor.snapshot());
        assert!(!rejoined.is_new(id(1, 1)), "delivered at gseq 0");
        assert!(rejoined.is_new(id(2, 1)), "ordered at gseq 1");
        assert_eq!(rejoined.ordered_at(1), Some(id(2, 1)));
        assert_eq!(rejoined.next_id(), id(2, 5));
    }
}
