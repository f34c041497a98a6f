//! Atomic (total-order) broadcast.
//!
//! The strongest primitive in the paper (§5): all sites deliver all messages
//! in the same total order. The paper notes atomic broadcast is "both
//! expensive and complex to implement in asynchronous systems that are
//! subject to failures" — ablation experiment A1 quantifies the cost with
//! two classical implementations:
//!
//! - [`SequencerAbcast`] — the view's coordinator sequences: the
//!   [`order`](crate::order) core with direct fan-out; ~`N+1`
//!   point-to-point messages and 2 latency hops per broadcast (used by
//!   Amoeba \[KT91\]);
//! - [`IsisAbcast`] — the decentralized ISIS/Skeen algorithm: every site
//!   proposes a Lamport priority, the origin picks the maximum and
//!   finalizes; `3(N-1)` messages and 3 hops per broadcast \[Bv94\]. It
//!   has no coordinator, so no repair round: it is A1's leaderless cell,
//!   and the replica does not offer it (see its doc).
//!
//! Both deliver [`TotalDelivery`] values carrying a dense global sequence
//! number, identical at every site.

use crate::msg::{Dest, MsgId, Outbound, SeqWindow};
use crate::order::{Order, OrderWire, Report, Snapshot};
use bcastdb_sim::inline::InlineVec;
use bcastdb_sim::SiteId;
use std::collections::{BTreeMap, HashMap};

/// A total-order delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TotalDelivery<P> {
    /// Dense global sequence number (identical at every site).
    pub gseq: u64,
    /// Identity of the broadcast.
    pub id: MsgId,
    /// Application payload.
    pub payload: P,
}

/// Result of feeding an atomic-broadcast engine one input.
///
/// Both lists use inline storage: a step almost always yields at most a
/// couple of deliveries and outbound bundles (ISIS answers with one
/// proposal or final per input), so the common case constructs no heap
/// allocation at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output<P, W> {
    /// Messages now deliverable, in total order.
    pub deliveries: InlineVec<TotalDelivery<P>, 2>,
    /// Wire messages to hand to the transport.
    pub outbound: InlineVec<Outbound<W>, 2>,
}

impl<P, W> Output<P, W> {
    pub(crate) fn empty() -> Self {
        Output {
            deliveries: InlineVec::new(),
            outbound: InlineVec::new(),
        }
    }
}

/// Common interface of the two atomic broadcast implementations.
///
/// Sealed in spirit: the replication layer is generic over this trait only
/// to swap implementations in the A1 ablation.
pub trait AtomicBcast<P: Clone> {
    /// Wire message type of this implementation.
    type Wire: Clone;

    /// Initiates a total-order broadcast of `payload`.
    fn broadcast(&mut self, payload: P) -> (MsgId, Output<P, Self::Wire>);

    /// Handles an incoming wire message.
    fn on_wire(&mut self, from: SiteId, wire: Self::Wire) -> Output<P, Self::Wire>;

    /// Number of messages delivered so far (== next gseq).
    fn delivered_count(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Fixed-sequencer implementation
// ---------------------------------------------------------------------------

/// Wire messages of [`SequencerAbcast`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqWire<P> {
    /// Origin → sequencer: please order this message.
    Submit {
        /// Identity assigned by the origin.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
    /// Sequencer → everyone: message `id` is global number `gseq`.
    Ordered {
        /// Global sequence number.
        gseq: u64,
        /// Identity of the ordered message.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
    /// Repair round, sequencer → member: `gseq` holds `id` (a filled hole,
    /// or an order whose payload the sequencer does not hold).
    Slot {
        /// Global sequence number.
        gseq: u64,
        /// Identity of the ordered message, or
        /// [`SKIP_ID`](crate::order::SKIP_ID).
        id: MsgId,
    },
    /// View-change report: member → sequencer.
    Repair(Report),
}

impl<P: crate::batch::WireSize> crate::batch::WireSize for SeqWire<P> {
    fn wire_size(&self) -> usize {
        match self {
            SeqWire::Submit { id, payload } => id.wire_size() + payload.wire_size(),
            SeqWire::Ordered { id, payload, .. } => 8 + id.wire_size() + payload.wire_size(),
            SeqWire::Slot { id, .. } => 8 + id.wire_size(),
            SeqWire::Repair(r) => 8 + 8 + 8 + r.entries.len() * 24,
        }
    }
}

/// Sequencer atomic broadcast: origins submit to the view's coordinator,
/// which sends every other site `Ordered{gseq, id, payload}`. A site takes
/// orders only from its view's sequencer, and holds its own broadcasts
/// until it delivers them, re-submitting them to every new sequencer.
#[derive(Debug)]
pub struct SequencerAbcast<P> {
    core: Order<P>,
}

impl<P: Clone> OrderWire<P> for SeqWire<P> {
    fn order(_: u64, gseq: u64, id: MsgId, payload: Option<&P>) -> Self {
        match payload.cloned() {
            Some(payload) => SeqWire::Ordered { gseq, id, payload },
            None => SeqWire::Slot { gseq, id },
        }
    }
}

impl<P: Clone> SequencerAbcast<P> {
    /// Creates an engine for site `me` of an `n`-site system; site 0 is the
    /// sequencer.
    ///
    /// # Panics
    /// Panics if `me` is not a valid site of an `n`-site system.
    pub fn new(me: SiteId, n: usize) -> Self {
        let core = Order::new(me, n);
        SequencerAbcast { core }
    }

    /// Ordered ids held individually because an earlier one of the same
    /// origin is not ordered yet.
    pub fn dedup_live(&self) -> usize {
        self.core.dedup_live()
    }

    /// Installs view `epoch`; every other member reports to its sequencer
    /// and re-submits its undelivered broadcasts.
    pub fn set_view(&mut self, members: &[SiteId], epoch: u64) -> Output<P, SeqWire<P>> {
        let mut out = Output::empty();
        if let Some(report) = self
            .core
            .install((members, epoch), &mut out, Some(Dest::Others))
        {
            let (me, to) = (self.core.me, self.core.coordinator());
            out.outbound.push(Outbound::to(to, SeqWire::Repair(report)));
            for h in &self.core.store[me.0] {
                let (origin, seq, payload) = (me, h.seq, h.payload.clone());
                let id = MsgId { origin, seq };
                out.outbound
                    .push(Outbound::to(to, SeqWire::Submit { id, payload }));
            }
        }
        self.core.drain(&mut out, |_| false);
        out
    }

    /// This site's state-transfer snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.core.snapshot()
    }

    /// Resumes at a donor's watermark and view, fresh ids past its floor.
    pub fn resume_from(&mut self, snap: &Snapshot) {
        self.core.resume(snap);
    }
}

impl<P: Clone> AtomicBcast<P> for SequencerAbcast<P> {
    type Wire = SeqWire<P>;

    fn broadcast(&mut self, payload: P) -> (MsgId, Output<P, SeqWire<P>>) {
        let id = self.core.next_id();
        let mut out = Output::empty();
        if self.core.is_coordinator() {
            self.core.hold(id, payload);
            self.core.assign(id, &mut out, Some(Dest::Others));
            self.core.drain(&mut out, |_| false);
        } else {
            self.core.hold(id, payload.clone());
            let to = self.core.coordinator();
            out.outbound
                .push(Outbound::to(to, SeqWire::Submit { id, payload }));
        }
        (id, out)
    }

    fn on_wire(&mut self, from: SiteId, wire: SeqWire<P>) -> Output<P, SeqWire<P>> {
        let mut out = Output::empty();
        match wire {
            // Held wherever it lands: a future sequencer orders it.
            SeqWire::Submit { id, payload } => {
                if !self.core.is_new(id) {
                    return out; // duplicate submission
                }
                self.core.hold(id, payload);
                self.core.assign(id, &mut out, Some(Dest::Others));
            }
            // A deposed sequencer's orders are dropped.
            SeqWire::Ordered { .. } | SeqWire::Slot { .. } if from != self.core.coordinator() => {}
            SeqWire::Ordered { gseq, id, payload } => {
                self.core.learn(gseq, id);
                let pending = gseq >= self.core.next_deliver && !self.core.holds(id);
                if pending && self.core.ordered_at(gseq) == Some(id) {
                    self.core.hold(id, payload);
                }
            }
            SeqWire::Slot { gseq, id } => {
                self.core.learn(gseq, id);
            }
            SeqWire::Repair(report) => self.core.on_report(report, &mut out, Some(Dest::Others)),
        }
        self.core.drain(&mut out, |_| false);
        out
    }

    fn delivered_count(&self) -> u64 {
        self.core.next_deliver
    }
}

// ---------------------------------------------------------------------------
// ISIS-style implementation
// ---------------------------------------------------------------------------

/// A message priority: a Lamport timestamp with the proposing site as the
/// tie-break. Globally unique because every site increments its own
/// timestamp per proposal.
pub type Priority = (u64, SiteId);

/// Wire messages of [`IsisAbcast`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsisWire<P> {
    /// Origin → everyone else: here is the payload, propose a priority.
    Data {
        /// Identity assigned by the origin.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
    /// Receiver → origin: proposed priority.
    Propose {
        /// Which message the proposal is for.
        id: MsgId,
        /// The proposed priority.
        prio: Priority,
    },
    /// Origin → everyone else: agreed final priority.
    Final {
        /// Which message is finalized.
        id: MsgId,
        /// The agreed (maximum) priority.
        prio: Priority,
    },
}

impl<P: crate::batch::WireSize> crate::batch::WireSize for IsisWire<P> {
    fn wire_size(&self) -> usize {
        match self {
            IsisWire::Data { id, payload } => id.wire_size() + payload.wire_size(),
            // A priority is (u64, SiteId): 16 bytes.
            IsisWire::Propose { id, .. } | IsisWire::Final { id, .. } => id.wire_size() + 16,
        }
    }
}

#[derive(Debug)]
struct IsisEntry<P> {
    prio: Priority,
    is_final: bool,
    payload: P,
}

/// ISIS-style decentralized atomic broadcast (Skeen's algorithm).
///
/// A1 measures it where nothing crashes. The replica does not offer it:
/// it has no view change and no repair round, so a message whose origin
/// or proposer crashed before its `Final` stays pending forever and holds
/// back every later delivery. The sequencer and the ring share the
/// ordering core, whose repair round settles that case.
#[derive(Debug)]
pub struct IsisAbcast<P> {
    me: SiteId,
    n: usize,
    next_seq: u64,
    lamport: u64,
    /// Messages not yet delivered, keyed by id.
    pending: BTreeMap<MsgId, IsisEntry<P>>,
    /// Every id this site has ever accepted (pending *or* delivered).
    /// Duplicate suppression must outlive delivery: a late network
    /// duplicate of a delivered `Data` would otherwise re-insert a
    /// pending entry that can never finalize, wedging the holdback.
    seen: Vec<SeqWindow<()>>,
    /// Proposals collected by this site for its own broadcasts.
    proposals: HashMap<MsgId, Vec<Priority>>,
    delivered: u64,
}

impl<P: Clone> IsisAbcast<P> {
    /// Creates an engine for site `me` of an `n`-site system.
    ///
    /// # Panics
    /// Panics if `me` is not a valid site of an `n`-site system.
    pub fn new(me: SiteId, n: usize) -> Self {
        assert!(me.0 < n, "site {me} out of range for {n} sites");
        IsisAbcast {
            me,
            n,
            next_seq: 0,
            lamport: 0,
            pending: BTreeMap::new(),
            seen: vec![SeqWindow::default(); n],
            proposals: HashMap::new(),
            delivered: 0,
        }
    }

    fn propose(&mut self) -> Priority {
        self.lamport += 1;
        (self.lamport, self.me)
    }

    fn finalize(&mut self, id: MsgId, prio: Priority, out: &mut Output<P, IsisWire<P>>) {
        self.lamport = self.lamport.max(prio.0);
        if let Some(e) = self.pending.get_mut(&id) {
            e.prio = prio;
            e.is_final = true;
        }
        self.drain_deliverable(out);
    }

    /// Delivers finalized messages whose priority is minimal among all
    /// pending messages.
    fn drain_deliverable(&mut self, out: &mut Output<P, IsisWire<P>>) {
        while let Some((&id, entry)) = self
            .pending
            .iter()
            .min_by_key(|(id, e)| (e.prio, id.origin, id.seq))
        {
            if !entry.is_final {
                break;
            }
            let e = self.pending.remove(&id).expect("entry just observed");
            out.deliveries.push(TotalDelivery {
                gseq: self.delivered,
                id,
                payload: e.payload,
            });
            self.delivered += 1;
        }
    }

    fn collect_proposal(&mut self, id: MsgId, prio: Priority, out: &mut Output<P, IsisWire<P>>) {
        // Only an origin still awaiting finalization collects: a stale
        // or duplicated Propose after the Final went out (or after
        // delivery) must not re-open the vote.
        match self.pending.get(&id) {
            Some(e) if !e.is_final => {}
            _ => return,
        }
        let props = self.proposals.entry(id).or_default();
        // One vote per proposer (`prio.1` is the proposing site): a
        // duplicated Propose must not reach the n-count early, or the
        // final priority could miss a proposer and undercut an
        // outstanding proposal — breaking the holdback's lower bound.
        if props.iter().any(|p| p.1 == prio.1) {
            return;
        }
        props.push(prio);
        if props.len() == self.n {
            let final_prio = *props.iter().max().expect("non-empty");
            self.proposals.remove(&id);
            out.outbound.push(Outbound::others(IsisWire::Final {
                id,
                prio: final_prio,
            }));
            self.finalize(id, final_prio, out);
        }
    }
}

impl<P: Clone> AtomicBcast<P> for IsisAbcast<P> {
    type Wire = IsisWire<P>;

    fn broadcast(&mut self, payload: P) -> (MsgId, Output<P, IsisWire<P>>) {
        self.next_seq += 1;
        let id = MsgId {
            origin: self.me,
            seq: self.next_seq,
        };
        let mut out = Output::empty();
        out.outbound.push(Outbound::others(IsisWire::Data {
            id,
            payload: payload.clone(),
        }));
        let own = self.propose();
        self.seen[id.origin.0].insert(id.seq);
        self.pending.insert(
            id,
            IsisEntry {
                prio: own,
                is_final: false,
                payload,
            },
        );
        self.collect_proposal(id, own, &mut out);
        (id, out)
    }

    fn on_wire(&mut self, _from: SiteId, wire: IsisWire<P>) -> Output<P, IsisWire<P>> {
        let mut out = Output::empty();
        match wire {
            IsisWire::Data { id, payload } => {
                if !self.seen[id.origin.0].insert(id.seq) {
                    return out; // duplicate (pending or already delivered)
                }
                let prio = self.propose();
                self.pending.insert(
                    id,
                    IsisEntry {
                        prio,
                        is_final: false,
                        payload,
                    },
                );
                out.outbound
                    .push(Outbound::to(id.origin, IsisWire::Propose { id, prio }));
            }
            IsisWire::Propose { id, prio } => {
                self.collect_proposal(id, prio, &mut out);
            }
            IsisWire::Final { id, prio } => {
                self.finalize(id, prio, &mut out);
            }
        }
        out
    }

    fn delivered_count(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::dest_iter;
    use crate::order::schedule;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Runs a fleet of engines to quiescence with a FIFO per-link network,
    /// returning each site's delivery log. `drop_filter` can suppress
    /// individual (from, to, nth-message) sends to test reordering.
    fn run_fleet<A, P>(engines: &mut [A], kicks: Vec<(usize, P)>) -> Vec<Vec<(u64, P)>>
    where
        A: AtomicBcast<P>,
        P: Clone + PartialEq + std::fmt::Debug,
    {
        let n = engines.len();
        let mut logs: Vec<Vec<(u64, P)>> = vec![Vec::new(); n];
        let mut queue: VecDeque<(SiteId, SiteId, A::Wire)> = VecDeque::new();
        let push = |out: Output<P, A::Wire>,
                    me: SiteId,
                    logs: &mut Vec<Vec<(u64, P)>>,
                    queue: &mut VecDeque<(SiteId, SiteId, A::Wire)>| {
            for d in out.deliveries {
                logs[me.0].push((d.gseq, d.payload));
            }
            for ob in out.outbound {
                for to in dest_iter(ob.dest, me, n) {
                    queue.push_back((me, to, ob.wire.clone()));
                }
            }
        };
        for (site, payload) in kicks {
            let (_, out) = engines[site].broadcast(payload);
            push(out, SiteId(site), &mut logs, &mut queue);
        }
        while let Some((from, to, wire)) = queue.pop_front() {
            let out = engines[to.0].on_wire(from, wire);
            push(out, to, &mut logs, &mut queue);
        }
        logs
    }

    fn seq_engines(n: usize) -> Vec<SequencerAbcast<String>> {
        (0..n).map(|i| SequencerAbcast::new(SiteId(i), n)).collect()
    }

    fn isis_engines(n: usize) -> Vec<IsisAbcast<String>> {
        (0..n).map(|i| IsisAbcast::new(SiteId(i), n)).collect()
    }

    fn assert_total_order(logs: &[Vec<(u64, String)>], expected_count: usize) {
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(log.len(), expected_count, "site {i} delivered all");
            assert_eq!(log, &logs[0], "site {i} agrees with site 0");
            for (k, (gseq, _)) in log.iter().enumerate() {
                assert_eq!(*gseq, k as u64, "dense gseq at site {i}");
            }
        }
    }

    #[test]
    fn sequencer_total_order_basic() {
        let mut es = seq_engines(3);
        let logs = run_fleet(
            &mut es,
            vec![
                (1, "a".to_owned()),
                (2, "b".to_owned()),
                (0, "c".to_owned()),
            ],
        );
        assert_total_order(&logs, 3);
    }

    #[test]
    fn isis_total_order_basic() {
        let mut es = isis_engines(3);
        let logs = run_fleet(
            &mut es,
            vec![
                (1, "a".to_owned()),
                (2, "b".to_owned()),
                (0, "c".to_owned()),
            ],
        );
        assert_total_order(&logs, 3);
    }

    #[test]
    fn sequencer_many_messages_many_sites() {
        let n = 5;
        let mut es = seq_engines(n);
        let kicks: Vec<_> = (0..20).map(|i| (i % n, format!("m{i}"))).collect();
        let logs = run_fleet(&mut es, kicks);
        assert_total_order(&logs, 20);
    }

    #[test]
    fn isis_many_messages_many_sites() {
        let n = 5;
        let mut es = isis_engines(n);
        let kicks: Vec<_> = (0..20).map(|i| (i % n, format!("m{i}"))).collect();
        let logs = run_fleet(&mut es, kicks);
        assert_total_order(&logs, 20);
    }

    #[test]
    fn isis_single_site_delivers_immediately() {
        let mut e = IsisAbcast::new(SiteId(0), 1);
        let (_, out) = e.broadcast("solo".to_owned());
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].gseq, 0);
    }

    #[test]
    fn sequencer_self_broadcast_by_sequencer() {
        let mut e = SequencerAbcast::new(SiteId(0), 3);
        let (_, out) = e.broadcast("x".to_owned());
        assert_eq!(
            out.deliveries.len(),
            1,
            "sequencer delivers its own immediately"
        );
        assert_eq!(out.outbound.len(), 1);
    }

    #[test]
    fn sequencer_holdback_reorders_gseq() {
        let mut e = SequencerAbcast::<String>::new(SiteId(2), 3);
        let id1 = MsgId {
            origin: SiteId(0),
            seq: 1,
        };
        let id2 = MsgId {
            origin: SiteId(1),
            seq: 1,
        };
        // gseq 1 arrives before gseq 0 (cross-link reordering).
        let out = e.on_wire(
            SiteId(0),
            SeqWire::Ordered {
                gseq: 1,
                id: id2,
                payload: "b".into(),
            },
        );
        assert!(out.deliveries.is_empty());
        let out = e.on_wire(
            SiteId(0),
            SeqWire::Ordered {
                gseq: 0,
                id: id1,
                payload: "a".into(),
            },
        );
        let got: Vec<_> = out.deliveries.iter().map(|d| d.payload.as_str()).collect();
        assert_eq!(got, vec!["a", "b"]);
    }

    #[test]
    fn sequencer_dedups_resubmission() {
        let mut e = SequencerAbcast::<String>::new(SiteId(0), 3);
        let id = MsgId {
            origin: SiteId(1),
            seq: 1,
        };
        let o1 = e.on_wire(
            SiteId(1),
            SeqWire::Submit {
                id,
                payload: "p".into(),
            },
        );
        assert_eq!(o1.outbound.len(), 1);
        let o2 = e.on_wire(
            SiteId(1),
            SeqWire::Submit {
                id,
                payload: "p".into(),
            },
        );
        assert!(o2.outbound.is_empty());
    }

    #[test]
    fn non_sequencer_ignores_submissions() {
        let mut e = SequencerAbcast::<String>::new(SiteId(1), 3);
        let id = MsgId {
            origin: SiteId(2),
            seq: 1,
        };
        let out = e.on_wire(
            SiteId(2),
            SeqWire::Submit {
                id,
                payload: "p".into(),
            },
        );
        assert!(out.outbound.is_empty());
        assert!(out.deliveries.is_empty());
    }

    /// Delivers everything queued, in FIFO order, dropping what is sent to
    /// or by a site in `down`.
    fn settle_seq(
        es: &mut [SequencerAbcast<String>],
        mut queue: VecDeque<(SiteId, SiteId, SeqWire<String>)>,
        down: &[usize],
    ) -> Vec<Vec<(u64, String)>> {
        let mut logs = vec![Vec::new(); es.len()];
        while let Some((from, to, wire)) = queue.pop_front() {
            if down.contains(&from.0) || down.contains(&to.0) {
                continue;
            }
            let out = es[to.0].on_wire(from, wire);
            logs[to.0].extend(out.deliveries.into_iter().map(|d| (d.gseq, d.payload)));
            for ob in out.outbound {
                queue.extend(dest_iter(ob.dest, to, es.len()).map(|t| (to, t, ob.wire.clone())));
            }
        }
        logs
    }

    #[test]
    fn sequencer_failover_reorders_lost_submissions() {
        let mut es = seq_engines(3);
        let logs = run_fleet(&mut es, vec![(1, "a".to_owned())]);
        assert_total_order(&logs, 1);
        // Site 2's submission is lost with the sequencer; site 1 takes over,
        // and 2 re-submits it in the repair round.
        let (_, lost) = es[2].broadcast("b".to_owned());
        assert_eq!(lost.outbound.len(), 1, "a submit to site 0");
        let mut queue = VecDeque::new();
        for s in [1, 2] {
            let out = es[s].set_view(&[SiteId(1), SiteId(2)], 1);
            for ob in out.outbound {
                for to in dest_iter(ob.dest, SiteId(s), 3) {
                    queue.push_back((SiteId(s), to, ob.wire.clone()));
                }
            }
        }
        let logs = settle_seq(&mut es, queue, &[0]);
        let b = vec![(1, "b".to_owned())];
        assert_eq!(
            (&logs[1], &logs[2]),
            (&b, &b),
            "numbering continues after failover"
        );
    }

    #[test]
    fn a_deposed_sequencers_order_is_dropped() {
        let mut e = SequencerAbcast::<String>::new(SiteId(2), 3);
        let _ = e.set_view(&[SiteId(1), SiteId(2)], 1);
        let id = MsgId {
            origin: SiteId(0),
            seq: 1,
        };
        let stale = SeqWire::Ordered {
            gseq: 0,
            id,
            payload: "late".into(),
        };
        let out = e.on_wire(SiteId(0), stale.clone());
        assert!(out.deliveries.is_empty() && e.delivered_count() == 0);
        let out = e.on_wire(SiteId(1), stale);
        assert_eq!(out.deliveries.len(), 1, "the current sequencer's is taken");
    }

    /// The sequencer under the schedule driver both front ends share.
    impl schedule::FrontEnd for SequencerAbcast<u64> {
        fn set_view(&mut self, members: &[SiteId], epoch: u64) -> Output<u64, Self::Wire> {
            SequencerAbcast::set_view(self, members, epoch)
        }

        fn snapshot(&self) -> Snapshot {
            SequencerAbcast::snapshot(self)
        }

        fn resume_from(&mut self, snap: &Snapshot) {
            SequencerAbcast::resume_from(self, snap)
        }

        fn make(me: SiteId, n: usize, _window: u64) -> Self {
            SequencerAbcast::new(me, n)
        }

        fn duplicable(wire: &SeqWire<u64>) -> bool {
            !matches!(wire, SeqWire::Repair { .. })
        }

        fn is_report(wire: &SeqWire<u64>) -> bool {
            matches!(wire, SeqWire::Repair { .. })
        }

        fn is_skip(wire: &SeqWire<u64>) -> bool {
            matches!(wire, SeqWire::Slot { id, .. } if *id == crate::order::SKIP_ID)
        }

        fn inflight(&self) -> Option<u64> {
            None
        }
    }

    /// The generated sequencer schedules reach crashes of the sequencer,
    /// rejoins, reports, broadcasts in the middle of a round and rejoined
    /// sequencers.
    #[test]
    fn sequencer_schedules_reach_every_path() {
        let mut total = schedule::Reached::default();
        for case in 0..256 {
            let (n, window, steps) = schedule::sample(case, 2..=5, 160);
            total += schedule::run::<SequencerAbcast<u64>>(n, window, &steps).expect("invariants");
        }
        let r = total;
        let all = [r.deliveries, r.duplicates, r.crashes, r.rejoins, r.reports];
        let more = [r.rejoined_coordinators, r.broadcasts_mid_round];
        assert!(all.iter().chain(&more).all(|&count| count > 0), "{total:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The schedules the ring's oracle test runs, over the sequencer:
        /// at quiescence the survivors agree on one total order, delivered
        /// once, with no wedged gap, and every live origin's broadcasts are
        /// delivered.
        #[test]
        fn sequencer_survives_unguarded_schedules(
            n in 2usize..=5,
            window in 1u64..=3,
            steps in proptest::collection::vec(schedule::step(), 0..160)
        ) {
            schedule::run::<SequencerAbcast<u64>>(n, window, &steps)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10_000, ..ProptestConfig::default() })]

        /// The same property over 10 000 schedules (release:
        /// `cargo test --release -p bcastdb-broadcast _10k -- --ignored`).
        #[test]
        #[ignore]
        fn sequencer_survives_unguarded_schedules_10k(
            n in 2usize..=6,
            window in 1u64..=8,
            steps in proptest::collection::vec(schedule::step(), 0..240)
        ) {
            schedule::run::<SequencerAbcast<u64>>(n, window, &steps)?;
        }
    }

    #[test]
    fn isis_message_complexity_is_3n_minus_3() {
        // One broadcast in a 4-site system: 3 Data + 3 Propose + 3 Final.
        let n = 4;
        let mut es = isis_engines(n);
        let mut wires = 0usize;
        let mut queue: VecDeque<(SiteId, SiteId, IsisWire<String>)> = VecDeque::new();
        let (_, out) = es[0].broadcast("m".to_owned());
        for ob in out.outbound {
            for to in dest_iter(ob.dest, SiteId(0), n) {
                wires += 1;
                queue.push_back((SiteId(0), to, ob.wire.clone()));
            }
        }
        while let Some((from, to, wire)) = queue.pop_front() {
            let out = es[to.0].on_wire(from, wire);
            for ob in out.outbound {
                for dest in dest_iter(ob.dest, to, n) {
                    wires += 1;
                    queue.push_back((to, dest, ob.wire.clone()));
                }
            }
        }
        assert_eq!(wires, 3 * (n - 1));
    }

    /// A1 charges ISIS's links by these sizes: MsgId = 16, a priority
    /// `(u64, SiteId)` = 16.
    #[test]
    fn isis_wire_sizes_match_encoded_layout() {
        use crate::batch::WireSize;
        #[derive(Clone)]
        struct Blob(usize);
        impl WireSize for Blob {
            fn wire_size(&self) -> usize {
                self.0
            }
        }
        let id = MsgId {
            origin: SiteId(0),
            seq: 1,
        };
        let data = IsisWire::Data {
            id,
            payload: Blob(100),
        };
        assert_eq!(data.wire_size(), 16 + 100);
        let prio = (1, SiteId(1));
        let propose: IsisWire<Blob> = IsisWire::Propose { id, prio };
        assert_eq!(propose.wire_size(), 16 + 16);
        let fin: IsisWire<Blob> = IsisWire::Final { id, prio };
        assert_eq!(fin.wire_size(), 16 + 16);
    }

    #[test]
    fn isis_priorities_are_unique_and_monotone() {
        let mut e = IsisAbcast::<String>::new(SiteId(0), 2);
        let p1 = e.propose();
        let p2 = e.propose();
        assert!(p2 > p1);
    }

    #[test]
    fn isis_concurrent_broadcasts_do_not_interleave_wrongly() {
        // Two sites broadcast simultaneously; with synchronous rounds the
        // final priorities still produce a single agreed order.
        let n = 3;
        let mut es = isis_engines(n);
        let logs = run_fleet(&mut es, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
        assert_total_order(&logs, 2);
    }
}
