//! §5 — the Atomic Broadcast protocol.
//!
//! Write operations are disseminated by **causal broadcast** (cheap), while
//! commit requests go through **atomic broadcast**: every site delivers
//! them in the same total order. Because each site applies the same
//! deterministic **certification** rule to the same sequence, all sites
//! reach the same verdict with *no acknowledgements at all* — the paper's
//! headline result.
//!
//! Certification: the commit request carries, for every key the transaction
//! read or wrote, the identity of the committed version current at the
//! origin when the request was broadcast. A site processing the request at
//! its slot in the total order commits the transaction iff every one of
//! those versions is still current — i.e. no transaction that committed
//! earlier in the total order overwrote them (first-committer-wins on both
//! read-write and write-write conflicts). Committed write sets are applied
//! immediately in delivery order; conflicting *local* transactions still in
//! their read phase are wounded — this is the one protocol in which
//! read-only transactions can abort, the price of acknowledgement-free
//! commitment (experiment F5 measures it).
//!
//! Commit requests are processed strictly in total order; a request whose
//! causally-broadcast writes have not all arrived stalls the queue (they
//! arrive shortly — both primitives run on the same FIFO links).

use crate::cluster::ClusterConfig;
use crate::metrics::AbortReason;
use crate::payload::{AbcastImpl, Payload, ReplicaMsg, Shelf, TxnPriority};
use crate::protocols::{paced_write_phase, sweep_view, Cx, Gate, ProtoSnapshot, Variation};
use crate::state::{txn_ref, SiteState};
use bcastdb_broadcast::atomic::{self, AtomicBcast, IsisAbcast, SequencerAbcast, TotalDelivery};
use bcastdb_broadcast::causal::{self, CausalBcast};
use bcastdb_broadcast::order;
use bcastdb_broadcast::ring::RingAbcast;
use bcastdb_broadcast::VectorClock;
use bcastdb_db::{KeyMap, TxnId};
use bcastdb_sim::telemetry::TraceEvent;
use bcastdb_sim::{SampleWriter, SiteId};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// One of the atomic-broadcast engines, selected by [`AbcastImpl`].
///
/// All engines carry `Arc<Payload>` so their holdback/pending buffers and
/// the per-destination fan-out share one payload per broadcast.
#[derive(Debug)]
enum Abcast {
    Seq(SequencerAbcast<Arc<Payload>>),
    Isis(IsisAbcast<Arc<Payload>>),
    // Boxed: the ring engine's repair/pipeline state dwarfs the other
    // variants (clippy::large_enum_variant).
    Ring(Box<RingAbcast<Arc<Payload>>>),
}

/// What this protocol's two dissemination layers hand up.
#[derive(Debug)]
pub(crate) enum AbDelivery {
    /// A causally delivered write operation.
    Causal(causal::Delivery<Arc<Payload>>),
    /// A commit request at its slot in the total order.
    Total(TotalDelivery<Arc<Payload>>),
}

/// One driver step of this protocol.
type AbCx<'a> = Cx<'a, AbDelivery>;

/// Delivery position of the configured atomic-broadcast engine.
#[derive(Debug, Clone)]
enum AbcastPos {
    /// The ordering core under the sequencer and the ring.
    Core(order::Snapshot),
    /// ISIS `(lamport, delivered)` pair.
    Isis(u64, u64),
}

/// State-transfer snapshot of the atomic protocol's engines and version
/// directory.
#[derive(Debug, Clone)]
pub struct AbSnapshot {
    causal: VectorClock,
    order: AbcastPos,
    latest_writer: KeyMap<TxnId>,
}

/// What the atomic-broadcast protocol varies at one site.
#[derive(Debug)]
pub struct AtomicProto {
    cb: CausalBcast<Arc<Payload>>,
    ab: Abcast,
    /// Where both streams' payloads come from.
    shelf: Shelf,
    /// Commit requests in total order, certified strictly head-first —
    /// the delivered requests themselves, shared with every other site's
    /// queue: certification reads their version vectors in place.
    cert_queue: VecDeque<Arc<Payload>>,
    /// The version directory: last committed writer of every key, updated
    /// at every certification in total order. Unlike the store (which only
    /// holds replicated keys), every site maintains the full directory —
    /// it is what keeps certification deterministic under partial
    /// replication.
    latest_writer: KeyMap<TxnId>,
}

impl AtomicProto {
    /// Hands one total-order engine step on, whatever the backend.
    fn route_total<W: Into<ReplicaMsg>>(cx: &mut AbCx, out: atomic::Output<Arc<Payload>, W>) {
        cx.route(
            out.outbound,
            out.deliveries.into_iter().map(AbDelivery::Total),
        );
    }

    fn route_causal(cx: &mut AbCx, out: causal::Output<Arc<Payload>>) {
        cx.route(
            out.outbound,
            out.deliveries.into_iter().map(AbDelivery::Causal),
        );
    }

    /// Certifies queued commit requests strictly in total order; stalls
    /// when the head's write set is not fully delivered yet.
    fn drain_cert_queue(&mut self, cx: &mut AbCx) {
        while let Some(head) = self.cert_queue.front() {
            let Payload::CommitReq {
                txn,
                prio,
                n_writes,
                read_versions,
                write_versions,
            } = &**head
            else {
                unreachable!("only commit requests are queued for certification");
            };
            let (txn, prio) = (*txn, *prio);
            if cx.st.decided.contains_key(&txn) {
                self.cert_queue.pop_front();
                continue;
            }
            let ops_ready = *n_writes == 0
                || cx
                    .st
                    .remote
                    .get(&txn)
                    .is_some_and(|e| e.ops.len() == *n_writes);
            if !ops_ready {
                return; // stall: causal writes still in flight
            }
            let pass = read_versions
                .iter()
                .chain(write_versions)
                .all(|(key, expected)| self.latest_writer.get(key).copied() == *expected);
            self.cert_queue.pop_front();
            // Make sure an entry exists even for write-free transactions.
            let entry = cx.st.remote_entry(txn, prio).expect("undecided");
            if entry.n_writes.is_none() {
                entry.n_writes = Some(0);
            }
            cx.st.trace_vote(txn, pass, cx.now);
            if !pass {
                cx.abort_remote(txn, AbortReason::Certification);
                continue;
            }
            // This protocol's applies never wait — that is what keeps them
            // acknowledgement-free — so every local transaction still
            // holding a read lock on a key the committing transaction
            // writes (read-only included) is wounded.
            cx.gate_local_readers(txn, |_| Gate::Wound);
            // Advance the version directory in total order (all keys, held
            // here or not).
            for op in &cx.st.remote[&txn].ops {
                match self.latest_writer.get_mut(&op.key) {
                    Some(writer) => *writer = txn,
                    None => {
                        self.latest_writer.insert(op.key.clone(), txn);
                    }
                }
            }
            cx.apply_commit(txn);
        }
    }
}

impl Variation for AtomicProto {
    type Delivery = AbDelivery;

    fn new(me: SiteId, cfg: &ClusterConfig) -> Self {
        let n = cfg.sites;
        AtomicProto {
            // The atomic protocol never serves retransmissions from its
            // causal stream, so skip the per-message archive clone.
            cb: CausalBcast::new(me, n).without_archive(),
            ab: match cfg.abcast_impl() {
                AbcastImpl::Sequencer => Abcast::Seq(SequencerAbcast::new(me, n)),
                AbcastImpl::Isis => Abcast::Isis(IsisAbcast::new(me, n)),
                AbcastImpl::Ring => Abcast::Ring(Box::new(RingAbcast::new(me, n))),
            },
            shelf: Shelf::default(),
            cert_queue: VecDeque::new(),
            latest_writer: KeyMap::default(),
        }
    }

    /// No lock-driven machinery between broadcast transactions: applies
    /// are immediate and certification replaces voting.
    fn configure_state(st: &mut SiteState) {
        st.wound_remote = false;
    }

    /// The one wire entry point: causal traffic (write operations) and the
    /// configured backend's total-order traffic; a stray message of another
    /// backend is dropped.
    fn on_wire(&mut self, cx: &mut AbCx, from: SiteId, msg: ReplicaMsg) {
        match (msg, &mut self.ab) {
            (ReplicaMsg::C(wire), _) => Self::route_causal(cx, self.cb.on_wire(from, wire)),
            (ReplicaMsg::ASeq(wire), Abcast::Seq(ab)) => {
                Self::route_total(cx, ab.on_wire(from, wire))
            }
            (ReplicaMsg::AIsis(wire), Abcast::Isis(ab)) => {
                Self::route_total(cx, ab.on_wire(from, wire))
            }
            (ReplicaMsg::ARing(wire), Abcast::Ring(ab)) => {
                Self::route_total(cx, ab.on_wire(from, wire))
            }
            _ => {}
        }
    }

    /// Read locks are released first: from here on the version vectors in
    /// the commit request carry the validation burden.
    fn write_phase(&mut self, cx: &mut AbCx, id: TxnId) {
        let granted = cx.st.locks.release_all(id);
        cx.transition(|st, now, events| st.process_grants(granted, now, events));
        paced_write_phase(self, cx, id);
    }

    /// Write operations travel by (cheap) causal broadcast.
    fn disseminate_write(&mut self, cx: &mut AbCx, write: Payload) {
        let (_, out) = self.cb.broadcast(self.shelf.make(write));
        Self::route_causal(cx, out);
    }

    /// The commit request goes through atomic broadcast, carrying the
    /// version snapshot taken now: its slot in the total order validates
    /// it.
    fn request_commit(&mut self, cx: &mut AbCx, txn: TxnId, prio: TxnPriority, n_writes: usize) {
        let local = &cx.st.local[&txn];
        let request = self.shelf.make(Payload::CommitReq {
            txn,
            prio,
            n_writes,
            read_versions: cx.st.reads.run(&local.reads_observed).to_vec(),
            write_versions: local
                .spec
                .writes()
                .iter()
                .map(|w| (w.key.clone(), self.latest_writer.get(&w.key).copied()))
                .collect(),
        });
        cx.st.trace_commit_req_out(txn, cx.now);
        match &mut self.ab {
            Abcast::Seq(ab) => Self::route_total(cx, ab.broadcast(request).1),
            Abcast::Isis(ab) => Self::route_total(cx, ab.broadcast(request).1),
            Abcast::Ring(ab) => Self::route_total(cx, ab.broadcast(request).1),
        }
    }

    fn on_deliver(&mut self, cx: &mut AbCx, d: AbDelivery) {
        match d {
            AbDelivery::Causal(d) => {
                if let Payload::Write {
                    txn, prio, op, of, ..
                } = &*d.payload
                {
                    // Record the op only — no locks; applies happen in
                    // total order.
                    let Some(entry) = cx.st.remote_entry(*txn, *prio) else {
                        return;
                    };
                    entry.ops.push(op.clone());
                    entry.n_writes = Some(*of);
                    // A commit request stalled on this write set may now
                    // proceed.
                    self.drain_cert_queue(cx);
                }
            }
            AbDelivery::Total(d) => {
                if let Payload::CommitReq { txn, .. } = &*d.payload {
                    let (txn, gseq, me, now) = (*txn, d.gseq, cx.st.me, cx.now);
                    cx.st.tracer.emit(|| TraceEvent::TotalOrder {
                        at: now,
                        site: me,
                        txn: txn_ref(txn),
                        gseq,
                    });
                    self.cert_queue.push_back(d.payload);
                    self.drain_cert_queue(cx);
                }
            }
        }
    }

    /// The sequencer and the ring install the view (keyed by its id) and
    /// start the ordering core's repair round under its coordinator;
    /// transactions from departed origins abort (their commit request may
    /// never be ordered), which may unblock the certification queue.
    fn set_view(&mut self, cx: &mut AbCx, view_id: u64) {
        let roster: Vec<SiteId> = cx.quorum.view.iter().copied().collect();
        match &mut self.ab {
            Abcast::Seq(ab) => Self::route_total(cx, ab.set_view(&roster, view_id)),
            Abcast::Ring(ab) => Self::route_total(cx, ab.set_view(&roster, view_id)),
            Abcast::Isis(_) => {}
        }
        sweep_view(self, cx);
        self.drain_cert_queue(cx);
    }

    fn snapshot(&self) -> ProtoSnapshot {
        ProtoSnapshot::Atomic(AbSnapshot {
            causal: self.cb.clock().clone(),
            order: match &self.ab {
                Abcast::Seq(a) => AbcastPos::Core(a.snapshot()),
                Abcast::Isis(a) => AbcastPos::Isis(a.lamport(), a.delivered_count()),
                Abcast::Ring(a) => AbcastPos::Core(a.snapshot()),
            },
            latest_writer: self.latest_writer.clone(),
        })
    }

    /// The ordering core adopts the donor's view, watermark and ordered
    /// ids; the repair round of the view change that readmits this site
    /// refills what is undelivered.
    fn resume(&mut self, donor: &ProtoSnapshot, _view: &BTreeSet<SiteId>) {
        let ProtoSnapshot::Atomic(donor) = donor else {
            return;
        };
        self.cb.resume_from(&donor.causal);
        match (&mut self.ab, &donor.order) {
            (Abcast::Seq(a), AbcastPos::Core(snap)) => a.resume_from(snap),
            (Abcast::Isis(a), AbcastPos::Isis(l, d)) => a.resume_from(*l, *d),
            (Abcast::Ring(a), AbcastPos::Core(snap)) => a.resume_from(snap),
            _ => {}
        }
        self.latest_writer.clone_from(&donor.latest_writer);
        self.cert_queue.clear();
    }

    /// Each backend reports its own gauges: the ring its pipeline and
    /// repair log, the other two their duplicate trackers.
    fn sample_stats(&self, me: SiteId, sample: &mut SampleWriter) {
        match &self.ab {
            Abcast::Seq(a) => sample.set_site(me, "abcast.dedup_live", a.dedup_live() as u64),
            Abcast::Isis(a) => sample.set_site(me, "abcast.dedup_live", a.dedup_live() as u64),
            Abcast::Ring(a) => {
                sample.set_site(me, "ring.inflight", a.inflight());
                sample.set_site(me, "ring.forwarded", a.forwarded_count());
                sample.set_site(me, "ring.ordered_len", a.ordered_len() as u64);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::payload::ProtocolKind;
    use crate::protocols::tests::cfg;
    use crate::protocols::Driver;
    use bcastdb_broadcast::msg::MsgId;
    use bcastdb_db::TxnSpec;

    type Rig = crate::protocols::tests::Rig<Driver<AtomicProto>>;

    fn rig(n: usize, imp: AbcastImpl) -> Rig {
        Rig::of(&ClusterConfig {
            abcast: Some(imp),
            ..cfg(n, ProtocolKind::AtomicBcast)
        })
    }

    /// A late duplicate of `payload`, down both of this protocol's
    /// delivery paths.
    pub(crate) fn redeliver(p: &Driver<AtomicProto>, payload: Payload) -> Vec<AbDelivery> {
        let id = MsgId {
            origin: SiteId(1),
            seq: 99,
        };
        let payload = Arc::new(payload);
        let causal = causal::Delivery {
            id,
            vc: p.rules.cb.clock().clone(),
            payload: payload.clone(),
        };
        let gseq = 99;
        let total = TotalDelivery { gseq, id, payload };
        vec![AbDelivery::Causal(causal), AbDelivery::Total(total)]
    }

    /// No settled commit request is left queued for certification.
    pub(crate) fn idle(p: &AtomicProto) -> bool {
        p.cert_queue.is_empty()
    }

    #[test]
    fn commits_with_no_acknowledgement_traffic() {
        for imp in [AbcastImpl::Sequencer, AbcastImpl::Isis, AbcastImpl::Ring] {
            let mut rig = rig(3, imp);
            let id = rig.submit(1, 1, TxnSpec::new().write("x", 4));
            rig.settle();
            for (i, st) in rig.states.iter().enumerate() {
                assert_eq!(st.decided.get(&id), Some(true), "{imp:?} site {i}");
                assert_eq!(st.store.value(&"x".into()), 4, "{imp:?} site {i}");
                assert!(st.remote.is_empty(), "{imp:?} site {i} retired the entry");
            }
            assert_eq!(rig.vote_msgs(), 0, "{imp:?}: no vote round");
        }
    }

    #[test]
    fn certification_aborts_the_later_conflicting_writer() {
        let mut rig = rig(3, AbcastImpl::Sequencer);
        // Both broadcast against the same (initial) version of x without
        // seeing each other: the one ordered second fails certification.
        let a = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        let b = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        rig.settle();
        let (winner, loser) = if rig.states[0].decided.get(&a) == Some(true) {
            (a, b)
        } else {
            (b, a)
        };
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&winner), Some(true), "site {i}");
            assert_eq!(st.decided.get(&loser), Some(false), "site {i}");
        }
        // The abort is a certification failure at the origin.
        let origin = &rig.states[loser.origin.0];
        assert_eq!(origin.metrics.counters.get("abort_certification"), 1);
    }

    #[test]
    fn stale_read_fails_certification() {
        let mut rig = rig(3, AbcastImpl::Sequencer);
        // T reads x (initial version) at site 2 but its commit request is
        // ordered after W's commit of x: the read-version check fails.
        let t = {
            // Begin T's read phase but do not finish the write phase yet:
            // craft by submitting with a read of x and a write of y, while
            // W's commit slips in between T's read and T's ordering slot.
            // With the in-memory rig everything is instantaneous, so order
            // the wires manually: submit W first but deliver T's commit
            // request last.
            let w = rig.submit(0, 10, TxnSpec::new().write("x", 7));
            let t = rig.submit(2, 20, TxnSpec::new().read("x").write("y", 1));
            // T read the initial version of x (W not yet delivered), and
            // its commit request is sequenced after W's.
            rig.settle();
            assert_eq!(rig.states[0].decided.get(&w), Some(true), "w committed");
            t
        };
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(
                st.decided.get(&t),
                Some(false),
                "site {i}: stale read must fail certification"
            );
        }
    }

    #[test]
    fn applies_follow_total_order_on_every_site() {
        let mut rig = rig(4, AbcastImpl::Isis);
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(rig.submit(
                i,
                10 + i as u64,
                TxnSpec::new().write(format!("k{i}").as_str(), i as i64),
            ));
        }
        rig.settle();
        // Disjoint keys: all four commit, and every site installed each key
        // exactly once.
        for st in &rig.states {
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(st.decided.get(id), Some(true));
                assert_eq!(st.store.value(&format!("k{i}").into()), i as i64);
            }
        }
    }
}
