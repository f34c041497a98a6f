//! Message and timer types exchanged by the replicas, and the protocol
//! selector.

use bcastdb_broadcast::atomic::SeqWire;
use bcastdb_broadcast::batch::{WireSize, BATCH_HEADER_BYTES, PER_MSG_OVERHEAD_BYTES};
use bcastdb_broadcast::membership::MemberWire;
use bcastdb_broadcast::ring::RingWire;
use bcastdb_broadcast::{causal, reliable};
use bcastdb_db::{Key, TxnId, TxnSpec, WriteOp};
use bcastdb_sim::telemetry::Phase;
use bcastdb_sim::SiteId;
use std::sync::Arc;

/// Which of the paper's protocols a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// §2 baseline: point-to-point ROWA with per-operation acknowledgements
    /// and decentralized 2PC. Subject to distributed deadlock (resolved by
    /// timeout).
    PointToPoint,
    /// §3: write operations over reliable broadcast, decentralized 2PC with
    /// broadcast votes, wound-wait deadlock prevention.
    ReliableBcast,
    /// §4: causal broadcast with implicit positive acknowledgements and
    /// early detection of concurrent conflicts via vector clocks.
    CausalBcast,
    /// §5: causally broadcast writes, atomically broadcast commit requests,
    /// deterministic certification — no acknowledgements at all.
    AtomicBcast,
}

impl ProtocolKind {
    /// All protocols, in paper order (useful for experiment sweeps).
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::PointToPoint,
        ProtocolKind::ReliableBcast,
        ProtocolKind::CausalBcast,
        ProtocolKind::AtomicBcast,
    ];

    /// Short stable name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::PointToPoint => "p2p-2pc",
            ProtocolKind::ReliableBcast => "reliable",
            ProtocolKind::CausalBcast => "causal",
            ProtocolKind::AtomicBcast => "atomic",
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which atomic-broadcast implementation the atomic protocol uses. Both
/// run the ordering core, so both survive a crash through its view change
/// and repair round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AbcastImpl {
    /// Fixed sequencer (site 0): fewest messages, 2 hops.
    #[default]
    Sequencer,
    /// Pipelined ring dissemination: `2N-1` messages, every link carries
    /// ~1x the payload bytes regardless of N (bandwidth-bound at scale).
    Ring,
}

/// A transaction's global priority: older (smaller) wins conflicts.
///
/// The submission timestamp comes first, so priority order approximates
/// age order; origin and number break ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnPriority {
    /// Virtual submission time in microseconds.
    pub ts: u64,
    /// Originating site.
    pub origin: SiteId,
    /// Per-origin transaction number.
    pub num: u64,
}

impl TxnPriority {
    /// The stand-in for a transaction whose real priority has not reached
    /// this site yet (it ranks last; the real one refines it on arrival).
    pub fn unknown(txn: TxnId) -> Self {
        TxnPriority {
            ts: u64::MAX,
            origin: txn.origin,
            num: txn.num,
        }
    }

    /// True iff `self` is older (= higher priority) than `other`.
    pub fn older_than(&self, other: &TxnPriority) -> bool {
        self < other
    }
}

/// Application payloads carried inside the broadcast primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// One write operation of an update transaction (§3/§4: operations are
    /// broadcast individually; FIFO/causal order puts them before the
    /// commit request).
    Write {
        /// The writing transaction.
        txn: TxnId,
        /// Its priority.
        prio: TxnPriority,
        /// The operation.
        op: WriteOp,
        /// Index of this op within the write set (0-based).
        index: usize,
        /// Total number of write ops of the transaction.
        of: usize,
    },
    /// Commit request concluding a transaction's write phase.
    CommitReq {
        /// The committing transaction.
        txn: TxnId,
        /// Its priority.
        prio: TxnPriority,
        /// Number of write operations that precede this request.
        n_writes: usize,
        /// For each key the transaction read, then each key it writes, the
        /// committed version (by writer) current at the origin when the
        /// request was broadcast (atomic protocol only): what deterministic
        /// certification checks.
        versions: Vec<(Key, Option<TxnId>)>,
    },
    /// A 2PC vote (reliable protocol): `site`'s verdict on `txn`,
    /// broadcast to all participants (decentralized 2PC).
    Vote {
        /// The voted-on transaction.
        txn: TxnId,
        /// The voting site.
        site: SiteId,
        /// `true` = ready to commit.
        yes: bool,
    },
    /// Explicit negative acknowledgement (causal protocol): `site` rejects
    /// `txn`. Positive acknowledgements are implicit in subsequent causal
    /// traffic.
    Nack {
        /// The rejected transaction.
        txn: TxnId,
        /// The rejecting site.
        site: SiteId,
    },
    /// Abort decision pushed by the origin (e.g. the transaction was
    /// wounded at its origin before commitment).
    AbortDecision {
        /// The aborted transaction.
        txn: TxnId,
    },
    /// Empty message whose only purpose is to carry a vector clock — the
    /// paper's mitigation for slow implicit acknowledgements on quiet
    /// sites.
    Null,
}

impl Payload {
    /// The transaction this payload concerns, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            Payload::Write { txn, .. }
            | Payload::CommitReq { txn, .. }
            | Payload::Vote { txn, .. }
            | Payload::Nack { txn, .. }
            | Payload::AbortDecision { txn } => Some(*txn),
            Payload::Null => None,
        }
    }
}

/// Wire-size estimate of one `(key, version)` certification entry.
fn version_entry_size(entry: &(Key, Option<TxnId>)) -> usize {
    entry.0.as_str().len() + 1 + if entry.1.is_some() { 16 } else { 0 }
}

/// Wire-size estimate of one write operation (key text + 8-byte value).
fn write_op_size(op: &WriteOp) -> usize {
    op.key.as_str().len() + 8
}

impl WireSize for Payload {
    fn wire_size(&self) -> usize {
        // TxnId ≈ 16 bytes, TxnPriority ≈ 24 bytes. Like all WireSize
        // estimates these only need to be deterministic and plausible —
        // the simulator charges transmission time per byte.
        match self {
            Payload::Write { op, .. } => 16 + 24 + write_op_size(op) + 8 + 8,
            Payload::CommitReq { versions, .. } => {
                16 + 24 + 8 + versions.iter().map(version_entry_size).sum::<usize>()
            }
            Payload::Vote { .. } => 16 + 8 + 1,
            Payload::Nack { .. } => 16 + 8,
            Payload::AbortDecision { .. } => 16,
            Payload::Null => 1,
        }
    }
}

/// Point-to-point messages of the §2 baseline (no broadcast layer).
#[derive(Debug, Clone, PartialEq)]
pub enum P2pMsg {
    /// Origin → site: one write operation.
    Write {
        /// The writing transaction.
        txn: TxnId,
        /// The operation.
        op: WriteOp,
        /// Index of the op within the write set.
        index: usize,
    },
    /// Site → origin: write `index` of `txn` has its lock.
    WriteAck {
        /// The acknowledged transaction.
        txn: TxnId,
        /// Which write op is acknowledged.
        index: usize,
    },
    /// Origin → site: request to commit.
    CommitReq {
        /// The committing transaction.
        txn: TxnId,
        /// Full write set (sites apply it on commit).
        writes: Vec<WriteOp>,
    },
    /// Site → everyone: decentralized 2PC vote.
    Vote {
        /// The voted-on transaction.
        txn: TxnId,
        /// The voting site.
        site: SiteId,
        /// `true` = ready to commit.
        yes: bool,
    },
    /// Origin → site: abort (deadlock timeout or wound).
    Abort {
        /// The aborted transaction.
        txn: TxnId,
    },
}

impl WireSize for P2pMsg {
    fn wire_size(&self) -> usize {
        match self {
            P2pMsg::Write { op, .. } => 16 + write_op_size(op) + 8,
            P2pMsg::WriteAck { .. } => 16 + 8,
            P2pMsg::CommitReq { writes, .. } => {
                16 + writes.iter().map(write_op_size).sum::<usize>()
            }
            P2pMsg::Vote { .. } => 16 + 8 + 1,
            P2pMsg::Abort { .. } => 16,
        }
    }
}

/// The top-level message type of a replica node: the union of every
/// primitive's wire format plus the baseline's point-to-point messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaMsg {
    /// Reliable-broadcast wire traffic. The payload body is `Arc`-shared:
    /// every per-destination copy of the wire is a refcount bump, and the
    /// body itself comes off the broadcasting site's payload `Shelf`.
    R(reliable::Wire<Arc<Payload>>),
    /// Causal-broadcast wire traffic (`Arc`-shared payload body, off the
    /// broadcasting site's `Shelf`).
    C(causal::Wire<Arc<Payload>>),
    /// Sequencer atomic-broadcast wire traffic (`Arc`-shared payload body).
    ASeq(SeqWire<Arc<Payload>>),
    /// Ring atomic-broadcast wire traffic (`Arc`-shared payload body).
    ARing(RingWire<Arc<Payload>>),
    /// Point-to-point baseline traffic.
    P2p(P2pMsg),
    /// Membership service traffic.
    Member(MemberWire),
    /// Loss-recovery sync: the sender's per-origin reliable-broadcast
    /// delivery watermarks; the receiver retransmits what the sender lacks.
    RSync(Arc<[u64]>),
    /// A retransmitted causal wire. Processed exactly like [`ReplicaMsg::C`]
    /// except it never triggers gap-report handling — retransmitted nulls
    /// carry stale clocks that must not solicit further retransmissions.
    CRetrans(causal::Wire<Arc<Payload>>),
    /// A batch of coalesced messages produced by the batching layer
    /// (`batch_window` enabled). The envelope is pure transport: the
    /// receiver unwraps and processes each inner message in order, and
    /// only the inner messages enter per-phase accounting — logical
    /// counts are identical with batching on or off.
    Batch(Vec<ReplicaMsg>),
}

/// Every broadcast engine's wire format travels as its own variant, so
/// engine output routes without naming the engine.
macro_rules! wire_variant {
    ($($wire:ty => $variant:ident),* $(,)?) => {$(
        impl From<$wire> for ReplicaMsg {
            fn from(wire: $wire) -> Self {
                ReplicaMsg::$variant(wire)
            }
        }
    )*};
}

wire_variant! {
    reliable::Wire<Arc<Payload>> => R,
    causal::Wire<Arc<Payload>> => C,
    SeqWire<Arc<Payload>> => ASeq,
    RingWire<Arc<Payload>> => ARing,
}

impl ReplicaMsg {
    /// The name a send of this message is counted under in
    /// [`Counters`](crate::Counters) besides its phase, for the three kinds
    /// read one by one: causal nulls, causal retransmissions and reliable
    /// watermark syncs.
    pub(crate) fn counter(&self) -> Option<&'static str> {
        let null = |p: &Payload| matches!(p, Payload::Null).then_some("msg_null");
        match self {
            ReplicaMsg::R(w) => null(&w.payload),
            ReplicaMsg::C(w) => null(&w.payload),
            ReplicaMsg::CRetrans(_) => Some("msg_retrans"),
            ReplicaMsg::RSync(_) => Some("msg_sync"),
            _ => None,
        }
    }

    /// The protocol [`Phase`] this message belongs to — the typed bucket
    /// used for per-phase traffic accounting. The mapping follows the
    /// paper's cost decomposition:
    ///
    /// - **prepare** — disseminating a transaction's effects: write
    ///   operations, commit requests, and the payload-carrying legs of the
    ///   atomic broadcast (sequencer submissions, ring data hops),
    /// - **vote** — explicit 2PC votes,
    /// - **ack** — acknowledgement-shaped control traffic: per-operation
    ///   write acks (baseline), negative acknowledgements and null
    ///   keep-alives (causal), ring cumulative window acks,
    /// - **decision** — outcome propagation: abort decisions, the
    ///   sequencer's orderings and slots, ring commits,
    /// - **retransmit** — loss recovery: retransmitted causal wires,
    ///   reliable-broadcast watermark syncs, sequencer and ring
    ///   view-change reports,
    /// - **membership** — heartbeats and view agreement.
    pub fn phase(&self) -> Phase {
        match self {
            ReplicaMsg::R(w) => Self::payload_phase(&w.payload),
            ReplicaMsg::C(w) => Self::payload_phase(&w.payload),
            ReplicaMsg::ASeq(w) => match w {
                SeqWire::Submit { .. } => Phase::Prepare,
                SeqWire::Ordered { .. } | SeqWire::Slot { .. } => Phase::Decision,
                SeqWire::Repair(_) => Phase::Retransmit,
            },
            ReplicaMsg::ARing(w) => match w {
                RingWire::Data { .. } => Phase::Prepare,
                RingWire::Commit { .. } => Phase::Decision,
                RingWire::Ack { .. } => Phase::Ack,
                RingWire::Repair(_) => Phase::Retransmit,
            },
            ReplicaMsg::P2p(m) => match m {
                P2pMsg::Write { .. } | P2pMsg::CommitReq { .. } => Phase::Prepare,
                P2pMsg::WriteAck { .. } => Phase::Ack,
                P2pMsg::Vote { .. } => Phase::Vote,
                P2pMsg::Abort { .. } => Phase::Decision,
            },
            ReplicaMsg::Member(_) => Phase::Membership,
            ReplicaMsg::RSync(_) | ReplicaMsg::CRetrans(_) => Phase::Retransmit,
            // The batch envelope never enters per-phase accounting (the
            // engine counts and traces its inner messages individually);
            // report the first inner message's phase for completeness.
            ReplicaMsg::Batch(msgs) => msgs.first().map_or(Phase::Ack, |m| m.phase()),
        }
    }

    fn payload_phase(p: &Payload) -> Phase {
        match p {
            Payload::Write { .. } | Payload::CommitReq { .. } => Phase::Prepare,
            Payload::Vote { .. } => Phase::Vote,
            Payload::Nack { .. } | Payload::Null => Phase::Ack,
            Payload::AbortDecision { .. } => Phase::Decision,
        }
    }

    /// Estimated wire size in bytes — what a batched transmission charges
    /// the simulated link for this message (the unbatched send path keeps
    /// the simulator's fixed default size, byte-for-byte identical to the
    /// pre-batching behavior).
    pub fn size_hint(&self) -> usize {
        self.wire_size()
    }
}

impl WireSize for ReplicaMsg {
    fn wire_size(&self) -> usize {
        // 1 tag byte + the variant's wire format.
        1 + match self {
            ReplicaMsg::R(w) => w.wire_size(),
            ReplicaMsg::C(w) | ReplicaMsg::CRetrans(w) => w.wire_size(),
            ReplicaMsg::ASeq(w) => w.wire_size(),
            ReplicaMsg::ARing(w) => w.wire_size(),
            ReplicaMsg::P2p(m) => m.wire_size(),
            ReplicaMsg::Member(w) => w.wire_size(),
            ReplicaMsg::RSync(watermarks) => 8 * watermarks.len(),
            ReplicaMsg::Batch(msgs) => {
                BATCH_HEADER_BYTES
                    + msgs
                        .iter()
                        .map(|m| PER_MSG_OVERHEAD_BYTES + m.wire_size())
                        .sum::<usize>()
            }
        }
    }
}

/// Timer tags of a replica node.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaTimer {
    /// A client submits a transaction at this site.
    Submit(TxnSpec),
    /// Periodic tick: membership heartbeats, causal-protocol null
    /// messages, deadlock/timeout checks.
    Tick,
    /// Think time elapsed: the local transaction issues its next read.
    ReadStep(TxnId),
    /// Think time elapsed: the local transaction broadcasts its next write
    /// operation (or, after the last one, its commit request).
    WriteStep(TxnId),
    /// Batching flush window expired: send every pending batch.
    FlushBatch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcastdb_broadcast::order::Report;

    #[test]
    fn priority_orders_by_age_then_site() {
        let a = TxnPriority {
            ts: 5,
            origin: SiteId(1),
            num: 1,
        };
        let b = TxnPriority {
            ts: 9,
            origin: SiteId(0),
            num: 1,
        };
        let c = TxnPriority {
            ts: 5,
            origin: SiteId(2),
            num: 1,
        };
        assert!(a.older_than(&b), "earlier timestamp wins");
        assert!(a.older_than(&c), "site breaks timestamp ties");
        assert!(!b.older_than(&a));
    }

    #[test]
    fn payload_txn_extraction() {
        let t = TxnId::new(SiteId(0), 1);
        assert_eq!(Payload::AbortDecision { txn: t }.txn(), Some(t));
        assert_eq!(Payload::Null.txn(), None);
    }

    #[test]
    fn protocol_names_are_stable() {
        let names: Vec<&str> = ProtocolKind::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["p2p-2pc", "reliable", "causal", "atomic"]);
        assert_eq!(ProtocolKind::CausalBcast.to_string(), "causal");
    }

    #[test]
    fn abcast_impl_defaults_to_sequencer() {
        assert_eq!(AbcastImpl::default(), AbcastImpl::Sequencer);
    }

    #[test]
    fn every_message_maps_to_its_documented_phase() {
        use bcastdb_broadcast::msg::MsgId;
        let t = TxnId::new(SiteId(0), 1);
        let id = MsgId {
            origin: SiteId(0),
            seq: 1,
        };
        let wire = |p: Payload| reliable::Wire {
            id,
            payload: Arc::new(p),
        };
        let cases: Vec<(ReplicaMsg, Phase)> = vec![
            (
                ReplicaMsg::R(wire(Payload::Write {
                    txn: t,
                    prio: TxnPriority {
                        ts: 0,
                        origin: SiteId(0),
                        num: 1,
                    },
                    op: WriteOp {
                        key: Key::new("x"),
                        value: 1,
                    },
                    index: 0,
                    of: 1,
                })),
                Phase::Prepare,
            ),
            (
                ReplicaMsg::R(wire(Payload::Vote {
                    txn: t,
                    site: SiteId(1),
                    yes: true,
                })),
                Phase::Vote,
            ),
            (
                ReplicaMsg::R(wire(Payload::Nack {
                    txn: t,
                    site: SiteId(1),
                })),
                Phase::Ack,
            ),
            (ReplicaMsg::R(wire(Payload::Null)), Phase::Ack),
            (
                ReplicaMsg::R(wire(Payload::AbortDecision { txn: t })),
                Phase::Decision,
            ),
            (
                ReplicaMsg::ASeq(SeqWire::Submit {
                    id,
                    payload: Arc::new(Payload::Null),
                }),
                Phase::Prepare,
            ),
            (
                ReplicaMsg::ASeq(SeqWire::Ordered {
                    gseq: 1,
                    id,
                    payload: Arc::new(Payload::Null),
                }),
                Phase::Decision,
            ),
            (
                ReplicaMsg::ASeq(SeqWire::Slot { gseq: 1, id }),
                Phase::Decision,
            ),
            (
                ReplicaMsg::ASeq(SeqWire::Repair(Report {
                    site: SiteId(1),
                    epoch: 1,
                    entries: vec![(0, id)],
                    delivered: 0,
                })),
                Phase::Retransmit,
            ),
            (
                ReplicaMsg::ARing(RingWire::Data {
                    id,
                    payload: Arc::new(Payload::Null),
                    stable: 0,
                }),
                Phase::Prepare,
            ),
            (
                ReplicaMsg::ARing(RingWire::Commit {
                    epoch: 0,
                    gseq: 1,
                    id,
                }),
                Phase::Decision,
            ),
            (ReplicaMsg::ARing(RingWire::Ack { upto: 1 }), Phase::Ack),
            (
                ReplicaMsg::ARing(RingWire::Repair(Report {
                    site: SiteId(1),
                    epoch: 1,
                    entries: vec![(0, id)],
                    delivered: 0,
                })),
                Phase::Retransmit,
            ),
            (
                ReplicaMsg::P2p(P2pMsg::WriteAck { txn: t, index: 0 }),
                Phase::Ack,
            ),
            (ReplicaMsg::P2p(P2pMsg::Abort { txn: t }), Phase::Decision),
            (ReplicaMsg::RSync(Arc::new([0, 0])), Phase::Retransmit),
        ];
        for (msg, want) in cases {
            assert_eq!(msg.phase(), want, "{msg:?}");
        }
    }

    /// Satellite of the bandwidth model: `size_hint` (what the batching
    /// layer charges the link) must agree with `WireSize` for every
    /// `ReplicaMsg` variant, and both must match an independently computed
    /// byte layout. The match below is wildcard-free, so adding a message
    /// variant without sizing it here fails to compile — silent
    /// bandwidth-model drift becomes a compile error.
    #[test]
    fn wire_size_matches_encoded_layout_for_every_replica_msg() {
        use bcastdb_broadcast::msg::MsgId;
        use bcastdb_broadcast::VectorClock;
        let t = TxnId::new(SiteId(0), 1);
        let id = MsgId {
            origin: SiteId(0),
            seq: 1,
        };
        let null = || Arc::new(Payload::Null);
        let vc = VectorClock::new(3);
        let view = bcastdb_broadcast::View::initial(3);
        let exemplars: Vec<ReplicaMsg> = vec![
            ReplicaMsg::R(reliable::Wire {
                id,
                payload: null(),
            }),
            ReplicaMsg::C(causal::Wire {
                id,
                stamp: causal::Stamp::Full(vc.clone()),
                payload: null(),
            }),
            ReplicaMsg::C(causal::Wire {
                id,
                stamp: causal::Stamp::Delta(Arc::new(vec![(SiteId(1), 4), (SiteId(2), 7)])),
                payload: null(),
            }),
            ReplicaMsg::CRetrans(causal::Wire {
                id,
                stamp: causal::Stamp::Delta(Arc::new(Vec::new())),
                payload: null(),
            }),
            ReplicaMsg::ASeq(SeqWire::Submit {
                id,
                payload: null(),
            }),
            ReplicaMsg::ASeq(SeqWire::Ordered {
                gseq: 1,
                id,
                payload: null(),
            }),
            ReplicaMsg::ASeq(SeqWire::Slot { gseq: 1, id }),
            ReplicaMsg::ASeq(SeqWire::Repair(Report {
                site: SiteId(1),
                epoch: 1,
                entries: vec![(0, id), (1, id)],
                delivered: 0,
            })),
            ReplicaMsg::ARing(RingWire::Data {
                id,
                payload: null(),
                stable: 0,
            }),
            ReplicaMsg::ARing(RingWire::Commit {
                epoch: 0,
                gseq: 1,
                id,
            }),
            ReplicaMsg::ARing(RingWire::Ack { upto: 1 }),
            ReplicaMsg::ARing(RingWire::Repair(Report {
                site: SiteId(1),
                epoch: 1,
                entries: vec![(0, id), (1, id)],
                delivered: 0,
            })),
            ReplicaMsg::P2p(P2pMsg::Write {
                txn: t,
                op: WriteOp {
                    key: Key::new("x"),
                    value: 1,
                },
                index: 0,
            }),
            ReplicaMsg::P2p(P2pMsg::WriteAck { txn: t, index: 0 }),
            ReplicaMsg::P2p(P2pMsg::CommitReq {
                txn: t,
                writes: vec![WriteOp {
                    key: Key::new("x"),
                    value: 1,
                }],
            }),
            ReplicaMsg::P2p(P2pMsg::Vote {
                txn: t,
                site: SiteId(1),
                yes: true,
            }),
            ReplicaMsg::P2p(P2pMsg::Abort { txn: t }),
            ReplicaMsg::Member(MemberWire::Heartbeat),
            ReplicaMsg::Member(MemberWire::Propose(view.clone())),
            ReplicaMsg::RSync(Arc::new([0, 0, 0])),
            ReplicaMsg::Batch(vec![
                ReplicaMsg::ARing(RingWire::Ack { upto: 1 }),
                ReplicaMsg::Member(MemberWire::Heartbeat),
            ]),
        ];
        // The documented layouts, written out independently of the
        // `WireSize` impls: MsgId = 16, one u64 per counter/watermark,
        // `Payload::Null` = 1, a WriteOp = key bytes + 8-byte value; a
        // causal stamp is one u64 per site in full, or a u16 count and a
        // u16 site + u64 value per changed entry as a delta.
        let body = |m: &ReplicaMsg| -> usize {
            match m {
                ReplicaMsg::R(w) => 16 + w.payload.wire_size(),
                ReplicaMsg::C(w) | ReplicaMsg::CRetrans(w) => {
                    let stamp = match &w.stamp {
                        causal::Stamp::Full(vc) => 8 * vc.len(),
                        causal::Stamp::Delta(changed) => 2 + (2 + 8) * changed.len(),
                    };
                    16 + stamp + w.payload.wire_size()
                }
                ReplicaMsg::ASeq(SeqWire::Submit { payload, .. }) => 16 + payload.wire_size(),
                ReplicaMsg::ASeq(SeqWire::Ordered { payload, .. }) => 8 + 16 + payload.wire_size(),
                ReplicaMsg::ASeq(SeqWire::Slot { .. }) => 8 + 16,
                ReplicaMsg::ASeq(SeqWire::Repair(r)) => 8 + 8 + 8 + 24 * r.entries.len(),
                ReplicaMsg::ARing(RingWire::Data { payload, .. }) => 16 + payload.wire_size() + 8,
                ReplicaMsg::ARing(RingWire::Commit { .. }) => 8 + 8 + 16,
                ReplicaMsg::ARing(RingWire::Ack { .. }) => 8,
                ReplicaMsg::ARing(RingWire::Repair(r)) => 8 + 8 + 8 + 24 * r.entries.len(),
                ReplicaMsg::P2p(P2pMsg::Write { op, .. }) => 16 + (op.key.as_str().len() + 8) + 8,
                ReplicaMsg::P2p(P2pMsg::WriteAck { .. }) => 16 + 8,
                ReplicaMsg::P2p(P2pMsg::CommitReq { writes, .. }) => {
                    16 + writes
                        .iter()
                        .map(|op| op.key.as_str().len() + 8)
                        .sum::<usize>()
                }
                ReplicaMsg::P2p(P2pMsg::Vote { .. }) => 16 + 8 + 1,
                ReplicaMsg::P2p(P2pMsg::Abort { .. }) => 16,
                ReplicaMsg::Member(MemberWire::Heartbeat) => 1,
                ReplicaMsg::Member(MemberWire::Propose(v)) => 1 + 8 + 8 * v.members.len(),
                ReplicaMsg::RSync(w) => 8 * w.len(),
                ReplicaMsg::Batch(msgs) => {
                    let inner: usize = msgs
                        .iter()
                        .map(|m| PER_MSG_OVERHEAD_BYTES + m.wire_size())
                        .sum();
                    BATCH_HEADER_BYTES + inner
                }
            }
        };
        for msg in &exemplars {
            let expected = 1 + body(msg); // 1 tag byte + the variant body
            assert_eq!(
                msg.wire_size(),
                expected,
                "WireSize drifted from the documented layout: {msg:?}"
            );
            assert_eq!(
                msg.size_hint(),
                msg.wire_size(),
                "size_hint must charge exactly the wire size: {msg:?}"
            );
        }
    }
}
