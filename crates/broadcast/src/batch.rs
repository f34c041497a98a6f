//! Message batching and piggybacking for the broadcast layer.
//!
//! The paper's protocols cut the *number* of messages a transaction needs,
//! but every remaining message still pays a full wire transmission. Under a
//! finite-bandwidth link model that per-message cost dominates long before
//! the protocol logic saturates — the classic remedy in group communication
//! systems (ISIS-style message packing) is to coalesce outgoing messages
//! per destination and let acknowledgement-shaped traffic ride along with
//! whatever is leaving anyway.
//!
//! [`Batcher`] is that mechanism, kept sans-IO like the broadcast engines:
//! the embedding node pushes wire messages tagged with their destination,
//! and the batcher hands back full batches when a size cap would overflow
//! or when the node's flush window expires ([`Batcher::flush_all`]). The
//! batcher never reorders: messages to one destination leave in push order,
//! so per-link FIFO is preserved end to end. Piggybacking falls out of the
//! design for free — a sequencer ack, stability ack, or 2PC vote pushed
//! between two data messages simply shares their batch instead of occupying
//! its own wire transmission.
//!
//! Accounting contract: the embedding layer counts *logical* messages when
//! they are pushed (so per-phase protocol accounting is independent of
//! batching) and *wire* transmissions when batches flush. With batching
//! disabled the batcher is never constructed and the send path is
//! unchanged.

use crate::msg::MsgId;
use bcastdb_sim::SiteId;

/// Fixed per-batch framing overhead (envelope header), in bytes.
pub const BATCH_HEADER_BYTES: usize = 8;

/// Fixed per-message framing overhead inside a batch (length prefix +
/// message tag), in bytes.
pub const PER_MSG_OVERHEAD_BYTES: usize = 2;

/// Estimated serialized size of a wire message, in bytes.
///
/// The simulator charges transmission time per byte, so these estimates
/// only need to be *consistent*, not exact: every implementation is a
/// deterministic function of the message structure.
pub trait WireSize {
    /// Estimated serialized size in bytes.
    fn wire_size(&self) -> usize;
}

impl WireSize for MsgId {
    fn wire_size(&self) -> usize {
        16 // origin (8) + per-origin sequence number (8)
    }
}

impl<T: WireSize + ?Sized> WireSize for std::sync::Arc<T> {
    /// A shared payload serializes exactly like the payload itself — the
    /// `Arc` exists only so an N-site fan-out can share one allocation.
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
}

/// A flushed batch: every message pushed for `to` since the last flush,
/// in push order, plus the wire size of the whole envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch<M> {
    /// Destination site.
    pub to: SiteId,
    /// The coalesced messages, in push order.
    pub msgs: Vec<M>,
    /// Wire size of the envelope: header + framed payloads.
    pub bytes: usize,
}

#[derive(Debug)]
struct Pending<M> {
    msgs: Vec<M>,
    bytes: usize,
}

impl<M> Pending<M> {
    fn new() -> Self {
        Pending {
            msgs: Vec::new(),
            bytes: BATCH_HEADER_BYTES,
        }
    }

    /// Hands the pending messages out as a batch for `to` and starts the
    /// next one with room for as many.
    fn take(&mut self, to: SiteId) -> Batch<M> {
        let next = Vec::with_capacity(self.msgs.len());
        let bytes = std::mem::replace(&mut self.bytes, BATCH_HEADER_BYTES);
        Batch {
            to,
            msgs: std::mem::replace(&mut self.msgs, next),
            bytes,
        }
    }
}

/// The size cap replicas give their [`Batcher`]: one Ethernet payload
/// (1 500 bytes less IP and UDP headers, rounded down).
pub const BATCH_MAX_BYTES: usize = 1_400;

/// Coalesces outgoing wire messages per destination up to a size cap.
///
/// Deterministic by construction: pending batches are slots indexed by
/// destination, so [`Batcher::flush_into`] always drains in ascending site
/// order regardless of push order. A slot outlives its flushes, so a
/// steady stream to a destination allocates only the batches it hands out.
#[derive(Debug)]
pub struct Batcher<M> {
    max_bytes: usize,
    slots: Vec<Pending<M>>,
    /// Messages queued across all slots.
    queued: usize,
}

impl<M: WireSize> Batcher<M> {
    /// Creates a batcher whose batches never exceed `max_bytes` (envelope
    /// included) unless a single message alone is larger than the cap.
    pub fn new(max_bytes: usize) -> Self {
        Batcher {
            max_bytes: max_bytes.max(BATCH_HEADER_BYTES + PER_MSG_OVERHEAD_BYTES + 1),
            slots: Vec::new(),
            queued: 0,
        }
    }

    /// Queues `msg` for `to`. If adding it would push the pending batch
    /// over the size cap, the pending batch is returned (ready to send)
    /// and `msg` starts the next one.
    pub fn push(&mut self, to: SiteId, msg: M) -> Option<Batch<M>> {
        self.push_sized(to, msg.wire_size(), msg)
    }

    /// [`Batcher::push`] of a message whose wire size is `size`, for a
    /// sender that queues one message for many destinations.
    pub fn push_sized(&mut self, to: SiteId, size: usize, msg: M) -> Option<Batch<M>> {
        let framed = PER_MSG_OVERHEAD_BYTES + size;
        if self.slots.len() <= to.0 {
            self.slots.resize_with(to.0 + 1, Pending::new);
        }
        let slot = &mut self.slots[to.0];
        let full = if !slot.msgs.is_empty() && slot.bytes + framed > self.max_bytes {
            let done = slot.take(to);
            self.queued -= done.msgs.len();
            Some(done)
        } else {
            None
        };
        slot.msgs.push(msg);
        slot.bytes += framed;
        self.queued += 1;
        full
    }

    /// True iff nothing is queued for any destination.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Number of messages currently queued for `to`.
    pub fn pending_for(&self, to: SiteId) -> usize {
        self.slots.get(to.0).map_or(0, |p| p.msgs.len())
    }

    /// Total messages currently queued across all destinations.
    pub fn pending_msgs(&self) -> usize {
        self.queued
    }

    /// Total envelope bytes currently queued across all destinations
    /// (header included for each non-empty pending batch).
    pub fn pending_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter(|p| !p.msgs.is_empty())
            .map(|p| p.bytes)
            .sum()
    }

    /// Appends every pending batch to `out`, in ascending destination
    /// order.
    pub fn flush_into(&mut self, out: &mut Vec<Batch<M>>) {
        for (to, slot) in self.slots.iter_mut().enumerate() {
            if !slot.msgs.is_empty() {
                out.push(slot.take(SiteId(to)));
            }
        }
        self.queued = 0;
    }

    /// Drains every pending batch, in ascending destination order.
    pub fn flush_all(&mut self) -> Vec<Batch<M>> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test message with an explicit size.
    #[derive(Debug, Clone, PartialEq)]
    struct Sized(u64, usize);

    impl WireSize for Sized {
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn messages_coalesce_per_destination_in_push_order() {
        let mut b = Batcher::new(1_400);
        assert!(b.push(SiteId(1), Sized(1, 10)).is_none());
        assert!(b.push(SiteId(2), Sized(2, 10)).is_none());
        assert!(b.push(SiteId(1), Sized(3, 10)).is_none());
        assert_eq!(b.pending_for(SiteId(1)), 2);
        assert_eq!(b.pending_for(SiteId(2)), 1);
        let batches = b.flush_all();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].to, SiteId(1));
        assert_eq!(batches[0].msgs, vec![Sized(1, 10), Sized(3, 10)]);
        assert_eq!(
            batches[0].bytes,
            BATCH_HEADER_BYTES + 2 * (PER_MSG_OVERHEAD_BYTES + 10)
        );
        assert_eq!(batches[1].to, SiteId(2));
        assert!(b.is_empty(), "flush_all drains everything");
    }

    #[test]
    fn size_cap_closes_the_batch_early() {
        // Cap fits exactly two 40-byte messages (8 + 2*(2+40) = 92).
        let mut b = Batcher::new(92);
        assert!(b.push(SiteId(1), Sized(1, 40)).is_none());
        assert!(b.push(SiteId(1), Sized(2, 40)).is_none());
        let full = b.push(SiteId(1), Sized(3, 40)).expect("cap overflow");
        assert_eq!(full.msgs, vec![Sized(1, 40), Sized(2, 40)]);
        assert_eq!(full.bytes, 92);
        // The overflowing message starts the next batch.
        assert_eq!(b.pending_for(SiteId(1)), 1);
        let rest = b.flush_all();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].msgs, vec![Sized(3, 40)]);
    }

    #[test]
    fn oversized_message_still_travels_alone() {
        let mut b = Batcher::new(64);
        // Larger than the cap by itself: accepted as a singleton batch
        // rather than rejected (the cap bounds coalescing, not messages).
        assert!(b.push(SiteId(0), Sized(1, 500)).is_none());
        let batches = b.flush_all();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].msgs.len(), 1);
        assert!(batches[0].bytes > 64);
    }

    #[test]
    fn flush_order_is_deterministic_by_site() {
        let mut b = Batcher::new(1_400);
        for site in [3usize, 0, 2, 1] {
            b.push(SiteId(site), Sized(site as u64, 8));
        }
        let order: Vec<SiteId> = b.flush_all().into_iter().map(|x| x.to).collect();
        assert_eq!(order, vec![SiteId(0), SiteId(1), SiteId(2), SiteId(3)]);
    }

    #[test]
    fn pending_totals_track_queued_messages() {
        let mut b = Batcher::new(1_400);
        assert_eq!((b.pending_msgs(), b.pending_bytes()), (0, 0));
        b.push(SiteId(1), Sized(1, 10));
        b.push(SiteId(2), Sized(2, 30));
        assert_eq!(b.pending_msgs(), 2);
        assert_eq!(
            b.pending_bytes(),
            2 * BATCH_HEADER_BYTES + (PER_MSG_OVERHEAD_BYTES + 10) + (PER_MSG_OVERHEAD_BYTES + 30)
        );
        b.flush_all();
        assert_eq!((b.pending_msgs(), b.pending_bytes()), (0, 0));
    }

    #[test]
    fn empty_batcher_flushes_nothing() {
        let mut b: Batcher<Sized> = Batcher::new(1_400);
        assert!(b.is_empty());
        assert!(b.flush_all().is_empty());
        assert_eq!(b.pending_for(SiteId(0)), 0);
    }
}

/// The batcher as it was before its slots were indexed by destination — a
/// `BTreeMap` of pending batches that every flush takes whole — kept as
/// the reference the indexed one is held to.
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    struct Oracle<M> {
        max_bytes: usize,
        pending: BTreeMap<SiteId, Pending<M>>,
    }

    impl<M: WireSize> Oracle<M> {
        fn new(max_bytes: usize) -> Self {
            Oracle {
                max_bytes: max_bytes.max(BATCH_HEADER_BYTES + PER_MSG_OVERHEAD_BYTES + 1),
                pending: BTreeMap::new(),
            }
        }

        fn push(&mut self, to: SiteId, msg: M) -> Option<Batch<M>> {
            let framed = PER_MSG_OVERHEAD_BYTES + msg.wire_size();
            let slot = self.pending.entry(to).or_insert_with(Pending::new);
            let full = if !slot.msgs.is_empty() && slot.bytes + framed > self.max_bytes {
                let done = std::mem::replace(slot, Pending::new());
                Some(Batch {
                    to,
                    msgs: done.msgs,
                    bytes: done.bytes,
                })
            } else {
                None
            };
            let slot = self.pending.get_mut(&to).expect("slot just ensured");
            slot.msgs.push(msg);
            slot.bytes += framed;
            full
        }

        fn is_empty(&self) -> bool {
            self.pending.values().all(|p| p.msgs.is_empty())
        }

        fn pending_for(&self, to: SiteId) -> usize {
            self.pending.get(&to).map_or(0, |p| p.msgs.len())
        }

        fn pending_msgs(&self) -> usize {
            self.pending.values().map(|p| p.msgs.len()).sum()
        }

        fn pending_bytes(&self) -> usize {
            (self.pending.values())
                .filter(|p| !p.msgs.is_empty())
                .map(|p| p.bytes)
                .sum()
        }

        fn flush_all(&mut self) -> Vec<Batch<M>> {
            let drained = std::mem::take(&mut self.pending);
            drained
                .into_iter()
                .filter(|(_, p)| !p.msgs.is_empty())
                .map(|(to, p)| Batch {
                    to,
                    msgs: p.msgs,
                    bytes: p.bytes,
                })
                .collect()
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(u64, usize);

    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Destination, wire size: usually small, sometimes past the cap.
        Push(usize, usize),
        Flush,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..7, 0usize..60).prop_map(|(to, size)| Op::Push(to, size)),
            (0usize..7, 0usize..60).prop_map(|(to, size)| Op::Push(to, size)),
            (0usize..7, 0usize..60).prop_map(|(to, size)| Op::Push(to, size)),
            (0usize..7, 150usize..400).prop_map(|(to, size)| Op::Push(to, size)),
            Just(Op::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Destinations pushed out of order, the size cap hit between
        /// flushes, messages larger than the cap: both batchers hand out
        /// the same batches in the same order, and agree on what is
        /// pending after every step.
        #[test]
        fn indexed_batcher_agrees_with_the_oracle(
            cap in 0usize..300,
            ops in proptest::collection::vec(op(), 0..200)
        ) {
            let mut new = Batcher::new(cap);
            let mut old = Oracle::new(cap);
            let mut out = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Push(to, size) => {
                        let msg = Msg(i as u64, size);
                        let full = new.push(SiteId(to), msg.clone());
                        prop_assert_eq!(full, old.push(SiteId(to), msg), "push {}", i);
                    }
                    Op::Flush => {
                        new.flush_into(&mut out);
                        prop_assert_eq!(&out, &old.flush_all(), "flush {}", i);
                        out.clear();
                    }
                }
                prop_assert_eq!(new.is_empty(), old.is_empty());
                prop_assert_eq!(new.pending_msgs(), old.pending_msgs());
                prop_assert_eq!(new.pending_bytes(), old.pending_bytes());
                for to in 0..8 {
                    prop_assert_eq!(new.pending_for(SiteId(to)), old.pending_for(SiteId(to)));
                }
            }
            prop_assert_eq!(new.flush_all(), old.flush_all());
        }
    }
}
