//! Reliable broadcast.
//!
//! The simplest primitive in the paper (§3), per the \[HT93\] specification:
//!
//! 1. **Validity** — if a correct process broadcasts `m`, all correct
//!    processes eventually deliver `m`;
//! 2. **Agreement** — if a correct process delivers `m`, all correct
//!    processes eventually deliver `m`;
//! 3. **Integrity** — every process delivers `m` at most once, and only if
//!    it was broadcast.
//!
//! Because the paper assumes FIFO links, this implementation additionally
//! guarantees **per-origin FIFO delivery**: messages from the same origin
//! are delivered in broadcast order (a commit request broadcast after a
//! write operation is delivered after it everywhere).
//!
//! Two dissemination modes:
//!
//! - *direct* (default): the origin sends one copy to every other site —
//!   `N-1` messages per broadcast. Sufficient on a lossless network while
//!   the origin stays up.
//! - *relay* ([`ReliableBcast::with_relay`]): every site eagerly re-forwards
//!   the first copy it receives — `O(N²)` messages, but agreement holds even
//!   if the origin crashes mid-broadcast or individual copies are lost.

use crate::msg::{Archive, Dest, MsgId, Outbound, SeqWindow};
use bcastdb_sim::inline::InlineVec;
use bcastdb_sim::SiteId;

/// Wire format of the reliable broadcast engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wire<P> {
    /// Message identity (origin + per-origin sequence).
    pub id: MsgId,
    /// Application payload.
    pub payload: P,
}

impl<P: crate::batch::WireSize> crate::batch::WireSize for Wire<P> {
    fn wire_size(&self) -> usize {
        self.id.wire_size() + self.payload.wire_size()
    }
}

/// An application-level delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Message identity.
    pub id: MsgId,
    /// Application payload.
    pub payload: P,
}

/// Result of feeding the engine one input.
///
/// Both lists use inline storage: a step almost always yields at most one
/// outbound bundle and a few deliveries (a filled gap releases what it held
/// back), so the common case constructs no heap allocation at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output<P> {
    /// Messages now deliverable to the application, in delivery order.
    pub deliveries: InlineVec<Delivery<P>, 8>,
    /// Wire messages to hand to the transport.
    pub outbound: InlineVec<Outbound<Wire<P>>, 1>,
}

impl<P> Output<P> {
    fn empty() -> Self {
        Output {
            deliveries: InlineVec::new(),
            outbound: InlineVec::new(),
        }
    }
}

/// A sans-IO reliable broadcast engine for one site.
#[derive(Debug)]
pub struct ReliableBcast<P> {
    me: SiteId,
    relay: bool,
    next_seq: u64,
    /// Per origin: delivered up to the watermark, and the messages that
    /// arrived ahead of a gap, awaiting their FIFO predecessors.
    fifo: Vec<SeqWindow<P>>,
    /// Every payload seen (sent or received) that a peer may still lack,
    /// retained for retransmission to peers that lost their copies.
    archive: Archive<P>,
}

impl<P: Clone> ReliableBcast<P> {
    /// Creates an engine for site `me` of an `n`-site system, in direct
    /// dissemination mode.
    ///
    /// # Panics
    /// Panics if `me` is not a valid site of an `n`-site system.
    pub fn new(me: SiteId, n: usize) -> Self {
        assert!(me.0 < n, "site {me} out of range for {n} sites");
        ReliableBcast {
            me,
            relay: false,
            next_seq: 0,
            fifo: (0..n).map(|_| SeqWindow::default()).collect(),
            archive: Archive::new(me, n),
        }
    }

    /// Disables the retransmission archive. Correct whenever nothing will
    /// ever call [`ReliableBcast::retransmissions_for`] on this engine —
    /// i.e. outside loss-recovery (relay) deployments.
    pub fn without_archive(mut self) -> Self {
        self.archive = Archive::new(self.me, 0);
        self
    }

    /// Enables eager relaying (agreement despite origin crash / loss).
    pub fn with_relay(mut self) -> Self {
        self.relay = true;
        self
    }

    /// This engine's site.
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// Broadcasts `payload`; the local delivery is returned immediately
    /// (FIFO trivially holds for one's own messages).
    pub fn broadcast(&mut self, payload: P) -> (MsgId, Output<P>) {
        self.next_seq += 1;
        let id = MsgId {
            origin: self.me,
            seq: self.next_seq,
        };
        self.fifo[self.me.0].raise(id.seq);
        self.archive.keep(id, || payload.clone());
        let out = Output {
            deliveries: InlineVec::one(Delivery {
                id,
                payload: payload.clone(),
            }),
            outbound: InlineVec::one(Outbound {
                dest: Dest::Others,
                wire: Wire { id, payload },
            }),
        };
        (id, out)
    }

    /// Handles an incoming wire message.
    pub fn on_wire(&mut self, _from: SiteId, wire: Wire<P>) -> Output<P> {
        // Delivery is a contiguous prefix per origin, so everything ever
        // accepted is at or below the watermark or held above it.
        let origin = wire.id.origin;
        if self.fifo[origin.0].contains(wire.id.seq) {
            return Output::empty();
        }
        let mut out = Output::empty();
        if self.relay {
            out.outbound.push(Outbound {
                dest: Dest::Others,
                wire: wire.clone(),
            });
        }
        self.archive.keep(wire.id, || wire.payload.clone());
        let fifo = &mut self.fifo[origin.0];
        if wire.id.seq != fifo.watermark() + 1 {
            fifo.hold(wire.id.seq, wire.payload);
            return out;
        }
        fifo.advance();
        let mut next = Some(wire.payload);
        while let Some(payload) = next {
            let seq = fifo.watermark();
            let id = MsgId { origin, seq };
            out.deliveries.push(Delivery { id, payload });
            next = fifo.pop();
        }
        out
    }

    /// Per-origin delivery watermarks, in origin order.
    pub fn watermarks(&self) -> impl Iterator<Item = u64> + '_ {
        self.fifo.iter().map(SeqWindow::watermark)
    }

    /// Resumes a recovered engine from a donor's watermarks: deliveries the
    /// donor has seen are treated as already delivered here (their payloads
    /// arrive via state transfer, not re-broadcast). The own-origin counter
    /// also continues from the watermark so future broadcasts keep their
    /// FIFO numbering.
    ///
    /// # Panics
    /// Panics if the watermark vector has the wrong width.
    pub fn resume_from(&mut self, watermarks: &[u64]) {
        assert_eq!(watermarks.len(), self.fifo.len(), "width mismatch");
        for (fifo, &donor) in self.fifo.iter_mut().zip(watermarks) {
            fifo.clear();
            fifo.raise(donor);
        }
        self.next_seq = self.next_seq.max(self.fifo[self.me.0].watermark());
    }

    /// Number of messages currently held back waiting for predecessors.
    pub fn holdback_len(&self) -> usize {
        self.fifo.iter().map(SeqWindow::held).sum()
    }

    /// Number of payloads retained for retransmission.
    pub fn archive_len(&self) -> usize {
        self.archive.len()
    }

    /// Hands `send` the archived messages peer `from`, by its delivery
    /// `watermarks` (its report to the archive), is missing: at most `cap`,
    /// spread round-robin across origins (gap-first within each) so a long
    /// gap from one origin cannot starve the others out of every
    /// retransmission round. The peer's duplicate suppression makes
    /// over-sending harmless.
    pub fn retransmissions_for(
        &mut self,
        from: SiteId,
        watermarks: &[u64],
        cap: usize,
        mut send: impl FnMut(Wire<P>),
    ) {
        let marks = watermarks.iter().copied();
        self.archive.missing(from, marks, cap, |id, p| {
            let payload = p.clone();
            send(Wire { id, payload })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The duplicate test `on_wire`'s watermark test replaced: the set of
    /// every id ever accepted. Resuming jumps it with the watermarks: what
    /// the jump covers counts as accepted, what the cleared holdback lost
    /// does not (a retransmission of it must get back in).
    mod oracle {
        use crate::msg::MsgId;
        use bcastdb_sim::SiteId;
        use std::collections::HashSet;

        #[derive(Default)]
        pub(super) struct Oracle(HashSet<MsgId>);

        impl Oracle {
            /// Records `id`; returns whether it was a duplicate.
            pub(super) fn duplicate(&mut self, id: MsgId) -> bool {
                !self.0.insert(id)
            }

            pub(super) fn prefix(&self, origin: SiteId) -> u64 {
                (1..)
                    .take_while(|&seq| self.0.contains(&MsgId { origin, seq }))
                    .count() as u64
            }

            /// Ids of `origin` accepted above its prefix.
            pub(super) fn above(&self, origin: SiteId) -> usize {
                let of = self.0.iter().filter(|id| id.origin == origin).count();
                of - self.prefix(origin) as usize
            }

            pub(super) fn resume_from(&mut self, donor: &[u64]) {
                let marks: Vec<u64> = (donor.iter().enumerate())
                    .map(|(o, &d)| self.prefix(SiteId(o)).max(d))
                    .collect();
                self.0.retain(|id| id.seq <= marks[id.origin.0]);
                for (origin, &mark) in marks.iter().enumerate() {
                    let origin = SiteId(origin);
                    self.0.extend((1..=mark).map(|seq| MsgId { origin, seq }));
                }
            }
        }
    }

    /// One input to a relaying site 2 of 3.
    #[derive(Debug, Clone)]
    enum Step {
        Broadcast,
        Wire(usize, u64),
        Resume(Vec<u64>),
    }

    fn step() -> impl Strategy<Value = Step> {
        let wire = (0usize..2, 1u64..12).prop_map(|(o, s)| Step::Wire(o, s));
        let resume = proptest::collection::vec(0u64..8, 3..4).prop_map(Step::Resume);
        prop_oneof![
            Just(Step::Broadcast),
            wire.clone(),
            wire.clone(),
            wire,
            resume
        ]
    }

    proptest! {
        /// Arrivals from two origins out of order and duplicated, own
        /// broadcasts, and resumes from donors ahead of or behind this
        /// site: the watermark test accepts exactly what the set of every
        /// id accepts (in relay mode an accepted copy is relayed, a
        /// duplicate is not), each origin's watermark is the set's prefix
        /// and the holdback is what the set holds above it.
        #[test]
        fn watermark_dedup_agrees_with_the_oracle(
            steps in proptest::collection::vec(step(), 0..80)
        ) {
            let mut rb = ReliableBcast::new(SiteId(2), 3).with_relay();
            let mut old = oracle::Oracle::default();
            for step in steps {
                match step {
                    Step::Broadcast => {
                        let (id, _) = rb.broadcast("p".to_owned());
                        prop_assert!(!old.duplicate(id), "own {} fresh", id);
                    }
                    Step::Wire(o, s) => {
                        let w = wire(o, s, "p");
                        let id = w.id;
                        let relayed = !rb.on_wire(SiteId(o), w).outbound.is_empty();
                        prop_assert_eq!(!relayed, old.duplicate(id), "verdict on {}", id);
                    }
                    Step::Resume(marks) => {
                        rb.resume_from(&marks);
                        old.resume_from(&marks);
                    }
                }
                let origins = || (0..3).map(SiteId);
                for origin in origins() {
                    prop_assert_eq!(rb.watermarks().nth(origin.0).unwrap(), old.prefix(origin));
                }
                prop_assert_eq!(rb.holdback_len(), origins().map(|o| old.above(o)).sum::<usize>());
            }
        }
    }

    /// What `retransmissions_for` hands its `send`, in order, asked by
    /// site 0.
    fn resent(rb: &mut ReliableBcast<String>, watermarks: &[u64], cap: usize) -> Vec<Wire<String>> {
        let mut out = Vec::new();
        rb.retransmissions_for(SiteId(0), watermarks, cap, |w| out.push(w));
        out
    }

    fn wire(origin: usize, seq: u64, p: &str) -> Wire<String> {
        Wire {
            id: MsgId {
                origin: SiteId(origin),
                seq,
            },
            payload: p.to_owned(),
        }
    }

    #[test]
    fn broadcast_delivers_locally_and_sends_to_others() {
        let mut rb = ReliableBcast::new(SiteId(0), 3);
        let (id, out) = rb.broadcast("a".to_owned());
        assert_eq!(id.seq, 1);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].payload, "a");
        assert_eq!(out.outbound.len(), 1);
        assert_eq!(out.outbound[0].dest, Dest::Others);
    }

    #[test]
    fn in_order_wire_messages_deliver_immediately() {
        let mut rb = ReliableBcast::new(SiteId(1), 3);
        let o1 = rb.on_wire(SiteId(0), wire(0, 1, "a"));
        assert_eq!(o1.deliveries.len(), 1);
        let o2 = rb.on_wire(SiteId(0), wire(0, 2, "b"));
        assert_eq!(o2.deliveries.len(), 1);
        assert_eq!(rb.watermarks().next().unwrap(), 2);
    }

    #[test]
    fn out_of_order_messages_are_held_back() {
        let mut rb = ReliableBcast::new(SiteId(1), 3);
        let o2 = rb.on_wire(SiteId(0), wire(0, 2, "b"));
        assert!(o2.deliveries.is_empty());
        assert_eq!(rb.holdback_len(), 1);
        let o1 = rb.on_wire(SiteId(0), wire(0, 1, "a"));
        let got: Vec<_> = o1.deliveries.iter().map(|d| d.payload.as_str()).collect();
        assert_eq!(got, vec!["a", "b"]);
        assert_eq!(rb.holdback_len(), 0);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut rb = ReliableBcast::new(SiteId(1), 3);
        assert_eq!(rb.on_wire(SiteId(0), wire(0, 1, "a")).deliveries.len(), 1);
        assert!(rb.on_wire(SiteId(0), wire(0, 1, "a")).deliveries.is_empty());
        assert!(rb.on_wire(SiteId(2), wire(0, 1, "a")).deliveries.is_empty());
    }

    #[test]
    fn resume_jumps_the_duplicate_test_with_the_watermarks() {
        let mut rb = ReliableBcast::new(SiteId(1), 3).with_relay();
        // 0#3 waits in the holdback for 0#1 and 0#2 when the site resumes
        // from a donor that has delivered up to 0#2.
        assert!(rb.on_wire(SiteId(0), wire(0, 3, "c")).deliveries.is_empty());
        rb.resume_from(&[2, 0, 0]);
        // What the donor's state covers is stale: neither relayed nor kept.
        let stale = rb.on_wire(SiteId(0), wire(0, 2, "b"));
        assert!(stale.outbound.is_empty() && stale.deliveries.is_empty());
        assert_eq!(rb.holdback_len(), 0);
        // What the cleared holdback lost is accepted when it comes again.
        let again = rb.on_wire(SiteId(2), wire(0, 3, "c"));
        assert_eq!(again.deliveries.len(), 1);
        assert_eq!(rb.watermarks().next().unwrap(), 3);
    }

    #[test]
    fn fifo_is_per_origin_not_global() {
        let mut rb = ReliableBcast::new(SiteId(2), 3);
        // Origin 1's first message is deliverable even though origin 0's
        // first message is missing.
        assert!(rb.on_wire(SiteId(0), wire(0, 2, "x")).deliveries.is_empty());
        assert_eq!(rb.on_wire(SiteId(1), wire(1, 1, "y")).deliveries.len(), 1);
    }

    #[test]
    fn relay_forwards_first_copy_only() {
        let mut rb = ReliableBcast::new(SiteId(1), 3).with_relay();
        let o1 = rb.on_wire(SiteId(0), wire(0, 1, "a"));
        assert_eq!(o1.outbound.len(), 1, "first copy is relayed");
        let o2 = rb.on_wire(SiteId(2), wire(0, 1, "a"));
        assert!(o2.outbound.is_empty(), "duplicate is not re-relayed");
    }

    #[test]
    fn direct_mode_never_relays() {
        let mut rb = ReliableBcast::new(SiteId(1), 3);
        let o = rb.on_wire(SiteId(0), wire(0, 1, "a"));
        assert!(o.outbound.is_empty());
    }

    #[test]
    fn own_sequence_counts_toward_fifo() {
        let mut rb = ReliableBcast::new(SiteId(0), 2);
        rb.broadcast("a".to_owned());
        rb.broadcast("b".to_owned());
        assert_eq!(rb.watermarks().next().unwrap(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn constructor_validates_site() {
        let _ = ReliableBcast::<u8>::new(SiteId(5), 3);
    }

    #[test]
    fn interleaved_origins_each_keep_fifo() {
        let mut rb = ReliableBcast::new(SiteId(2), 4);
        let mut delivered = Vec::new();
        for w in [
            wire(0, 2, "a2"),
            wire(1, 1, "b1"),
            wire(0, 1, "a1"),
            wire(1, 3, "b3"),
            wire(1, 2, "b2"),
        ] {
            for d in rb.on_wire(w.id.origin, w).deliveries {
                delivered.push(d.payload);
            }
        }
        // Per-origin order holds.
        let a: Vec<_> = delivered.iter().filter(|p| p.starts_with('a')).collect();
        let b: Vec<_> = delivered.iter().filter(|p| p.starts_with('b')).collect();
        assert_eq!(a, ["a1", "a2"]);
        assert_eq!(b, ["b1", "b2", "b3"]);
    }

    /// Regression: a peer behind on *two* origins must get retransmissions
    /// for both, even under a cap smaller than either gap. The old
    /// implementation exhausted the whole cap on the lowest-numbered origin,
    /// starving every later origin across sync rounds.
    #[test]
    fn retransmission_cap_is_shared_fairly_across_origins() {
        let mut rb = ReliableBcast::new(SiteId(2), 3);
        // Archive three messages from each of origins 0 and 1.
        for seq in 1..=3u64 {
            rb.on_wire(SiteId(0), wire(0, seq, &format!("a{seq}")));
            rb.on_wire(SiteId(1), wire(1, seq, &format!("b{seq}")));
        }
        // A peer that has delivered nothing syncs with cap 2: it must get
        // the first message of EACH gapped origin, not two from origin 0.
        let out = resent(&mut rb, &[0, 0, 0], 2);
        assert_eq!(out.len(), 2);
        let origins: Vec<SiteId> = out.iter().map(|w| w.id.origin).collect();
        assert!(
            origins.contains(&SiteId(0)) && origins.contains(&SiteId(1)),
            "cap must be split across gapped origins, got {origins:?}"
        );
        assert!(
            out.iter().all(|w| w.id.seq == 1),
            "each origin's retransmission starts at its gap"
        );
        // A larger cap round-robins: 2 from each origin before any third.
        let out = resent(&mut rb, &[0, 0, 0], 4);
        let from = |s: usize| out.iter().filter(|w| w.id.origin == SiteId(s)).count();
        assert_eq!((from(0), from(1)), (2, 2));
        // Uncapped, everything archived comes back, gap-first per origin.
        let out = resent(&mut rb, &[0, 0, 0], 64);
        assert_eq!(out.len(), 6);
        for s in [0usize, 1] {
            let seqs: Vec<u64> = out
                .iter()
                .filter(|w| w.id.origin == SiteId(s))
                .map(|w| w.id.seq)
                .collect();
            assert_eq!(seqs, vec![1, 2, 3]);
        }
    }

    /// Companion to the fairness test for the backed-off solicitation
    /// cadence: sync rounds arrive *rarely* (each round is one solicited
    /// answer), so every round must advance every gapped origin — a peer
    /// behind on many origins converges in rounds proportional to the
    /// deepest gap, not the sum of all gaps.
    #[test]
    fn capped_sync_rounds_advance_every_origin_each_round() {
        let mut rb = ReliableBcast::new(SiteId(3), 4);
        // Origins 0..=2 each archived four messages.
        for origin in 0..3usize {
            for seq in 1..=4u64 {
                rb.on_wire(
                    SiteId(origin),
                    wire(origin, seq, &format!("m{origin}-{seq}")),
                );
            }
        }
        // A fully-lagging peer applies each capped round to its
        // watermarks, as the backoff-spaced sync exchange does.
        let mut peer = ReliableBcast::<String>::new(SiteId(0), 4);
        let mut rounds = 0;
        while !peer.watermarks().take(3).eq([4, 4, 4]) {
            rounds += 1;
            assert!(rounds <= 4, "convergence must take ≤ max-gap rounds");
            let marks: Vec<u64> = peer.watermarks().collect();
            let mut batch = resent(&mut rb, &marks, 3);
            // Cap 3 split over three origins: exactly one each.
            let mut origins: Vec<usize> = batch.iter().map(|w| w.id.origin.index()).collect();
            origins.sort_unstable();
            assert_eq!(origins, vec![0, 1, 2], "round {rounds} skipped an origin");
            for w in batch.drain(..) {
                peer.on_wire(w.id.origin, w);
            }
        }
        assert_eq!(rounds, 4);
    }
}
