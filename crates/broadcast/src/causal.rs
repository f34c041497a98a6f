//! Causal broadcast.
//!
//! Reliable broadcast plus causal delivery order (§4 of the paper): if
//! `broadcast(m1) → broadcast(m2)` in Lamport's happened-before relation, no
//! site delivers `m2` before `m1`. The engine implements the classic
//! Birman–Schiper–Stephenson vector-clock algorithm and — crucially for the
//! paper's causal replication protocol — **exposes the vector clock of every
//! delivery to the application layer**, which uses it to
//!
//! - detect that two conflicting operations are *causally concurrent* (early
//!   abort without voting), and
//! - recognise *implicit acknowledgements*: a message from site `s` whose
//!   clock shows `s` had already delivered a commit request counts as `s`'s
//!   positive vote.
//!
//! A wire's clock travels differentially ([`Stamp`], Singhal & Kshemkalyani).

use crate::msg::{Archive, Dest, MsgId, Outbound, SeqWindow, Shelf};
use crate::vclock::VectorClock;
use bcastdb_sim::inline::InlineVec;
use bcastdb_sim::SiteId;
use std::sync::Arc;

/// Wire format of the causal broadcast engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wire<P> {
    /// Message identity (origin + per-origin sequence; `seq == vc[origin]`).
    pub id: MsgId,
    /// The origin's clock at broadcast time, own component incremented:
    /// what it had delivered, or handled ([`CausalBcast::broadcast_after`]).
    pub stamp: Stamp,
    /// Application payload.
    pub payload: P,
}

/// A wire's clock, in the shorter form (the full one on a tie, so the
/// length tells them apart). A receiver reads it only once it delivered
/// the origin's previous broadcast, whose stamp a delta patches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stamp {
    /// All `N` entries, a u64 each.
    Full(VectorClock),
    /// Each entry, but the origin's own (`id.seq`), that differs from the
    /// origin's previous stamp: a u16 count, a u16 site + u64 value each.
    Delta(Arc<Vec<(SiteId, u64)>>),
}

impl<P: crate::batch::WireSize> crate::batch::WireSize for Wire<P> {
    fn wire_size(&self) -> usize {
        let stamp = match &self.stamp {
            Stamp::Full(vc) => 8 * vc.len(),
            Stamp::Delta(changed) => 2 + 10 * changed.len(),
        };
        self.id.wire_size() + stamp + self.payload.wire_size()
    }
}

/// A causal delivery, with the message's vector clock exposed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Message identity.
    pub id: MsgId,
    /// The broadcast timestamp; `vc.get(id.origin) == id.seq`.
    pub vc: VectorClock,
    /// Application payload.
    pub payload: P,
}

/// Result of feeding the engine one input.
///
/// Both lists use inline storage: a step almost always yields at most one
/// outbound bundle and fewer than eight deliveries (a wire releasing a held
/// burst), so the common case constructs no heap allocation at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output<P> {
    /// Messages now deliverable, in causal order.
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

/// A donor's delivered clock and last stamps ([`CausalBcast::resume_from`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot(VectorClock, Vec<u64>);

/// A sans-IO causal broadcast engine for one site.
#[derive(Debug)]
pub struct CausalBcast<P> {
    me: SiteId,
    n: usize,
    relay: bool,
    /// Component `i` = number of messages from site `i` delivered here.
    /// Component `me` also counts our own broadcasts.
    vc: VectorClock,
    /// Row `o` (`n` entries): the stamp of `o`'s message `vc[o]`, written in
    /// place, so a quiet origin's last stamp pins no buffer of `stamps`.
    last: Vec<u64>,
    /// Where every broadcast's frozen stamp, and every decoded one, comes
    /// from; and where every delta's entries do.
    stamps: Shelf<[u64]>,
    deltas: Shelf<Vec<(SiteId, u64)>>,
    /// Every empty delta's one copy.
    unchanged: Arc<Vec<(SiteId, u64)>>,
    /// Per origin, messages received but not yet causally deliverable,
    /// above a watermark that follows `vc[origin]`.
    waiting: Vec<SeqWindow<Wire<P>>>,
    /// Every wire seen (sent or received) that a peer may still lack,
    /// retained for retransmission to peers that lost their copies.
    archive: Archive<Wire<P>>,
}

/// A broadcast's id and output.
type Sent<P> = (MsgId, Output<P>);

impl<P: Clone> CausalBcast<P> {
    /// Creates an engine for site `me` of an `n`-site system.
    ///
    /// # Panics
    /// Panics if `me` is not a valid site of an `n`-site system.
    pub fn new(me: SiteId, n: usize) -> Self {
        assert!(me.0 < n, "site {me} out of range for {n} sites");
        CausalBcast {
            me,
            n,
            relay: false,
            vc: VectorClock::new(n),
            last: vec![0; n * n],
            stamps: Shelf::default(),
            deltas: Shelf::default(),
            unchanged: Arc::default(),
            waiting: (0..n).map(|_| SeqWindow::default()).collect(),
            archive: Archive::new(me, n),
        }
    }

    /// Enables eager relaying of first copies (agreement under origin crash
    /// or message loss, at `O(N²)` message cost).
    pub fn with_relay(mut self) -> Self {
        self.relay = true;
        self
    }

    /// Disables the retransmission archive, and its clone per message:
    /// correct when nothing will ever call
    /// [`CausalBcast::retransmissions_for`] (loss recovery is off).
    pub fn without_archive(mut self) -> Self {
        self.archive = Archive::new(self.me, 0);
        self
    }

    /// This engine's site.
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// The current delivered-messages vector clock.
    pub fn clock(&self) -> &VectorClock {
        &self.vc
    }

    /// Broadcasts `payload`; the local delivery (with its clock) is returned
    /// immediately.
    pub fn broadcast(&mut self, payload: P) -> Sent<P> {
        self.vc.increment(self.me);
        let stamp = self.vc.freeze(&mut self.stamps);
        self.send_stamped(stamp, false, payload)
    }

    /// Broadcasts `payload` stamped with `handled` — what the application
    /// has processed of this engine's deliveries — instead of with all of
    /// them: one wire can unblock several deliveries, and a broadcast made
    /// while handling the first must not claim the rest. `handled`'s own
    /// component becomes the new sequence number; wire and self-delivery
    /// share one copy of it. A `full` stamp can be read by a receiver that
    /// has not delivered our previous broadcast.
    pub fn broadcast_after(&mut self, handled: &mut VectorClock, full: bool, p: P) -> Sent<P> {
        handled.set(self.me, self.vc.increment(self.me));
        debug_assert!(handled.dominated_by(&self.vc), "stamp beyond delivery");
        let stamp = handled.freeze(&mut self.stamps);
        self.send_stamped(stamp, full, p)
    }

    fn send_stamped(&mut self, vc: VectorClock, full: bool, payload: P) -> Sent<P> {
        let (me, n, seq) = (self.me, self.n, vc.get(self.me));
        self.waiting[me.0].raise(seq);
        let before = &mut self.last[me.0 * n..][..n];
        let changed = |&(k, c): &(SiteId, u64)| k != me && c != before[k.0];
        let stamp = match vc.iter().filter(changed).count() {
            k if full || 8 * n <= 2 + 10 * k => Stamp::Full(vc.clone()),
            0 => Stamp::Delta(Arc::clone(&self.unchanged)),
            _ => Stamp::Delta(self.deltas.make_with(
                vc.iter().filter(changed),
                |to, changes| drop(to.splice(.., changes)),
                |changes| Arc::new(changes.collect()),
            )),
        };
        vc.iter().for_each(|(k, c)| before[k.0] = c);
        let id = MsgId { origin: me, seq };
        let wire = Wire { id, stamp, payload };
        self.archive.keep(id, || wire.clone());
        let out = Output {
            deliveries: InlineVec::one(Delivery {
                id,
                vc,
                payload: wire.payload.clone(),
            }),
            outbound: InlineVec::one(Outbound {
                dest: Dest::Others,
                wire,
            }),
        };
        (id, out)
    }

    /// Handles an incoming wire message, returning every delivery it
    /// unblocks (in causal order; of several origins unblocked at once,
    /// the lowest first).
    pub fn on_wire(&mut self, _from: SiteId, wire: Wire<P>) -> Output<P> {
        // Deliveries from one origin are gapless, so a wire was received
        // before iff the clock already covers it or it is still waiting.
        let origin = wire.id.origin;
        if self.waiting[origin.0].contains(wire.id.seq) {
            return Output::empty();
        }
        let mut out = Output::empty();
        if self.relay {
            out.outbound.push(Outbound {
                dest: Dest::Others,
                wire: wire.clone(),
            });
        }
        self.archive.keep(wire.id, || wire.clone());
        if wire.id.seq != self.vc.get(origin) + 1 || !self.deliverable(&wire) {
            // Nothing else can be unblocked: the clock has not moved.
            self.waiting[origin.0].hold(wire.id.seq, wire);
            return out;
        }
        self.waiting[origin.0].advance();
        let mut next = Some(wire);
        while let Some(Wire { id, stamp, payload }) = next {
            let last = &mut self.last[id.origin.0 * self.n..][..self.n];
            let vc = match stamp {
                Stamp::Full(vc) => {
                    vc.iter().for_each(|(k, c)| last[k.0] = c);
                    vc
                }
                Stamp::Delta(changed) => {
                    changed.iter().for_each(|&(k, c)| last[k.0] = c);
                    last[id.origin.0] = id.seq;
                    VectorClock::frozen(last, &mut self.stamps)
                }
            };
            self.vc.set(id.origin, id.seq);
            out.deliveries.push(Delivery { id, vc, payload });
            // Each delivery can unblock the head of any origin's window.
            let ready = |o: &usize| self.waiting[*o].head().is_some_and(|w| self.deliverable(w));
            let head = (0..self.n).find(ready);
            next = head.and_then(|o| self.waiting[o].advance());
        }
        out
    }

    /// BSS delivery condition for the next wire of its origin: every
    /// causal dependency already delivered. A delta's other entries are a
    /// delivered stamp's.
    fn deliverable(&self, w: &Wire<P>) -> bool {
        let covered = |(k, c): (SiteId, u64)| k == w.id.origin || c <= self.vc.get(k);
        match &w.stamp {
            Stamp::Full(vc) => vc.iter().all(covered),
            Stamp::Delta(changed) => changed.iter().copied().all(covered),
        }
    }

    /// Number of messages waiting on causal predecessors.
    pub fn pending_len(&self) -> usize {
        self.waiting.iter().map(SeqWindow::held).sum()
    }

    /// Hands `send` the archived messages peer `from`, by its delivered
    /// clock `their_vc` (its report to the archive), is missing: at most
    /// `cap`, spread round-robin across origins (gap-first within each) so
    /// a long gap from one origin cannot starve the others out of every
    /// retransmission round. The peer's duplicate suppression makes
    /// over-sending harmless.
    pub fn retransmissions_for(
        &mut self,
        from: SiteId,
        their_vc: &VectorClock,
        cap: usize,
        mut send: impl FnMut(Wire<P>),
    ) {
        let marks = their_vc.iter().map(|(_, delivered)| delivered);
        self.archive
            .missing(from, marks, cap, |_, w| send(w.clone()))
    }

    /// What a state transfer carries of this engine.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.vc.clone(), self.last.clone())
    }

    /// Resumes a recovered engine from a donor's snapshot: everything the
    /// donor delivered counts as delivered here (the application state
    /// arrives via state transfer), and an origin's next delta patches the
    /// donor's stamp where the donor is ahead. Own broadcasts keep
    /// numbering from the merged component.
    pub fn resume_from(&mut self, Snapshot(clock, last): &Snapshot) {
        for (o, waiting) in self.waiting.iter_mut().enumerate() {
            let rows = o * self.n..(o + 1) * self.n;
            if clock.get(SiteId(o)) > self.vc.get(SiteId(o)) {
                self.vc.set(SiteId(o), clock.get(SiteId(o)));
                self.last[rows.clone()].copy_from_slice(&last[rows]);
            }
            waiting.clear();
            waiting.raise(self.vc.get(SiteId(o)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The engine as it was before its waiting messages were windowed and
    /// its wires carried deltas: one vector of every waiting message, each
    /// with its full clock, rescanned with `position` after every
    /// delivery. Its order among several origins unblocked at once is the
    /// vector's, shaped by earlier `swap_remove`s; the windowed engine
    /// delivers the lowest origin first, so the two agree on what is
    /// delivered by each input, not on the order within it.
    pub(super) mod oracle {
        use super::super::Delivery;
        use crate::vclock::VectorClock;
        use bcastdb_sim::SiteId;

        pub(crate) struct Oracle<P> {
            me: SiteId,
            relay: bool,
            vc: VectorClock,
            pending: Vec<Delivery<P>>,
        }

        impl<P: Clone> Oracle<P> {
            pub(crate) fn new(me: SiteId, n: usize, relay: bool) -> Self {
                let (vc, pending) = (VectorClock::new(n), Vec::new());
                Oracle {
                    me,
                    relay,
                    vc,
                    pending,
                }
            }

            pub(crate) fn clock(&self) -> &VectorClock {
                &self.vc
            }

            pub(crate) fn pending_len(&self) -> usize {
                self.pending.len()
            }

            /// The id of the next own broadcast (its stamp is the clock).
            pub(crate) fn broadcast(&mut self) -> u64 {
                self.vc.increment(self.me)
            }

            /// Deliveries, and whether the message was relayed: `wire` is
            /// a message with its full clock.
            pub(crate) fn on_wire(&mut self, wire: Delivery<P>) -> (Vec<Delivery<P>>, bool) {
                if wire.id.seq <= self.vc.get(wire.id.origin)
                    || self.pending.iter().any(|w| w.id == wire.id)
                {
                    return (Vec::new(), false);
                }
                self.pending.push(wire);
                let mut out = Vec::new();
                while let Some(i) = self.pending.iter().position(|w| self.deliverable(w)) {
                    let w = self.pending.swap_remove(i);
                    self.vc.set(w.id.origin, w.id.seq);
                    out.push(w);
                }
                (out, self.relay)
            }

            fn deliverable(&self, w: &Delivery<P>) -> bool {
                if w.id.seq != self.vc.get(w.id.origin) + 1 {
                    return false;
                }
                (0..self.vc.len())
                    .map(SiteId)
                    .filter(|&k| k != w.id.origin)
                    .all(|k| w.vc.get(k) <= self.vc.get(k))
            }

            pub(crate) fn resume_from(&mut self, donor: &VectorClock) {
                self.vc.merge(donor);
                self.pending.clear();
            }
        }
    }

    /// One input of the lock-step run; each `usize` picks among what
    /// exists at that point.
    #[derive(Debug, Clone)]
    enum Step {
        /// A generator site broadcasts: stamped with its clock, or with
        /// an earlier one as what it has handled (entries can fall), in
        /// full if asked.
        Broadcast(usize, Option<(usize, bool)>),
        /// A generator site receives a sent wire (builds causal chains).
        Gossip(usize, usize),
        /// The watched site receives a sent wire: out of order, again, an
        /// echo of its own, or a relayed copy.
        Observe(usize),
        /// The watched site broadcasts.
        Own,
        /// The watched site resumes from a generator's snapshot (ahead of
        /// it) or from one of its own earlier ones (behind it).
        Resume(usize, bool),
    }

    fn step() -> impl Strategy<Value = Step> {
        let observe = any::<usize>().prop_map(Step::Observe);
        let after = |(pick, form): (usize, u8)| (form > 0).then_some((pick, form > 1));
        prop_oneof![
            (any::<usize>(), any::<usize>(), 0u8..3)
                .prop_map(move |(g, pick, form)| Step::Broadcast(g, after((pick, form)))),
            (any::<usize>(), any::<usize>()).prop_map(|(g, i)| Step::Gossip(g, i)),
            (any::<usize>(), any::<usize>()).prop_map(|(g, i)| Step::Gossip(g, i)),
            observe.clone(),
            observe.clone(),
            observe,
            Just(Step::Own),
            (any::<usize>(), any::<bool>()).prop_map(|(i, ahead)| Step::Resume(i, ahead)),
        ]
    }

    /// Checks that `deliveries`, made from clock `at`, each come next from
    /// their origin with every dependency delivered; returns the clock after.
    fn causal_order<'a, P: 'a>(
        mut at: VectorClock,
        deliveries: impl Iterator<Item = &'a Delivery<P>>,
    ) -> Result<VectorClock, TestCaseError> {
        for d in deliveries {
            prop_assert_eq!(d.id.seq, at.get(d.id.origin) + 1, "FIFO at {}", d.id);
            let deps = (d.vc.iter()).all(|(k, c)| k == d.id.origin || c <= at.get(k));
            prop_assert!(deps, "{} delivered before a dependency", d.id);
            at.set(d.id.origin, d.id.seq);
        }
        Ok(at)
    }

    /// `deliveries` as `(id, clock)` pairs in id order.
    fn stamped<'a, P: 'a>(
        deliveries: impl Iterator<Item = &'a Delivery<P>>,
    ) -> Vec<(MsgId, VectorClock)> {
        let mut stamped: Vec<_> = deliveries.map(|d| (d.id, d.vc.clone())).collect();
        stamped.sort_unstable_by_key(|(id, _)| *id);
        stamped
    }

    /// Drives the windowed engine and the oracle at the last of `n` sites
    /// through `steps`; the other sites generate the wires, which travel
    /// encoded while the oracle gets each with the full clock its origin
    /// stamped. After every input both deliver the same messages with the
    /// same clocks, relay alike, end at the same clock and hold the same
    /// count, and each delivery order is causal; every generator decodes
    /// every clock it delivers to the one its origin stamped.
    fn lockstep(n: usize, relay: bool, steps: &[Step]) -> Result<(), TestCaseError> {
        let me = SiteId(n - 1);
        let mut gens: Vec<CausalBcast<u64>> =
            (0..n - 1).map(|i| CausalBcast::new(SiteId(i), n)).collect();
        let mut seen: Vec<Vec<VectorClock>> = vec![vec![VectorClock::new(n)]; n - 1];
        let mut new = CausalBcast::new(me, n);
        if relay {
            new = new.with_relay();
        }
        let mut old = oracle::Oracle::new(me, n, relay);
        let mut sent = Vec::<(Wire<u64>, Delivery<u64>)>::new();
        let mut snapshots = vec![new.snapshot()];
        for (i, step) in steps.iter().enumerate() {
            let payload = i as u64;
            match *step {
                Step::Broadcast(g, after) => {
                    let g = g % (n - 1);
                    let (_, out) = match after {
                        None => gens[g].broadcast(payload),
                        Some((pick, full)) => {
                            let mut handled = seen[g][pick % seen[g].len()].clone();
                            gens[g].broadcast_after(&mut handled, full, payload)
                        }
                    };
                    let wire = out.outbound[0].wire.clone();
                    if after.is_some_and(|(_, full)| full) {
                        prop_assert!(matches!(wire.stamp, Stamp::Full(_)));
                    }
                    sent.push((wire, out.deliveries[0].clone()));
                }
                Step::Gossip(_, _) | Step::Observe(_) if sent.is_empty() => {}
                Step::Gossip(g, w) => {
                    let wire = sent[w % sent.len()].0.clone();
                    let g = g % (n - 1);
                    let out = gens[g].on_wire(wire.id.origin, wire);
                    for d in out.deliveries.iter() {
                        let stamped = sent.iter().find(|(_, full)| full.id == d.id);
                        prop_assert_eq!(&d.vc, &stamped.expect("sent").1.vc, "{}", d.id);
                    }
                    seen[g].push(gens[g].clock().clone());
                }
                Step::Observe(w) => {
                    let (wire, full) = sent[w % sent.len()].clone();
                    let before = new.clock().clone();
                    let got = new.on_wire(wire.id.origin, wire);
                    let (want, relayed) = old.on_wire(full.clone());
                    prop_assert_eq!(stamped(got.deliveries.iter()), stamped(want.iter()));
                    prop_assert_eq!(!got.outbound.is_empty(), relayed);
                    let after = causal_order(before.clone(), got.deliveries.iter())?;
                    prop_assert_eq!(&after, new.clock());
                    causal_order(before, want.iter())?;
                    for relayed in got.outbound.iter() {
                        sent.push((relayed.wire.clone(), full.clone()));
                    }
                }
                Step::Own => {
                    let (id, out) = new.broadcast(payload);
                    prop_assert_eq!(id.seq, old.broadcast());
                    let wire = out.outbound[0].wire.clone();
                    sent.push((wire, out.deliveries[0].clone()));
                }
                Step::Resume(g, ahead) => {
                    let donor = match ahead {
                        true => gens[g % (n - 1)].snapshot(),
                        false => snapshots[g % snapshots.len()].clone(),
                    };
                    new.resume_from(&donor);
                    old.resume_from(&donor.0);
                }
            }
            prop_assert_eq!(new.clock(), old.clock(), "after {:?}", step);
            prop_assert_eq!(new.pending_len(), old.pending_len(), "after {:?}", step);
            snapshots.push(new.snapshot());
        }
        Ok(())
    }

    proptest! {
        /// Out-of-order, duplicated and relayed wires from causal chains
        /// over 3–5 sites, stamped whole or partly handled, in either
        /// form; echoes of the site's own broadcasts, relay on or off,
        /// and resumes from snapshots ahead of and behind the site.
        #[test]
        fn windowed_engine_agrees_with_the_oracle(
            n in 3usize..=5,
            relay in any::<bool>(),
            steps in proptest::collection::vec(step(), 0..120)
        ) {
            lockstep(n, relay, &steps)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10_000, ..ProptestConfig::default() })]

        /// The same property over 10 000 runs (release:
        /// `cargo test --release -p bcastdb-broadcast _10k -- --ignored`).
        #[test]
        #[ignore]
        fn windowed_engine_agrees_with_the_oracle_10k(
            n in 3usize..=5,
            relay in any::<bool>(),
            steps in proptest::collection::vec(step(), 0..240)
        ) {
            lockstep(n, relay, &steps)?;
        }
    }

    /// When one delivery unblocks the heads of several origins at once, the
    /// lowest origin goes first. The oracle goes by position in its vector.
    #[test]
    fn unblocked_origins_deliver_lowest_first() {
        let mut es = engines(4);
        let (wm, dm) = sent(es[0].broadcast("m".into()).1);
        es[1].on_wire(SiteId(0), wm.clone());
        es[2].on_wire(SiteId(0), wm.clone());
        let x = sent(es[1].broadcast("x".into()).1);
        let y = sent(es[2].broadcast("y".into()).1);
        let mut old = oracle::Oracle::new(SiteId(3), 4, false);
        for (w, d) in [y, x] {
            assert!(es[3].on_wire(w.id.origin, w).deliveries.is_empty());
            assert!(old.on_wire(d).0.is_empty());
        }
        assert_eq!(payloads(&es[3].on_wire(SiteId(0), wm)), ["m", "x", "y"]);
        let old_order: Vec<String> = old.on_wire(dm).0.into_iter().map(|d| d.payload).collect();
        assert_eq!(old_order, ["m", "y", "x"]);
    }

    /// A broadcast's wire and its self-delivery, which holds the full
    /// stamp.
    fn sent(out: Output<String>) -> (Wire<String>, Delivery<String>) {
        (out.outbound[0].wire.clone(), out.deliveries[0].clone())
    }

    /// Drives `k` engines by hand, returning mutable handles.
    fn engines(n: usize) -> Vec<CausalBcast<String>> {
        (0..n).map(|i| CausalBcast::new(SiteId(i), n)).collect()
    }

    /// What `retransmissions_for` hands its `send`, in order, asked by
    /// site `from`.
    fn resent(
        e: &mut CausalBcast<String>,
        from: usize,
        their_vc: &VectorClock,
        cap: usize,
    ) -> Vec<Wire<String>> {
        let mut out = Vec::new();
        e.retransmissions_for(SiteId(from), their_vc, cap, |w| out.push(w));
        out
    }

    /// Extracts payloads from deliveries.
    fn payloads(out: &Output<String>) -> Vec<String> {
        out.deliveries.iter().map(|d| d.payload.clone()).collect()
    }

    #[test]
    fn broadcast_stamps_own_component() {
        let mut e = CausalBcast::<String>::new(SiteId(1), 3);
        let (id, out) = e.broadcast("a".into());
        assert_eq!(id.seq, 1);
        assert_eq!(out.deliveries[0].vc.get(SiteId(1)), 1);
        assert_eq!(out.deliveries[0].vc.get(SiteId(0)), 0);
    }

    /// Stamps come off the engine's shelf and are rewritten once nothing
    /// holds them, but a stamp still held keeps its clock through 300 more
    /// broadcasts (past the shelf's bound), stamped either way; the wires
    /// carry only the entry that changed.
    #[test]
    fn a_held_stamp_keeps_its_clock() {
        let mut e = CausalBcast::<String>::new(SiteId(0), 3).without_archive();
        let mut peer = CausalBcast::<String>::new(SiteId(1), 3);
        let held = e.broadcast("held".into()).1.deliveries[0].vc.clone();
        let mut handled = VectorClock::new(3);
        for i in 0..300u64 {
            let w = peer.broadcast(String::new()).1.outbound[0].wire.clone();
            assert_eq!(e.on_wire(SiteId(1), w).deliveries.len(), 1);
            handled.set(SiteId(1), i + 1);
            let (_, out) = match i % 2 {
                0 => e.broadcast(i.to_string()),
                _ => e.broadcast_after(&mut handled, false, i.to_string()),
            };
            let stamp = out.deliveries[0].vc.to_string();
            assert_eq!(stamp, format!("[{},{},0]", i + 2, i + 1));
            let delta = Stamp::Delta(Arc::new(vec![(SiteId(1), i + 1)]));
            assert_eq!(out.outbound[0].wire.stamp, delta);
        }
        assert_eq!(held.to_string(), "[1,0,0]");
    }

    #[test]
    fn causally_ordered_messages_deliver_in_order() {
        let mut es = engines(3);
        // Site 0 broadcasts m1.
        let (_, o1) = es[0].broadcast("m1".into());
        let w1 = o1.outbound[0].wire.clone();
        // Site 1 delivers m1, then broadcasts m2 (causally after m1).
        es[1].on_wire(SiteId(0), w1.clone());
        let (_, o2) = es[1].broadcast("m2".into());
        let w2 = o2.outbound[0].wire.clone();
        // Site 2 receives m2 FIRST: must hold it back.
        let out = es[2].on_wire(SiteId(1), w2);
        assert!(out.deliveries.is_empty());
        assert_eq!(es[2].pending_len(), 1);
        // m1 arrives: both deliver, in causal order.
        let out = es[2].on_wire(SiteId(0), w1);
        assert_eq!(payloads(&out), vec!["m1", "m2"]);
    }

    #[test]
    fn concurrent_messages_deliver_in_arrival_order() {
        let mut es = engines(3);
        let (_, oa) = es[0].broadcast("a".into());
        let (_, ob) = es[1].broadcast("b".into());
        let wa = oa.outbound[0].wire.clone();
        let wb = ob.outbound[0].wire.clone();
        // Concurrent: site 2 can deliver in either arrival order.
        let o1 = es[2].on_wire(SiteId(1), wb.clone());
        assert_eq!(payloads(&o1), vec!["b"]);
        let o2 = es[2].on_wire(SiteId(0), wa.clone());
        assert_eq!(payloads(&o2), vec!["a"]);
        // And their clocks are concurrent — exposed to the application.
        assert!(o1.deliveries[0].vc.concurrent_with(&o2.deliveries[0].vc));
    }

    #[test]
    fn duplicate_wires_are_ignored() {
        let mut es = engines(2);
        let (_, o) = es[0].broadcast("a".into());
        let w = o.outbound[0].wire.clone();
        assert_eq!(es[1].on_wire(SiteId(0), w.clone()).deliveries.len(), 1);
        assert!(es[1].on_wire(SiteId(0), w).deliveries.is_empty());
    }

    #[test]
    fn duplicates_of_waiting_and_of_resumed_over_wires_are_ignored() {
        let mut es = engines(2);
        let (_, o1) = es[0].broadcast("x1".into());
        let (_, o2) = es[0].broadcast("x2".into());
        let w1 = o1.outbound[0].wire.clone();
        let w2 = o2.outbound[0].wire.clone();
        // A second copy of a wire still waiting for its predecessor.
        es[1].on_wire(SiteId(0), w2.clone());
        es[1].on_wire(SiteId(0), w2.clone());
        assert_eq!(es[1].pending_len(), 1);
        // A wire the donor's clock already covers was never received
        // here, yet must not wait for a predecessor that will never come.
        let donor = es[0].snapshot();
        es[1].resume_from(&donor);
        assert!(es[1].on_wire(SiteId(0), w1).deliveries.is_empty());
        assert!(es[1].on_wire(SiteId(0), w2).deliveries.is_empty());
        assert_eq!(es[1].pending_len(), 0);
    }

    #[test]
    fn fifo_from_same_origin_is_enforced() {
        let mut es = engines(2);
        let (_, o1) = es[0].broadcast("x1".into());
        let (_, o2) = es[0].broadcast("x2".into());
        let w1 = o1.outbound[0].wire.clone();
        let w2 = o2.outbound[0].wire.clone();
        let out = es[1].on_wire(SiteId(0), w2);
        assert!(out.deliveries.is_empty());
        let out = es[1].on_wire(SiteId(0), w1);
        assert_eq!(payloads(&out), vec!["x1", "x2"]);
    }

    #[test]
    fn delivery_clock_reveals_delivered_commit_request() {
        // The implicit-ack pattern from the paper: site 1 delivers site 0's
        // "commit request", then broadcasts anything; the clock of that
        // broadcast proves the delivery.
        let mut es = engines(4);
        let (cr_id, o_cr) = es[0].broadcast("commit-req".into());
        let w_cr = o_cr.outbound[0].wire.clone();
        let cr_seq = cr_id.seq;

        es[1].on_wire(SiteId(0), w_cr.clone());
        let (w_m, _) = sent(es[1].broadcast("unrelated".into()).1);

        // Any observer can tell from w_m's clock, once it delivers w_m:
        let d_m = es[2].on_wire(SiteId(1), w_m).deliveries;
        assert!(d_m.is_empty(), "held for the commit request");
        let d_m = es[2].on_wire(SiteId(0), w_cr).deliveries;
        assert!(
            d_m[1].vc.get(SiteId(0)) >= cr_seq,
            "message clock must show origin delivered the commit request"
        );

        // Whereas a message broadcast WITHOUT having seen it does not:
        let (_, o_x) = es[3].broadcast("blind".into());
        assert!(o_x.deliveries[0].vc.get(SiteId(0)) < cr_seq);
    }

    /// One wire unblocks two deliveries; a broadcast made once the
    /// application has handled only the first must not claim the second.
    #[test]
    fn broadcast_after_stamps_only_what_was_processed() {
        let mut es = engines(3);
        let (_, oa) = es[0].broadcast("a".into());
        let wa = oa.outbound[0].wire.clone();
        es[1].on_wire(SiteId(0), wa.clone());
        let (_, ob) = es[1].broadcast("b".into());
        // Site 2 holds b back until a arrives, then delivers both at once.
        let wb = ob.outbound[0].wire.clone();
        assert!(es[2].on_wire(SiteId(1), wb).deliveries.is_empty());
        assert_eq!(payloads(&es[2].on_wire(SiteId(0), wa)), vec!["a", "b"]);

        let mut processed = VectorClock::new(3);
        processed.set(SiteId(0), 1); // a handled, b not yet
        let (id, out) = es[2].broadcast_after(&mut processed, false, "c".into());
        let stamp = out.deliveries[0].vc.clone();
        assert_eq!(id.seq, 1);
        assert_eq!(stamp.iter().map(|(_, k)| k).collect::<Vec<_>>(), [1, 0, 1]);
        assert_eq!(processed, stamp, "own component advanced in place");
        let delta = Stamp::Delta(Arc::new(vec![(SiteId(0), 1)]));
        assert_eq!(out.outbound[0].wire.stamp, delta, "b's entry unchanged: 0");
        // Site 0 never received b, and need not wait for it.
        let wc = out.outbound[0].wire.clone();
        assert_eq!(payloads(&es[0].on_wire(SiteId(2), wc)), vec!["c"]);
        // The engine still counts both deliveries: a plain broadcast
        // stamps everything delivered.
        let (_, od) = es[2].broadcast("d".into());
        let all: Vec<u64> = od.deliveries[0].vc.iter().map(|(_, k)| k).collect();
        assert_eq!(all, [1, 1, 2]);
    }

    /// A delta holds only the entries that changed since its origin's
    /// previous stamp, at their new values (down as well as up), and
    /// decodes against the last stamp delivered from that origin: not the
    /// receiver's clock, nor another origin's last stamp.
    #[test]
    fn a_delta_decodes_against_its_origins_previous_stamp() {
        let mut es = engines(4);
        let (wa, _) = sent(es[0].broadcast("a".into()).1);
        let (wd, _) = sent(es[2].broadcast("d".into()).1);
        es[1].on_wire(SiteId(0), wa.clone());
        let b = sent(es[1].broadcast("b".into()).1);
        let c = sent(es[1].broadcast("c".into()).1);
        let mut handled = VectorClock::new(4); // nothing of a handled
        let e = sent(es[1].broadcast_after(&mut handled, false, "e".into()).1);
        let delta = |changed: &[(usize, u64)]| {
            Stamp::Delta(Arc::new(
                changed.iter().map(|&(k, c)| (SiteId(k), c)).collect(),
            ))
        };
        assert_eq!(b.0.stamp, delta(&[(0, 1)]));
        assert_eq!(c.0.stamp, delta(&[]));
        assert_eq!(e.0.stamp, delta(&[(0, 0)]));
        // Site 3 delivers d, holds b, c and e for a, then delivers all.
        assert_eq!(payloads(&es[3].on_wire(SiteId(2), wd)), ["d"]);
        for (w, _) in [&e, &c, &b] {
            assert!(es[3].on_wire(SiteId(1), w.clone()).deliveries.is_empty());
        }
        let out = es[3].on_wire(SiteId(0), wa);
        assert_eq!(payloads(&out), ["a", "b", "c", "e"]);
        for (got, (_, want)) in out.deliveries.iter().skip(1).zip([&b, &c, &e]) {
            assert_eq!(got.vc, want.vc, "{}", got.id);
        }
        assert_eq!(out.deliveries[3].vc.to_string(), "[0,3,0,0]");
    }

    /// A stamp goes in full when a delta would be no shorter, or when the
    /// caller asks: then a receiver can read it before it has delivered
    /// the origin's previous broadcast.
    #[test]
    fn a_stamp_goes_in_full_when_no_longer_or_asked() {
        let mut es = engines(4);
        for o in 0..3 {
            let (w, _) = sent(es[o].broadcast(format!("m{o}")).1);
            es[3].on_wire(SiteId(o), w);
        }
        // Three changed entries: 2 + 10 * 3 = 32 bytes, a tie with 8 * 4.
        let (w, d) = sent(es[3].broadcast("all".into()).1);
        assert_eq!(w.stamp, Stamp::Full(d.vc));
        let mut handled = es[3].clock().clone();
        let (w, d) = sent(es[3].broadcast_after(&mut handled, true, "null".into()).1);
        assert_eq!(w.stamp, Stamp::Full(d.vc.clone()));
        // Site 0 has delivered nothing of site 3, yet reads this stamp.
        let Stamp::Full(stamp) = &w.stamp else {
            unreachable!("full")
        };
        assert_eq!(stamp.to_string(), "[1,1,1,2]");
    }

    /// A site resumed from a donor's snapshot decodes every origin's next
    /// delta wire, though it never delivered the stamps they patch.
    #[test]
    fn a_resumed_engine_decodes_every_origins_next_delta() {
        let mut es = engines(4);
        for round in 0..3 {
            for o in 0..3 {
                let (w, _) = sent(es[o].broadcast(format!("m{o}-{round}")).1);
                for r in (0..3).filter(|&r| r != o) {
                    es[r].on_wire(SiteId(o), w.clone());
                }
            }
        }
        let mut away = CausalBcast::<String>::new(SiteId(3), 4);
        away.resume_from(&es[1].snapshot());
        assert_eq!(away.clock(), es[1].clock());
        for (o, e) in es.iter_mut().enumerate().take(3) {
            let (w, d) = sent(e.broadcast(format!("next{o}")).1);
            // Origin o heard 2 - o broadcasts since its own last one.
            assert!(matches!(w.stamp, Stamp::Delta(ref changed) if changed.len() == 2 - o));
            let out = away.on_wire(SiteId(o), w);
            assert_eq!(out.deliveries.len(), 1, "origin {o}");
            assert_eq!(out.deliveries[0].vc, d.vc, "origin {o}");
        }
    }

    #[test]
    fn relay_mode_forwards_first_copies() {
        let mut e = CausalBcast::<String>::new(SiteId(1), 3).with_relay();
        let mut origin = CausalBcast::<String>::new(SiteId(0), 3);
        let (_, o) = origin.broadcast("a".into());
        let w = o.outbound[0].wire.clone();
        let out = e.on_wire(SiteId(0), w.clone());
        assert_eq!(out.outbound.len(), 1);
        assert!(e.on_wire(SiteId(2), w).outbound.is_empty());
    }

    #[test]
    fn transitive_causality_three_hops() {
        let mut es = engines(4);
        let (_, o1) = es[0].broadcast("m1".into());
        let w1 = o1.outbound[0].wire.clone();
        es[1].on_wire(SiteId(0), w1.clone());
        let (_, o2) = es[1].broadcast("m2".into());
        let w2 = o2.outbound[0].wire.clone();
        es[2].on_wire(SiteId(0), w1.clone());
        es[2].on_wire(SiteId(1), w2.clone());
        let (_, o3) = es[2].broadcast("m3".into());
        let w3 = o3.outbound[0].wire.clone();

        // Site 3 receives m3, m2, m1 in fully reversed order.
        assert!(es[3].on_wire(SiteId(2), w3).deliveries.is_empty());
        assert!(es[3].on_wire(SiteId(1), w2).deliveries.is_empty());
        let out = es[3].on_wire(SiteId(0), w1);
        assert_eq!(payloads(&out), vec!["m1", "m2", "m3"]);
    }

    #[test]
    fn clock_advances_with_deliveries() {
        let mut es = engines(2);
        let (_, o) = es[0].broadcast("a".into());
        es[1].on_wire(SiteId(0), o.outbound[0].wire.clone());
        assert_eq!(es[1].clock().get(SiteId(0)), 1);
        assert_eq!(es[1].clock().get(SiteId(1)), 0);
    }

    /// Regression: a peer missing messages from *two* origins must get
    /// retransmissions for both, even under a cap smaller than either gap.
    /// The old implementation exhausted the whole cap on the first origin
    /// in clock iteration order, starving every later origin across
    /// retransmission rounds.
    #[test]
    fn retransmission_cap_is_shared_fairly_across_origins() {
        let mut es = engines(3);
        // Site 2 archives three messages from each of origins 0 and 1.
        for round in 0..3 {
            let (_, o0) = es[0].broadcast(format!("a{round}"));
            let (_, o1) = es[1].broadcast(format!("b{round}"));
            let w0 = o0.outbound[0].wire.clone();
            let w1 = o1.outbound[0].wire.clone();
            es[2].on_wire(SiteId(0), w0);
            es[2].on_wire(SiteId(1), w1);
        }
        // A peer that has delivered nothing asks with cap 2: it must get
        // the first message of EACH gapped origin, not two from origin 0.
        let out = resent(&mut es[2], 0, &VectorClock::new(3), 2);
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
        let out = resent(&mut es[2], 0, &VectorClock::new(3), 4);
        let from = |s: usize| out.iter().filter(|w| w.id.origin == SiteId(s)).count();
        assert_eq!((from(0), from(1)), (2, 2));
        // Uncapped, everything archived comes back, in-gap-order per origin.
        let out = resent(&mut es[2], 0, &VectorClock::new(3), 64);
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
    /// cadence: retransmission rounds arrive *rarely* under backoff, so
    /// each round must advance every gapped origin — convergence takes
    /// rounds proportional to the deepest gap, not the sum of all gaps.
    #[test]
    fn capped_retransmission_rounds_advance_every_origin_each_round() {
        let mut es = engines(4);
        // Site 3 archives four messages from each of origins 0..=2.
        for round in 0..4 {
            for origin in 0..3usize {
                let (_, o) = es[origin].broadcast(format!("m{origin}-{round}"));
                let w = o.outbound[0].wire.clone();
                es[3].on_wire(SiteId(origin), w.clone());
                for (other, e) in es.iter_mut().enumerate().take(3) {
                    if other != origin {
                        e.on_wire(SiteId(origin), w.clone());
                    }
                }
            }
        }
        // A fully-lagging peer applies each capped round to its clock.
        let mut peer = CausalBcast::<String>::new(SiteId(3), 4);
        let mut rounds = 0;
        loop {
            let done = (0..3).all(|s| peer.clock().get(SiteId(s)) == 4);
            if done {
                break;
            }
            rounds += 1;
            assert!(rounds <= 12, "retransmission rounds must converge");
            let batch = resent(&mut es[3], 0, peer.clock(), 3);
            // Cap 3 split over three gapped origins: one message each.
            let mut origins: Vec<usize> = batch.iter().map(|w| w.id.origin.index()).collect();
            origins.sort_unstable();
            assert_eq!(origins, vec![0, 1, 2], "round {rounds} skipped an origin");
            for w in batch {
                peer.on_wire(w.id.origin, w);
            }
        }
    }

    /// A null message's full clock is its sender's report: once every
    /// peer's clock covers a message the archive lets it go, a delayed
    /// older clock never brings it back, and a peer at the cut still gets
    /// everything above it.
    #[test]
    fn null_clock_reports_cut_the_archive() {
        let mut es = engines(3);
        for k in 1..=3 {
            let (_, out) = es[0].broadcast(format!("m{k}"));
            let w = out.outbound[0].wire.clone();
            es[1].on_wire(SiteId(0), w.clone());
            if k < 3 {
                es[2].on_wire(SiteId(0), w);
            }
        }
        assert_eq!(es[0].archive.len(), 3);
        // What a null message from a site stamps: everything it delivered.
        let null_clock = |e: &mut CausalBcast<String>| {
            let mut handled = e.clock().clone();
            let (_, out) = e.broadcast_after(&mut handled, true, "null".to_owned());
            match &out.outbound[0].wire.stamp {
                Stamp::Full(vc) => vc.clone(),
                Stamp::Delta(_) => unreachable!("a full stamp was asked for"),
            }
        };
        let (c1, c2) = (null_clock(&mut es[1]), null_clock(&mut es[2]));
        let seqs = |wires: Vec<Wire<String>>| wires.iter().map(|w| w.id.seq).collect::<Vec<_>>();
        // Site 1 has delivered all three, site 2 has not reported: no cut.
        assert!(resent(&mut es[0], 1, &c1, 16).is_empty());
        assert_eq!(es[0].archive.len(), 3);
        // Site 2 has delivered two: both go, and it gets the third.
        assert_eq!(seqs(resent(&mut es[0], 2, &c2, 16)), [3]);
        assert_eq!(es[0].archive.len(), 1);
        // A delayed clock from before site 2 delivered anything lowers no
        // cut: what it asks for from below the cut is no longer here.
        assert!(resent(&mut es[0], 2, &VectorClock::new(3), 16).is_empty());
        assert_eq!(es[0].archive.len(), 1);
        assert_eq!(seqs(resent(&mut es[0], 2, &c2, 16)), [3]);
        // Both peers now cover everything: the archive is empty.
        assert!(resent(&mut es[0], 2, &c1, 16).is_empty());
        assert_eq!(es[0].archive.len(), 0);
    }
}
