//! Common message plumbing shared by the broadcast engines.

use bcastdb_sim::SiteId;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Globally unique identifier of a broadcast message: the originating site
/// plus a per-origin sequence number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct MsgId {
    /// Site that initiated the broadcast.
    pub origin: SiteId,
    /// Per-origin broadcast sequence number, starting at 1.
    pub seq: u64,
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// Where an [`Outbound`] wire message should be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Every site, including the caller.
    All,
    /// Every site except the caller.
    Others,
    /// One specific site.
    Site(SiteId),
}

/// A wire message the engine wants the transport to carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbound<W> {
    /// Destination selector.
    pub dest: Dest,
    /// The wire payload.
    pub wire: W,
}

impl<W> Outbound<W> {
    /// Convenience constructor for a message to everyone (incl. self).
    pub fn all(wire: W) -> Self {
        Outbound {
            dest: Dest::All,
            wire,
        }
    }

    /// Convenience constructor for a message to everyone else.
    pub fn others(wire: W) -> Self {
        Outbound {
            dest: Dest::Others,
            wire,
        }
    }

    /// Convenience constructor for a unicast.
    pub fn to(site: SiteId, wire: W) -> Self {
        Outbound {
            dest: Dest::Site(site),
            wire,
        }
    }
}

/// Non-allocating iterator over the concrete destinations of a [`Dest`];
/// see [`dest_iter`].
#[derive(Debug, Clone)]
pub struct DestIter {
    next: usize,
    end: usize,
    /// Site index to skip (`usize::MAX` when nothing is skipped).
    skip: usize,
}

impl Iterator for DestIter {
    type Item = SiteId;

    fn next(&mut self) -> Option<SiteId> {
        while self.next < self.end {
            let i = self.next;
            self.next += 1;
            if i != self.skip {
                return Some(SiteId(i));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let span = self.end - self.next;
        let n = span - usize::from(self.skip >= self.next && self.skip < self.end);
        (n, Some(n))
    }
}

impl ExactSizeIterator for DestIter {}

/// Iterates the concrete site ids a [`Dest`] names in a system of `n`
/// sites with the caller at `me`, in ascending site order, without
/// allocating: the per-send fan-out hot path.
pub fn dest_iter(dest: Dest, me: SiteId, n: usize) -> DestIter {
    match dest {
        Dest::All => DestIter {
            next: 0,
            end: n,
            skip: usize::MAX,
        },
        Dest::Others => DestIter {
            next: 0,
            end: n,
            skip: me.0,
        },
        Dest::Site(s) => DestIter {
            next: s.0,
            end: s.0 + 1,
            skip: usize::MAX,
        },
    }
}

/// One origin's sequence numbers: a watermark, every number at or below
/// it settled, and one slot per number above it up to the highest held.
/// Every engine numbers its broadcasts per origin from 1 and links are
/// (nearly) FIFO, so the slots are almost always empty and the next number
/// settles through [`advance`](Self::advance) without touching them. An id
/// tracker is a `SeqWindow<()>`.
#[derive(Debug, Clone)]
pub(crate) struct SeqWindow<T> {
    base: u64,
    /// Slot `i` holds number `base + 1 + i`; never ends in `None`.
    slots: VecDeque<Option<T>>,
    held: usize,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        SeqWindow {
            base: 0,
            slots: VecDeque::new(),
            held: 0,
        }
    }
}

impl<T> SeqWindow<T> {
    /// Every number at or below the watermark is settled.
    pub(crate) fn watermark(&self) -> u64 {
        self.base
    }

    /// Number of items held above the watermark.
    pub(crate) fn held(&self) -> usize {
        self.held
    }

    /// The highest number settled or held.
    pub(crate) fn max_seen(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// The item held as number `seq`.
    pub(crate) fn get(&self, seq: u64) -> Option<&T> {
        let at = seq.checked_sub(self.base + 1)?;
        self.slots.get(at as usize)?.as_ref()
    }

    /// True iff `seq` is settled or held.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        seq <= self.base || self.get(seq).is_some()
    }

    /// The item held as the next number, if any.
    pub(crate) fn head(&self) -> Option<&T> {
        self.slots.front()?.as_ref()
    }

    /// Holds `item` as number `seq`, replacing a copy held before; returns
    /// whether none was. A settled `seq` drops `item` and returns false.
    pub(crate) fn hold(&mut self, seq: u64, item: T) -> bool {
        let Some(at) = seq.checked_sub(self.base + 1) else {
            return false;
        };
        let at = at as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        let fresh = self.slots[at].replace(item).is_none();
        self.held += usize::from(fresh);
        fresh
    }

    /// Settles the next number, returning what was held for it.
    pub(crate) fn advance(&mut self) -> Option<T> {
        self.base += 1;
        let item = self.slots.pop_front().flatten();
        self.held -= usize::from(item.is_some());
        item
    }

    /// Settles the next number if it is held, returning its item.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.head()?;
        self.advance()
    }

    /// Settles every number up to `floor` (the watermark never falls),
    /// dropping what was held for them.
    pub(crate) fn raise(&mut self, floor: u64) {
        if floor > self.base {
            let covered = ((floor - self.base) as usize).min(self.slots.len());
            self.held -= self.slots.drain(..covered).flatten().count();
            self.base = floor;
        }
    }

    /// Drops every held item.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.held = 0;
    }
}

impl SeqWindow<()> {
    /// Records `seq` in an id tracker; returns whether it was new. The
    /// watermark moves past every number that is now contiguous.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        let new = match seq == self.base + 1 {
            true => self.advance().is_none(),
            false => self.hold(seq, ()),
        };
        while self.pop().is_some() {}
        new
    }
}

/// The messages an engine has seen (sent or received) that a peer may
/// still lack, for retransmission: one window per origin, cut at the
/// lowest of the peers' highest reported delivery watermarks (a delayed
/// duplicate request never lowers a cut). A peer that stops reporting
/// (crashed, or gone from the view) holds every cut where it stands: it
/// may come back and ask from there, and the archive does not know views.
#[derive(Debug)]
pub(crate) struct Archive<T> {
    me: usize,
    by_origin: Vec<SeqWindow<T>>,
    /// Row `p`: the highest watermarks peer `p` has reported (row `me`:
    /// `u64::MAX`). Made by the first request, as only relay asks.
    reports: Vec<u64>,
    /// `missing`'s per-origin cursors, kept for reuse.
    cursors: Vec<MsgId>,
}

impl<T> Archive<T> {
    /// An empty archive at site `me` for origins `0..n`. With `n == 0` it
    /// keeps nothing: only loss-recovery deployments ask for
    /// retransmissions, so the others skip a copy per message.
    pub(crate) fn new(me: SiteId, n: usize) -> Self {
        let by_origin = (0..n).map(|_| SeqWindow::default()).collect();
        Archive {
            me: me.0,
            by_origin,
            reports: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Keeps `item()` as message `id`, replacing an earlier copy.
    pub(crate) fn keep(&mut self, id: MsgId, item: impl FnOnce() -> T) {
        if let Some(row) = self.by_origin.get_mut(id.origin.0) {
            row.hold(id.seq, item());
        }
    }

    /// Number of messages kept.
    pub(crate) fn len(&self) -> usize {
        self.by_origin.iter().map(SeqWindow::held).sum()
    }

    /// Hands `send` the kept messages `peer`, at per-origin delivery
    /// watermarks `marks`, is missing: at most `cap`, round-robin across
    /// origins, gap-first within each. First `marks` is taken as `peer`'s
    /// report, and what every peer has reported delivered is dropped.
    pub(crate) fn missing(
        &mut self,
        peer: SiteId,
        marks: impl IntoIterator<Item = u64>,
        cap: usize,
        mut send: impl FnMut(MsgId, &T),
    ) {
        let n = self.by_origin.len();
        if self.reports.len() < n * n {
            self.reports = vec![0; n * n];
            self.reports[self.me * n..][..n].fill(u64::MAX);
        }
        // One cursor per origin with at least one kept successor.
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.clear();
        for (o, mark) in marks.into_iter().enumerate().take(n) {
            let seen = &mut self.reports[peer.0 * n + o];
            *seen = mark.max(*seen);
            let row = &mut self.by_origin[o];
            row.raise(*self.reports[o..].iter().step_by(n).min().expect("n > 0"));
            if row.get(mark + 1).is_some() {
                cursors.push(MsgId {
                    origin: SiteId(o),
                    seq: mark + 1,
                });
            }
        }
        let mut sent = 0;
        while sent < cap && !cursors.is_empty() {
            cursors.retain_mut(|id| match self.by_origin[id.origin.0].get(id.seq) {
                Some(item) if sent < cap => {
                    send(*id, item);
                    sent += 1;
                    id.seq += 1;
                    true
                }
                _ => false, // capped, or we do not have it (or no gap)
            });
        }
        self.cursors = cursors;
    }
}

/// How many of the values it shared a [`Shelf`] keeps for reuse.
const SHELF: usize = 256;
/// How many of its oldest values a [`Shelf`] looks at for a free one: a
/// long-held value costs one look, not an allocation per value made.
const TRIES: usize = 4;

/// The values a site shared (payloads, clock stamps, commit requests),
/// oldest first. The next value is written into the oldest of the first
/// `TRIES` allocations every wire, holdback and archive copy of is gone,
/// and into a new one otherwise: a value another holder can still read is
/// never written.
#[derive(Debug)]
pub struct Shelf<T: ?Sized>(VecDeque<Arc<T>>);

impl<T: ?Sized> Default for Shelf<T> {
    fn default() -> Self {
        Shelf(VecDeque::new())
    }
}

impl<T: ?Sized> Shelf<T> {
    /// The value made from `from`, shared: `refill` writes it into an
    /// allocation nothing else holds, `fresh` allocates it.
    pub fn make_with<S>(
        &mut self,
        from: S,
        refill: impl FnOnce(&mut T, S),
        fresh: impl FnOnce(S) -> Arc<T>,
    ) -> Arc<T> {
        // No `Weak` is ever made of a shelved value: a count of one is unheld.
        let free = (self.0.iter().take(TRIES)).position(|v| Arc::strong_count(v) == 1);
        if let Some(mut slot) = free.and_then(|at| self.0.remove(at)) {
            refill(Arc::get_mut(&mut slot).expect("unheld"), from);
            self.0.push_back(slot);
        } else {
            if self.0.len() == SHELF {
                self.0.pop_front();
            }
            self.0.push_back(fresh(from));
        }
        Arc::clone(self.0.back().expect("just shelved"))
    }
}

impl<T> Shelf<T> {
    /// `value`, shared (see [`Shelf::make_with`]).
    pub fn make(&mut self, value: T) -> Arc<T> {
        self.make_with(value, |slot, value| *slot = value, Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    /// The reference a window is held to: a watermark plus a map of what
    /// is held above it.
    #[derive(Default)]
    struct Model {
        base: u64,
        held: BTreeMap<u64, u32>,
    }

    /// One operation on a window; sequence numbers and floors are small so
    /// that holds collide, land below the watermark and get raised over.
    #[derive(Debug, Clone)]
    enum Op {
        Hold(u64, u32),
        Advance,
        Pop,
        Raise(u64),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        let hold = (1u64..40, any::<u32>()).prop_map(|(seq, v)| Op::Hold(seq, v));
        prop_oneof![
            hold.clone(),
            hold,
            Just(Op::Advance),
            Just(Op::Pop),
            Just(Op::Pop),
            (0u64..40).prop_map(Op::Raise),
            Just(Op::Clear),
        ]
    }

    /// Applies `ops` to a window and the model, comparing every return
    /// value, the watermark, the held count, the highest number seen, the
    /// head and every slot after each one.
    fn window_agrees(ops: &[Op]) -> Result<(), TestCaseError> {
        let mut w = SeqWindow::default();
        let mut m = Model::default();
        for op in ops {
            match *op {
                Op::Hold(seq, v) => {
                    let fresh = seq > m.base && m.held.insert(seq, v).is_none();
                    prop_assert_eq!(w.hold(seq, v), fresh, "{:?}", op);
                }
                Op::Advance => {
                    m.base += 1;
                    prop_assert_eq!(w.advance(), m.held.remove(&m.base));
                }
                Op::Pop => {
                    let want = m.held.remove(&(m.base + 1));
                    m.base += u64::from(want.is_some());
                    prop_assert_eq!(w.pop(), want);
                }
                Op::Raise(floor) => {
                    w.raise(floor);
                    m.base = m.base.max(floor);
                    m.held.retain(|&seq, _| seq > m.base);
                }
                Op::Clear => {
                    w.clear();
                    m.held.clear();
                }
            }
            let max_seen = m.held.keys().last().copied().unwrap_or(m.base);
            prop_assert_eq!(w.watermark(), m.base);
            prop_assert_eq!(w.held(), m.held.len());
            prop_assert_eq!(w.max_seen(), max_seen);
            prop_assert_eq!(w.head(), m.held.get(&(m.base + 1)));
            for seq in 0..=max_seen + 1 {
                prop_assert_eq!(w.get(seq), m.held.get(&seq), "slot {}", seq);
                let contains = seq <= m.base || m.held.contains_key(&seq);
                prop_assert_eq!(w.contains(seq), contains, "contains {}", seq);
            }
        }
        Ok(())
    }

    proptest! {
        /// Holds above, at and below the watermark, replacements, the
        /// in-order path, pops, raises and clears: the window answers every
        /// question as the map does.
        #[test]
        fn window_agrees_with_the_map(ops in proptest::collection::vec(op(), 0..120)) {
            window_agrees(&ops)?;
        }

        /// Ids from three origins, mostly in order with gaps and
        /// duplicates: every verdict of the per-origin id trackers matches
        /// the set of every id, and their held counts are exactly the ids
        /// above each origin's gap.
        #[test]
        fn seen_ids_agree_with_the_oracle(
            ids in proptest::collection::vec((0usize..3, 1u64..24), 0..120)
        ) {
            let mut new = vec![SeqWindow::<()>::default(); 3];
            let mut old = HashSet::new();
            for (origin, seq) in ids {
                let id = MsgId { origin: SiteId(origin), seq };
                prop_assert_eq!(new[origin].insert(seq), old.insert(id), "verdict on {}", id);
            }
            for (o, w) in new.iter().enumerate() {
                let origin = SiteId(o);
                let prefix = (1..).take_while(|&seq| old.contains(&MsgId { origin, seq })).count();
                let above = old.iter().filter(|id| id.origin == origin).count() - prefix;
                prop_assert_eq!((w.watermark(), w.held()), (prefix as u64, above));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10_000, ..ProptestConfig::default() })]

        /// The same property over 10 000 sequences (release:
        /// `cargo test --release -p bcastdb-broadcast _10k -- --ignored`).
        #[test]
        #[ignore]
        fn window_agrees_with_the_map_10k(ops in proptest::collection::vec(op(), 0..240)) {
            window_agrees(&ops)?;
        }
    }

    #[test]
    fn in_order_numbers_never_touch_the_slots() {
        let mut w = SeqWindow::<()>::default();
        for seq in 1..=100 {
            assert!(w.insert(seq));
            assert_eq!((w.held(), w.slots.capacity()), (0, 0));
        }
        assert_eq!(w.watermark(), 100);
        assert!(!w.insert(7), "duplicate below the watermark");
    }

    #[test]
    fn gaps_are_held_then_absorbed() {
        let mut w = SeqWindow::<()>::default();
        assert!(w.insert(3) && w.insert(2));
        assert!(!w.insert(3), "duplicate above the watermark");
        assert_eq!((w.watermark(), w.held(), w.max_seen()), (0, 2, 3));
        assert!(w.contains(3) && !w.contains(1) && !w.contains(4));
        assert!(w.insert(1));
        assert_eq!((w.watermark(), w.held(), w.max_seen()), (3, 0, 3));
    }

    #[test]
    fn raise_drops_what_it_covers_and_keeps_the_rest() {
        let mut w = SeqWindow::default();
        for seq in [2, 5, 6, 9] {
            w.hold(seq, seq);
        }
        w.raise(4);
        assert_eq!((w.watermark(), w.held(), w.head()), (4, 3, Some(&5)));
        assert_eq!((w.pop(), w.pop(), w.pop()), (Some(5), Some(6), None));
        w.raise(2);
        assert_eq!(w.watermark(), 6, "never lowered");
    }

    /// The store `Archive` replaced: one map over `(origin, seq)`, and the
    /// round-robin cursor loop both engines ran over it.
    fn oracle_retransmissions(
        map: &BTreeMap<(SiteId, u64), u32>,
        marks: &[u64],
        cap: usize,
    ) -> Vec<(MsgId, u32)> {
        let mut cursors: Vec<(SiteId, u64)> = (marks.iter().enumerate())
            .map(|(origin, &wm)| (SiteId(origin), wm + 1))
            .filter(|&(origin, next)| map.contains_key(&(origin, next)))
            .collect();
        let mut out = Vec::new();
        while out.len() < cap && !cursors.is_empty() {
            cursors.retain_mut(|(origin, next)| {
                if out.len() >= cap {
                    return false;
                }
                match map.get(&(*origin, *next)) {
                    Some(&p) => {
                        let id = MsgId {
                            origin: *origin,
                            seq: *next,
                        };
                        out.push((id, p));
                        *next += 1;
                        true
                    }
                    None => false,
                }
            });
        }
        out
    }

    /// One input to an archive at site 3 of 4: a message kept, or a
    /// request from peer `peer` whose marks either start from its last
    /// report (`fresh`: each mark raised to at least the reported one) or
    /// are taken as they are (a delayed duplicate may ask from below it).
    #[derive(Debug, Clone)]
    enum ArchiveStep {
        Keep(usize, u64, u32),
        Ask {
            peer: usize,
            marks: Vec<u64>,
            fresh: bool,
            cap: usize,
        },
    }

    fn archive_step() -> impl Strategy<Value = ArchiveStep> {
        let keep =
            (0usize..4, 1u64..24, any::<u32>()).prop_map(|(o, s, p)| ArchiveStep::Keep(o, s, p));
        let marks = proptest::collection::vec(0u64..26, 0..6);
        let ask =
            (0usize..3, marks, any::<bool>(), 0usize..40).prop_map(|(peer, marks, fresh, cap)| {
                ArchiveStep::Ask {
                    peer,
                    marks,
                    fresh,
                    cap,
                }
            });
        prop_oneof![keep.clone(), keep, ask]
    }

    proptest! {
        /// Inserts from four origins out of order, with gaps and repeats,
        /// and requests from three peers at random marks and caps, some
        /// from below what their sender reported before. After every step
        /// each origin's cut is the lowest of the peers' highest reports
        /// (so an older report never lowers it) and the archive keeps
        /// exactly what the map holds above it; every request gets the
        /// map's answer above the cut, and a request at or above its
        /// sender's last report gets the answer of the uncut map: the same
        /// count and the same wires in the same order.
        #[test]
        fn archive_agrees_with_the_map(steps in proptest::collection::vec(archive_step(), 0..160)) {
            let mut archive = Archive::new(SiteId(3), 4);
            let mut map = BTreeMap::new();
            let mut reported = [[0u64; 4]; 3];
            let mut floors = [0u64; 4];
            for step in steps {
                match step {
                    ArchiveStep::Keep(o, seq, p) => {
                        archive.keep(MsgId { origin: SiteId(o), seq }, || p);
                        map.insert((SiteId(o), seq), p);
                    }
                    ArchiveStep::Ask { peer, mut marks, fresh, cap } => {
                        if fresh {
                            marks.iter_mut().zip(reported[peer]).for_each(|(m, r)| *m = r.max(*m));
                        }
                        for (r, &m) in reported[peer].iter_mut().zip(&marks) {
                            *r = m.max(*r);
                        }
                        let mut got = Vec::new();
                        let marks_iter = marks.iter().copied();
                        archive.missing(SiteId(peer), marks_iter, cap, |id, &p| got.push((id, p)));
                        for (o, floor) in floors.iter_mut().enumerate() {
                            let cut = reported.iter().map(|r| r[o]).min().unwrap();
                            prop_assert!(cut >= *floor, "origin {}'s cut fell", o);
                            *floor = cut;
                        }
                        let mut above = map.clone();
                        above.retain(|&(o, seq), _| seq > floors[o.0]);
                        prop_assert_eq!(&got, &oracle_retransmissions(&above, &marks, cap));
                        if fresh {
                            prop_assert_eq!(&got, &oracle_retransmissions(&map, &marks, cap));
                        }
                    }
                }
                for (o, &floor) in floors.iter().enumerate() {
                    prop_assert_eq!(archive.by_origin[o].watermark(), floor, "origin {}", o);
                }
                let kept = map.keys().filter(|&&(o, seq)| seq > floors[o.0]).count();
                prop_assert_eq!(archive.len(), kept);
            }
            let mut off = Archive::new(SiteId(0), 0);
            off.keep(MsgId { origin: SiteId(0), seq: 1 }, || 7);
            off.missing(SiteId(1), [0; 4], 8, |_, _| panic!("an archive that keeps nothing sent"));
            prop_assert_eq!((off.len(), off.reports.len()), (0, 0));
        }
    }

    #[test]
    fn msg_id_orders_by_origin_then_seq() {
        let a = MsgId {
            origin: SiteId(0),
            seq: 9,
        };
        let b = MsgId {
            origin: SiteId(1),
            seq: 1,
        };
        assert!(a < b);
        assert_eq!(a.to_string(), "s0#9");
    }

    #[test]
    fn all_includes_me() {
        let all: Vec<_> = dest_iter(Dest::All, SiteId(1), 3).collect();
        assert_eq!(all, vec![SiteId(0), SiteId(1), SiteId(2)]);
    }

    #[test]
    fn others_excludes_me() {
        let others: Vec<_> = dest_iter(Dest::Others, SiteId(1), 3).collect();
        assert_eq!(others, vec![SiteId(0), SiteId(2)]);
    }

    #[test]
    fn site_is_singleton() {
        let one: Vec<_> = dest_iter(Dest::Site(SiteId(2)), SiteId(0), 5).collect();
        assert_eq!(one, vec![SiteId(2)]);
    }

    #[test]
    fn dest_iter_len_counts_what_it_yields() {
        for n in 1..6 {
            for me in 0..n {
                for dest in [Dest::All, Dest::Others, Dest::Site(SiteId(n - 1))] {
                    let it = dest_iter(dest, SiteId(me), n);
                    let want = match dest {
                        Dest::All => n,
                        Dest::Others => n - 1,
                        Dest::Site(_) => 1,
                    };
                    assert_eq!(it.len(), want, "dest={dest:?} me={me} n={n}");
                    assert_eq!(it.count(), want, "dest={dest:?} me={me} n={n}");
                }
            }
        }
    }

    /// What a shelf is exercised with: a sized value made by assignment
    /// (`make`, as payloads are) and an unsized one copied into place
    /// (`make_with`, as clock stamps are).
    trait Value {
        /// The `n`th value of a schedule, made on `shelf`.
        fn make(shelf: &mut Shelf<Self>, n: u64) -> Arc<Self>;
        /// True iff this is the `n`th value.
        fn is(&self, n: u64) -> bool;
    }

    impl Value for String {
        fn make(shelf: &mut Shelf<Self>, n: u64) -> Arc<Self> {
            shelf.make(format!("txn {n}"))
        }
        fn is(&self, n: u64) -> bool {
            *self == format!("txn {n}")
        }
    }

    impl Value for [u64] {
        fn make(shelf: &mut Shelf<Self>, n: u64) -> Arc<Self> {
            shelf.make_with(&[n, 0, n + 1][..], <[u64]>::copy_from_slice, Arc::from)
        }
        fn is(&self, n: u64) -> bool {
            *self == [n, 0, n + 1]
        }
    }

    /// Values whose copies (wires, holdbacks, archive entries) live on and
    /// die in random order: a handed-out value keeps its value while any
    /// copy of it lives, a new value reuses the oldest of the first `TRIES`
    /// shelved allocations nothing else holds, a new one if there is none,
    /// and the shelf never holds more than its bound.
    fn reuses_only_what_nothing_else_holds<T: Value + ?Sized>(
        steps: &[(u8, usize)],
    ) -> Result<(), TestCaseError> {
        let mut shelf = Shelf::<T>::default();
        let mut copies: Vec<(u64, Arc<T>)> = Vec::new();
        for (n, &(kind, pick)) in (0u64..).zip(steps) {
            if kind == 3 {
                if !copies.is_empty() {
                    copies.swap_remove(pick % copies.len());
                }
                continue;
            }
            let free = (shelf.0.iter().take(TRIES))
                .find(|p| Arc::strong_count(p) == 1)
                .map(Arc::as_ptr);
            let shelved: Vec<*const T> = shelf.0.iter().map(Arc::as_ptr).collect();
            let made = T::make(&mut shelf, n);
            prop_assert!(made.is(n));
            match free {
                Some(at) => prop_assert!(std::ptr::eq(Arc::as_ptr(&made), at)),
                None => prop_assert!(!shelved.contains(&Arc::as_ptr(&made))),
            }
            prop_assert!(shelf.0.len() <= SHELF);
            copies.extend((0..kind).map(|_| (n, Arc::clone(&made))));
            for (m, copy) in &copies {
                prop_assert!(copy.is(*m), "copy of value {m} was rewritten");
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn shelf_reuses_only_what_nothing_else_holds(
            steps in proptest::collection::vec((0u8..4, 0usize..64), 0..700)
        ) {
            reuses_only_what_nothing_else_holds::<String>(&steps)?;
            reuses_only_what_nothing_else_holds::<[u64]>(&steps)?;
        }
    }

    /// A held value is passed over for an unheld one behind it; only
    /// `TRIES` held values in a row make a new allocation, and the shelf
    /// never outgrows its bound nor rewrites a held value.
    fn held_values_are_passed_over<T: Value + ?Sized>() {
        let mut shelf = Shelf::<T>::default();
        let held = T::make(&mut shelf, 0);
        for n in 1..2 * SHELF as u64 {
            T::make(&mut shelf, n);
        }
        assert_eq!(shelf.0.len(), 2, "the held value and one reused");
        let kept: Vec<_> = (0..2 * SHELF as u64)
            .map(|n| T::make(&mut shelf, n))
            .collect();
        assert_eq!(shelf.0.len(), SHELF);
        assert!(held.is(0), "the held value left the shelf intact");
        assert!((0..).zip(&kept).all(|(n, v)| v.is(n)));
        drop(kept);
        // Nothing else holds the shelved ones: the next value reuses one.
        let shelved: Vec<*const T> = shelf.0.iter().map(Arc::as_ptr).collect();
        assert!(shelved.contains(&Arc::as_ptr(&T::make(&mut shelf, 0))));
    }

    #[test]
    fn held_values_are_passed_over_up_to_the_bound() {
        held_values_are_passed_over::<String>();
        held_values_are_passed_over::<[u64]>();
    }

    #[test]
    fn outbound_constructors() {
        assert_eq!(Outbound::all(7u8).dest, Dest::All);
        assert_eq!(Outbound::others(7u8).dest, Dest::Others);
        assert_eq!(Outbound::to(SiteId(3), 7u8).dest, Dest::Site(SiteId(3)));
    }
}
