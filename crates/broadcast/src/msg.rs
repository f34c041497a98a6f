//! Common message plumbing shared by the broadcast engines.

use bcastdb_sim::SiteId;
use std::collections::VecDeque;
use std::fmt;

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
/// sites with the caller at `me`, in ascending site order — the
/// allocation-free form of [`expand_dest`], used on the per-send fan-out
/// hot path.
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

/// Expands a [`Dest`] into concrete site ids for a system of `n` sites with
/// the caller at `me`. Allocates; prefer [`dest_iter`] on hot paths.
pub fn expand_dest(dest: Dest, me: SiteId, n: usize) -> Vec<SiteId> {
    dest_iter(dest, me, n).collect()
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

/// Every message an engine has seen (sent or received), kept for
/// retransmission to peers that lost their copies: one window per origin
/// whose watermark stays at 0. Kept whole on purpose: a sync request can be
/// a delayed duplicate of an old one, so no watermark a peer has reported
/// since bounds what the next request asks for — and how many wires an
/// answer holds is part of the run's message counts.
#[derive(Debug)]
pub(crate) struct Archive<T> {
    by_origin: Vec<SeqWindow<T>>,
    /// `missing`'s per-origin cursors, kept for reuse.
    cursors: Vec<MsgId>,
}

impl<T> Archive<T> {
    /// An empty archive for origins `0..n`. With `n == 0` it keeps nothing:
    /// only loss-recovery deployments ask for retransmissions, so the
    /// others skip a copy per message.
    pub(crate) fn new(n: usize) -> Self {
        let by_origin = (0..n).map(|_| SeqWindow::default()).collect();
        Archive {
            by_origin,
            cursors: Vec::new(),
        }
    }

    /// Keeps `item()` as message `id`, replacing an earlier copy.
    pub(crate) fn keep(&mut self, id: MsgId, item: impl FnOnce() -> T) {
        if let Some(row) = self.by_origin.get_mut(id.origin.0) {
            row.hold(id.seq, item());
        }
    }

    fn get(&self, id: MsgId) -> Option<&T> {
        self.by_origin.get(id.origin.0)?.get(id.seq)
    }

    /// Number of messages kept.
    pub(crate) fn len(&self) -> usize {
        self.by_origin.iter().map(SeqWindow::held).sum()
    }

    /// Hands `send` the kept messages a peer at per-origin delivery
    /// watermarks `marks` is missing: at most `cap`, round-robin across
    /// origins, gap-first within each.
    pub(crate) fn missing(
        &mut self,
        marks: impl IntoIterator<Item = u64>,
        cap: usize,
        mut send: impl FnMut(MsgId, &T),
    ) {
        // One cursor per origin with at least one kept successor.
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.clear();
        cursors.extend(
            (marks.into_iter().enumerate())
                .map(|(o, mark)| MsgId {
                    origin: SiteId(o),
                    seq: mark + 1,
                })
                .filter(|&id| self.get(id).is_some()),
        );
        let mut sent = 0;
        while sent < cap && !cursors.is_empty() {
            cursors.retain_mut(|id| match self.get(*id) {
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

    proptest! {
        /// Inserts from four origins out of order, with gaps and repeats,
        /// then questions at random watermarks and caps: the same count
        /// and the same wires in the same order as the map.
        #[test]
        fn archive_agrees_with_the_map(
            inserts in proptest::collection::vec((0usize..4, 1u64..24, any::<u32>()), 0..120),
            questions in proptest::collection::vec(
                (proptest::collection::vec(0u64..26, 0..6), 0usize..40),
                1..8,
            ),
        ) {
            let mut archive = Archive::new(4);
            let mut map = BTreeMap::new();
            for (o, seq, p) in inserts {
                let id = MsgId { origin: SiteId(o), seq };
                archive.keep(id, || p);
                map.insert((id.origin, seq), p);
                prop_assert_eq!(archive.len(), map.len());
            }
            for (marks, cap) in questions {
                let mut got = Vec::new();
                archive.missing(marks.iter().copied(), cap, |id, &p| got.push((id, p)));
                prop_assert_eq!(got, oracle_retransmissions(&map, &marks, cap));
            }
            let mut off = Archive::new(0);
            off.keep(MsgId { origin: SiteId(0), seq: 1 }, || 7);
            prop_assert_eq!(off.len(), 0);
            off.missing([0; 4], 8, |_, _| panic!("an archive that keeps nothing sent"));
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
    fn expand_all_includes_me() {
        assert_eq!(
            expand_dest(Dest::All, SiteId(1), 3),
            vec![SiteId(0), SiteId(1), SiteId(2)]
        );
    }

    #[test]
    fn expand_others_excludes_me() {
        assert_eq!(
            expand_dest(Dest::Others, SiteId(1), 3),
            vec![SiteId(0), SiteId(2)]
        );
    }

    #[test]
    fn expand_site_is_singleton() {
        assert_eq!(
            expand_dest(Dest::Site(SiteId(2)), SiteId(0), 5),
            vec![SiteId(2)]
        );
    }

    #[test]
    fn dest_iter_matches_expand_dest() {
        for n in 1..6 {
            for me in 0..n {
                for dest in [Dest::All, Dest::Others, Dest::Site(SiteId(n - 1))] {
                    let it = dest_iter(dest, SiteId(me), n);
                    assert_eq!(it.len(), expand_dest(dest, SiteId(me), n).len());
                    assert_eq!(
                        it.collect::<Vec<_>>(),
                        expand_dest(dest, SiteId(me), n),
                        "dest={dest:?} me={me} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn outbound_constructors() {
        assert_eq!(Outbound::all(7u8).dest, Dest::All);
        assert_eq!(Outbound::others(7u8).dest, Dest::Others);
        assert_eq!(Outbound::to(SiteId(3), 7u8).dest, Dest::Site(SiteId(3)));
    }
}
