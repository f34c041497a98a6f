//! Vector clocks.
//!
//! The causal replication protocol of the paper *requires* that "the
//! communication layer must expose the mechanism used for determining causal
//! relationships among messages, e.g., the vector clocks associated with the
//! messages" — both to detect concurrent conflicting operations early and to
//! recognise implicit acknowledgements. [`VectorClock`] is that mechanism.

use crate::msg::Shelf;
use bcastdb_sim::SiteId;
use std::fmt;
use std::sync::Arc;

/// A fixed-width vector clock over the sites of the system.
///
/// Component `i` counts the broadcast events of site `i` known to the
/// clock's owner. A clone is a frozen snapshot in a shared buffer, and a
/// clone of a snapshot — a broadcast's self-delivery, each destination's
/// copy of its wire, a clock stored beside a delivered operation — is a
/// refcount bump; so a broadcasting site copies its clock once per
/// broadcast, however many sites the wire reaches.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct VectorClock {
    counts: Counts,
}

/// Where a clock's counts live. Its owner's working clock is a box of its
/// own, written in place without the atomic read-modify-write that
/// `Arc::get_mut`/`make_mut` would cost on every write; the first write to
/// a snapshot thaws it into a box.
#[derive(Debug, Clone)]
enum Counts {
    Owned(Box<[u64]>),
    Shared(Arc<[u64]>),
}

impl VectorClock {
    /// The all-zero clock for a system of `n` sites.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "vector clock needs at least one site");
        VectorClock {
            counts: Counts::Owned(vec![0; n].into_boxed_slice()),
        }
    }

    fn counts(&self) -> &[u64] {
        match &self.counts {
            Counts::Owned(own) => own,
            Counts::Shared(shared) => shared,
        }
    }

    fn counts_mut(&mut self) -> &mut [u64] {
        if let Counts::Shared(shared) = &self.counts {
            self.counts = Counts::Owned(thaw(shared));
        }
        match &mut self.counts {
            Counts::Owned(own) => own,
            Counts::Shared(_) => unreachable!("thawed above"),
        }
    }

    /// Number of sites this clock covers.
    pub fn len(&self) -> usize {
        self.counts().len()
    }

    /// True iff the clock covers zero sites (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.counts().is_empty()
    }

    /// The component for `site`.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn get(&self, site: SiteId) -> u64 {
        self.counts()[site.0]
    }

    /// Sets the component for `site`.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn set(&mut self, site: SiteId, value: u64) {
        self.counts_mut()[site.0] = value;
    }

    /// Overwrites this clock with `other`: in place when this clock is an
    /// owner's working clock, so a per-broadcast snapshot allocates
    /// nothing, and otherwise by taking `other`'s representation (a
    /// snapshot's buffer is shared, not copied).
    pub fn copy_from(&mut self, other: &VectorClock) {
        let theirs = other.counts();
        match &mut self.counts {
            Counts::Owned(mine) if mine.len() == theirs.len() => mine.copy_from_slice(theirs),
            _ => self.counts = other.counts.clone(),
        }
    }

    /// A frozen snapshot like [`Clone::clone`]'s, in a buffer off `shelf`:
    /// a broadcast's stamp allocates only while every shelved one is held.
    pub fn freeze(&self, shelf: &mut Shelf<[u64]>) -> VectorClock {
        VectorClock::frozen(self.counts(), shelf)
    }

    /// The clock whose components are `counts`, frozen like
    /// [`VectorClock::freeze`]'s snapshot.
    pub fn frozen(counts: &[u64], shelf: &mut Shelf<[u64]>) -> VectorClock {
        let shared = shelf.make_with(counts, <[u64]>::copy_from_slice, Arc::from);
        VectorClock {
            counts: Counts::Shared(shared),
        }
    }

    /// Increments the component for `site`, returning the new value.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn increment(&mut self, site: SiteId) -> u64 {
        let count = &mut self.counts_mut()[site.0];
        *count += 1;
        *count
    }

    /// Component-wise maximum with `other`.
    ///
    /// # Panics
    /// Panics if the clocks have different widths.
    pub fn merge(&mut self, other: &VectorClock) {
        self.combine(other, u64::max);
    }

    /// Component-wise minimum with `other`: what both clocks' owners are
    /// known to have seen.
    ///
    /// # Panics
    /// Panics if the clocks have different widths.
    pub fn meet(&mut self, other: &VectorClock) {
        self.combine(other, u64::min);
    }

    fn combine(&mut self, other: &VectorClock, pick: impl Fn(u64, u64) -> u64) {
        let (mine, theirs) = (self.counts_mut(), other.counts());
        assert_eq!(mine.len(), theirs.len(), "clock width mismatch");
        for (mine, &theirs) in mine.iter_mut().zip(theirs) {
            *mine = pick(*mine, theirs);
        }
    }

    /// True iff every component of `self` is `<=` the corresponding
    /// component of `other` (i.e. `self` causally precedes or equals).
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        le(self.counts(), other.counts())
    }

    /// True iff the two clocks are causally concurrent (neither dominates).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.dominated_by(other) && !other.dominated_by(self)
    }

    /// Iterates over `(SiteId, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.counts()
            .iter()
            .enumerate()
            .map(|(i, &c)| (SiteId(i), c))
    }
}

/// Component-wise `<=` of two clocks' counts.
fn le(a: &[u64], b: &[u64]) -> bool {
    assert_eq!(a.len(), b.len(), "clock width mismatch");
    a.iter().zip(b).all(|(a, b)| a <= b)
}

/// Clocks of `n` sites side by side in one buffer, a slot each, a freed
/// slot reused: a holder of many clocks copies each in rather than keep
/// its buffer alive, and grows one allocation instead of making one per
/// clock.
#[derive(Debug)]
pub struct ClockSlab {
    n: usize,
    counts: Vec<u64>,
    free: Vec<usize>,
}

impl ClockSlab {
    /// An empty slab of `n`-site clocks, with room for `slots` of them.
    pub fn new(n: usize, slots: usize) -> Self {
        let (counts, free) = (Vec::with_capacity(n * slots), Vec::with_capacity(slots));
        ClockSlab { n, counts, free }
    }

    /// Copies `vc` into a free slot, and returns the slot.
    pub fn insert(&mut self, vc: &VectorClock) -> usize {
        let slot = self.free.pop().unwrap_or(self.counts.len() / self.n);
        let end = (slot + 1) * self.n;
        self.counts.resize(self.counts.len().max(end), 0);
        self.counts[end - self.n..end].copy_from_slice(vc.counts());
        slot
    }

    /// The counts of the clock in `slot`.
    pub fn get(&self, slot: usize) -> &[u64] {
        &self.counts[slot * self.n..][..self.n]
    }

    /// Frees `slot` for the next insert.
    pub fn remove(&mut self, slot: usize) {
        self.free.push(slot);
    }

    /// True iff the clocks in slots `a` and `b` are causally concurrent.
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        !le(self.get(a), self.get(b)) && !le(self.get(b), self.get(a))
    }

    /// True iff the clock in `slot` is dominated by `vc`.
    pub fn dominated_by(&self, slot: usize, vc: &VectorClock) -> bool {
        le(self.get(slot), vc.counts())
    }
}

/// A snapshot's first write. Out of line and cold, so an owner's in-place
/// writes (`copy_from` + `merge`: 9 ns at n = 5) inline without it.
#[cold]
fn thaw(shared: &[u64]) -> Box<[u64]> {
    Box::from(shared)
}

impl Clone for VectorClock {
    /// A frozen snapshot: copies an owner's working clock into a shared
    /// buffer once, and shares a snapshot's buffer.
    fn clone(&self) -> Self {
        let shared = match &self.counts {
            Counts::Owned(own) => Arc::from(&own[..]),
            Counts::Shared(shared) => Arc::clone(shared),
        };
        VectorClock {
            counts: Counts::Shared(shared),
        }
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.counts() == other.counts()
    }
}

impl Eq for VectorClock {}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.counts().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vc(v: &[u64]) -> VectorClock {
        let mut c = VectorClock::new(v.len());
        for (i, &x) in v.iter().enumerate() {
            c.set(SiteId(i), x);
        }
        c
    }

    #[test]
    fn new_is_all_zero() {
        let c = VectorClock::new(3);
        assert_eq!(c.len(), 3);
        for (_, v) in c.iter() {
            assert_eq!(v, 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_width_panics() {
        let _ = VectorClock::new(0);
    }

    #[test]
    fn increment_bumps_only_that_site() {
        let mut c = VectorClock::new(3);
        assert_eq!(c.increment(SiteId(1)), 1);
        assert_eq!(c.get(SiteId(0)), 0);
        assert_eq!(c.get(SiteId(1)), 1);
        assert_eq!(c.get(SiteId(2)), 0);
    }

    #[test]
    fn merge_is_componentwise_max() {
        let mut a = vc(&[1, 5, 0]);
        a.merge(&vc(&[3, 2, 0]));
        assert_eq!(a, vc(&[3, 5, 0]));
    }

    #[test]
    fn domination_and_concurrency_classify_all_cases() {
        assert!(vc(&[1, 0]).dominated_by(&vc(&[1, 1])));
        assert!(!vc(&[2, 1]).dominated_by(&vc(&[1, 1])));
        assert!(vc(&[1, 1]).dominated_by(&vc(&[1, 1])));
        assert!(vc(&[1, 0]).concurrent_with(&vc(&[0, 1])));
        assert!(!vc(&[1, 0]).concurrent_with(&vc(&[1, 1])));
        assert!(!vc(&[1, 1]).concurrent_with(&vc(&[1, 1])));
    }

    /// A frozen clock reads as the counts it was made from, whether its
    /// buffer is fresh or a reused one.
    #[test]
    fn frozen_reads_as_its_counts() {
        let mut shelf = Shelf::default();
        for round in 0..3 {
            let counts = [round, 5, 9];
            assert_eq!(VectorClock::frozen(&counts, &mut shelf), vc(&counts));
        }
        assert_eq!(vc(&[4, 5, 6]).freeze(&mut shelf), vc(&[4, 5, 6]));
    }

    /// A slab copies clocks in, gives a freed slot to the next one, and
    /// leaves the other slots alone.
    #[test]
    fn slab_slots_hold_their_clocks_and_are_reused() {
        let mut slab = ClockSlab::new(3, 1);
        let (a, b) = (slab.insert(&vc(&[1, 0, 2])), slab.insert(&vc(&[0, 1, 2])));
        assert_eq!((slab.get(a), slab.get(b)), (&[1, 0, 2][..], &[0, 1, 2][..]));
        assert!(slab.concurrent(a, b) && slab.dominated_by(a, &vc(&[1, 1, 2])));
        slab.remove(a);
        let c = slab.insert(&vc(&[1, 1, 2]));
        assert_eq!(c, a, "the freed slot");
        assert!(!slab.concurrent(b, c) && !slab.dominated_by(c, &vc(&[1, 0, 2])));
        assert_eq!(slab.get(b), [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_widths_panic() {
        let _ = vc(&[1]).concurrent_with(&vc(&[1, 2]));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(vc(&[1, 2, 3]).to_string(), "[1,2,3]");
    }

    proptest! {
        #[test]
        fn merge_dominates_both(a in proptest::collection::vec(0u64..50, 4),
                                b in proptest::collection::vec(0u64..50, 4)) {
            let ca = vc(&a);
            let cb = vc(&b);
            let mut m = ca.clone();
            m.merge(&cb);
            prop_assert!(ca.dominated_by(&m));
            prop_assert!(cb.dominated_by(&m));
        }

        /// Mutual domination is equality, and concurrency is symmetric
        /// and excludes domination either way.
        #[test]
        fn domination_is_antisymmetric(a in proptest::collection::vec(0u64..10, 3),
                                       b in proptest::collection::vec(0u64..10, 3)) {
            let (ca, cb) = (vc(&a), vc(&b));
            let (le, ge) = (ca.dominated_by(&cb), cb.dominated_by(&ca));
            prop_assert_eq!(le && ge, ca == cb);
            prop_assert_eq!(ca.concurrent_with(&cb), cb.concurrent_with(&ca));
            prop_assert_eq!(ca.concurrent_with(&cb), !le && !ge);
            let mut slab = ClockSlab::new(3, 0);
            let (sa, sb) = (slab.insert(&ca), slab.insert(&cb));
            prop_assert_eq!(slab.concurrent(sa, sb), ca.concurrent_with(&cb));
            prop_assert_eq!(slab.dominated_by(sa, &cb), le);
        }

        #[test]
        fn domination_is_transitive(a in proptest::collection::vec(0u64..10, 3),
                                    b in proptest::collection::vec(0u64..10, 3),
                                    c in proptest::collection::vec(0u64..10, 3)) {
            let (ca, cb, cc) = (vc(&a), vc(&b), vc(&c));
            if ca.dominated_by(&cb) && cb.dominated_by(&cc) {
                prop_assert!(ca.dominated_by(&cc));
            }
        }

        #[test]
        fn merge_is_commutative(a in proptest::collection::vec(0u64..50, 5),
                                b in proptest::collection::vec(0u64..50, 5)) {
            let mut ab = vc(&a);
            ab.merge(&vc(&b));
            let mut ba = vc(&b);
            ba.merge(&vc(&a));
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn merge_is_idempotent(a in proptest::collection::vec(0u64..50, 5)) {
            let ca = vc(&a);
            let mut m = ca.clone();
            m.merge(&ca);
            prop_assert_eq!(m, ca);
        }

        /// Clones share one buffer, yet a write through one is never seen
        /// through another: not by the original, not by a clock whose
        /// buffer `copy_from` shared, and the written clock reads like
        /// its unshared model.
        #[test]
        fn writes_to_a_clone_never_reach_the_original(
            a in proptest::collection::vec(0u64..50, 4),
            b in proptest::collection::vec(0u64..50, 4),
            ops in proptest::collection::vec((0u8..5, 0usize..4), 1..8),
        ) {
            let (original, other) = (vc(&a), vc(&b));
            let mut copy = original.clone();
            let mut model = a.clone();
            for (op, site) in ops {
                match op {
                    0 => {
                        copy.set(SiteId(site), 99);
                        model[site] = 99;
                    }
                    1 => {
                        copy.increment(SiteId(site));
                        model[site] += 1;
                    }
                    2 => {
                        copy.merge(&other);
                        model.iter_mut().zip(&b).for_each(|(m, &x)| *m = (*m).max(x));
                    }
                    3 => {
                        copy.meet(&other);
                        model.iter_mut().zip(&b).for_each(|(m, &x)| *m = (*m).min(x));
                    }
                    _ => {
                        copy.copy_from(&other);
                        model.clone_from(&b);
                    }
                }
            }
            prop_assert_eq!(&original, &vc(&a));
            prop_assert_eq!(&other, &vc(&b));
            prop_assert_eq!(&copy, &vc(&model));
        }
    }
}
