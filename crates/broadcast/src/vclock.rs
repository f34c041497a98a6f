//! Vector clocks.
//!
//! The causal replication protocol of the paper *requires* that "the
//! communication layer must expose the mechanism used for determining causal
//! relationships among messages, e.g., the vector clocks associated with the
//! messages" — both to detect concurrent conflicting operations early and to
//! recognise implicit acknowledgements. [`VectorClock`] is that mechanism.

use bcastdb_sim::SiteId;
use std::cmp::Ordering;
use std::fmt;

/// The causal relationship between two events, per their vector clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalRelation {
    /// `a` happened-before `b`.
    Before,
    /// `b` happened-before `a`.
    After,
    /// Identical clocks.
    Equal,
    /// Neither happened-before the other.
    Concurrent,
}

/// A fixed-width vector clock over the sites of the system.
///
/// Component `i` counts the broadcast events of site `i` known to the
/// clock's owner.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct VectorClock {
    counts: Vec<u64>,
}

impl VectorClock {
    /// The all-zero clock for a system of `n` sites.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "vector clock needs at least one site");
        VectorClock { counts: vec![0; n] }
    }

    /// Number of sites this clock covers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True iff the clock covers zero sites (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The component for `site`.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn get(&self, site: SiteId) -> u64 {
        self.counts[site.0]
    }

    /// Sets the component for `site`.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn set(&mut self, site: SiteId, value: u64) {
        self.counts[site.0] = value;
    }

    /// Overwrites this clock with `other`, reusing the existing buffer —
    /// the allocation-free alternative to `clone` for per-broadcast
    /// snapshots on the hot path.
    pub fn copy_from(&mut self, other: &VectorClock) {
        self.counts.clone_from(&other.counts);
    }

    /// Increments the component for `site`, returning the new value.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn increment(&mut self, site: SiteId) -> u64 {
        self.counts[site.0] += 1;
        self.counts[site.0]
    }

    /// Component-wise maximum with `other`.
    ///
    /// # Panics
    /// Panics if the clocks have different widths.
    pub fn merge(&mut self, other: &VectorClock) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "clock width mismatch"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Component-wise minimum with `other`: what both clocks' owners are
    /// known to have seen.
    ///
    /// # Panics
    /// Panics if the clocks have different widths.
    pub fn meet(&mut self, other: &VectorClock) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "clock width mismatch"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = (*mine).min(*theirs);
        }
    }

    /// True iff every component of `self` is `<=` the corresponding
    /// component of `other` (i.e. `self` causally precedes or equals).
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "clock width mismatch"
        );
        self.counts.iter().zip(&other.counts).all(|(a, b)| a <= b)
    }

    /// Classifies the causal relationship between the events stamped with
    /// `self` and `other`.
    ///
    /// # Panics
    /// Panics if the clocks have different widths.
    pub fn relation(&self, other: &VectorClock) -> CausalRelation {
        let le = self.dominated_by(other);
        let ge = other.dominated_by(self);
        match (le, ge) {
            (true, true) => CausalRelation::Equal,
            (true, false) => CausalRelation::Before,
            (false, true) => CausalRelation::After,
            (false, false) => CausalRelation::Concurrent,
        }
    }

    /// True iff the two clocks are causally concurrent (neither dominates).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.relation(other) == CausalRelation::Concurrent
    }

    /// Iterates over `(SiteId, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.counts.iter().enumerate().map(|(i, &c)| (SiteId(i), c))
    }
}

impl PartialOrd for VectorClock {
    /// Partial order by causality; `None` for concurrent clocks.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match self.relation(other) {
            CausalRelation::Before => Some(Ordering::Less),
            CausalRelation::After => Some(Ordering::Greater),
            CausalRelation::Equal => Some(Ordering::Equal),
            CausalRelation::Concurrent => None,
        }
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.counts.iter().enumerate() {
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
    fn relation_classifies_all_cases() {
        assert_eq!(vc(&[1, 0]).relation(&vc(&[1, 1])), CausalRelation::Before);
        assert_eq!(vc(&[2, 1]).relation(&vc(&[1, 1])), CausalRelation::After);
        assert_eq!(vc(&[1, 1]).relation(&vc(&[1, 1])), CausalRelation::Equal);
        assert_eq!(
            vc(&[1, 0]).relation(&vc(&[0, 1])),
            CausalRelation::Concurrent
        );
    }

    #[test]
    fn partial_ord_matches_relation() {
        assert!(vc(&[1, 0]) < vc(&[1, 1]));
        assert!(vc(&[2, 2]) > vc(&[1, 1]));
        assert_eq!(vc(&[1, 0]).partial_cmp(&vc(&[0, 1])), None);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_widths_panic() {
        let _ = vc(&[1]).relation(&vc(&[1, 2]));
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

        #[test]
        fn relation_is_antisymmetric(a in proptest::collection::vec(0u64..10, 3),
                                     b in proptest::collection::vec(0u64..10, 3)) {
            let ca = vc(&a);
            let cb = vc(&b);
            let fwd = ca.relation(&cb);
            let bwd = cb.relation(&ca);
            let expected = match fwd {
                CausalRelation::Before => CausalRelation::After,
                CausalRelation::After => CausalRelation::Before,
                CausalRelation::Equal => CausalRelation::Equal,
                CausalRelation::Concurrent => CausalRelation::Concurrent,
            };
            prop_assert_eq!(bwd, expected);
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
    }
}
