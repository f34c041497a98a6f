//! Duplicate tracking in space proportional to what is out of order.
//!
//! Every engine numbers its broadcasts per origin from 1, and links are
//! (nearly) FIFO, so "which ids have I seen" is almost always a prefix:
//! one watermark per origin plus the few sequence numbers that arrived
//! ahead of a gap. [`Contig`] tracks one origin; [`SeenIds`] is the
//! per-origin table the engines use in place of a set of every id ever
//! received.

use crate::msg::MsgId;
use std::collections::BTreeSet;

/// Highest-contiguous-prefix tracker for one origin's sequence numbers.
#[derive(Debug, Default, Clone)]
pub struct Contig {
    /// Highest `seq` such that all of `1..=seq` have been seen.
    watermark: u64,
    /// Seen sequence numbers above the watermark.
    above: BTreeSet<u64>,
}

impl Contig {
    /// Records `seq`; returns whether it was new.
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq <= self.watermark {
            return false;
        }
        if seq > self.watermark + 1 {
            return self.above.insert(seq);
        }
        // In order: nothing is inserted, so an empty set stays unallocated.
        self.watermark = seq;
        while self.above.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        true
    }

    /// True iff `seq` has been recorded.
    pub fn contains(&self, seq: u64) -> bool {
        seq <= self.watermark || self.above.contains(&seq)
    }

    /// Highest `seq` such that all of `1..=seq` have been recorded.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Treats everything up to `floor` as recorded (state transfer).
    pub fn raise(&mut self, floor: u64) {
        if floor > self.watermark {
            self.watermark = floor;
            self.above = self.above.split_off(&(floor + 1));
            while self.above.remove(&(self.watermark + 1)) {
                self.watermark += 1;
            }
        }
    }

    /// Highest sequence number recorded at all (contiguous or not).
    pub fn max_seen(&self) -> u64 {
        self.above.last().copied().unwrap_or(self.watermark)
    }

    /// Sequence numbers held individually because a gap precedes them.
    pub fn above_len(&self) -> usize {
        self.above.len()
    }
}

/// The set of message ids an engine has accepted, one [`Contig`] per
/// origin.
#[derive(Debug, Clone)]
pub struct SeenIds {
    by_origin: Vec<Contig>,
}

impl SeenIds {
    /// An empty set for an `n`-site system.
    pub fn new(n: usize) -> Self {
        SeenIds {
            by_origin: vec![Contig::default(); n],
        }
    }

    /// Records `id`; returns whether it was new.
    pub fn insert(&mut self, id: MsgId) -> bool {
        self.by_origin[id.origin.0].insert(id.seq)
    }

    /// Ids held individually (above a gap) across all origins: zero
    /// whenever every origin's stream has arrived without holes.
    pub fn live(&self) -> usize {
        self.by_origin.iter().map(Contig::above_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcastdb_sim::SiteId;
    use proptest::prelude::*;

    /// The table [`SeenIds`] replaced: every id ever inserted.
    mod oracle {
        use crate::msg::MsgId;
        use std::collections::HashSet;

        #[derive(Default)]
        pub(super) struct Oracle(HashSet<MsgId>);

        impl Oracle {
            pub(super) fn insert(&mut self, id: MsgId) -> bool {
                self.0.insert(id)
            }
        }
    }

    #[test]
    fn in_order_inserts_never_touch_the_set() {
        let mut c = Contig::default();
        for seq in 1..=100 {
            assert!(c.insert(seq));
            assert_eq!(c.above_len(), 0);
        }
        assert_eq!(c.watermark(), 100);
        assert!(!c.insert(7), "duplicate below the watermark");
    }

    #[test]
    fn gaps_are_held_then_absorbed() {
        let mut c = Contig::default();
        assert!(c.insert(3));
        assert!(c.insert(2));
        assert!(!c.insert(3), "duplicate above the watermark");
        assert_eq!((c.watermark(), c.above_len(), c.max_seen()), (0, 2, 3));
        assert!(c.contains(3) && !c.contains(1) && !c.contains(4));
        assert!(c.insert(1));
        assert!(c.contains(1) && c.contains(3) && !c.contains(4));
        assert_eq!((c.watermark(), c.above_len(), c.max_seen()), (3, 0, 3));
    }

    #[test]
    fn raise_swallows_what_it_covers_and_absorbs_the_rest() {
        let mut c = Contig::default();
        for seq in [2, 5, 6, 9] {
            c.insert(seq);
        }
        c.raise(4);
        assert_eq!((c.watermark(), c.above_len()), (6, 1));
        assert!(!c.insert(3) && !c.insert(9) && c.insert(7));
        c.raise(2);
        assert_eq!(c.watermark(), 7, "never lowered");
    }

    #[test]
    fn seen_ids_is_per_origin() {
        let mut s = SeenIds::new(2);
        let id = |origin, seq| MsgId {
            origin: SiteId(origin),
            seq,
        };
        assert!(s.insert(id(0, 1)));
        assert!(s.insert(id(1, 2)));
        assert!(!s.insert(id(0, 1)));
        assert_eq!(s.live(), 1);
        assert!(s.insert(id(1, 1)));
        assert_eq!(s.live(), 0);
    }

    proptest! {
        /// Ids from three origins, mostly in order with gaps and
        /// duplicates: every verdict matches the set of every id, and
        /// `live` counts exactly the ids above each origin's gap.
        #[test]
        fn seen_ids_agree_with_the_oracle(
            ids in proptest::collection::vec((0usize..3, 1u64..24), 0..120)
        ) {
            let mut new = SeenIds::new(3);
            let mut old = oracle::Oracle::default();
            for (origin, seq) in ids {
                let id = MsgId { origin: SiteId(origin), seq };
                prop_assert_eq!(new.insert(id), old.insert(id), "verdict on {}", id);
            }
            let above: usize = (0..3)
                .map(|o| {
                    let c = &new.by_origin[o];
                    (c.watermark() + 1..=c.max_seen()).filter(|&s| c.contains(s)).count()
                })
                .sum();
            prop_assert_eq!(new.live(), above);
        }
    }
}
