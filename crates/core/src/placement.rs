//! Replica placement — lifting the paper's simplifying assumption.
//!
//! The paper assumes a fully replicated database "for simplicity". This
//! module generalizes to **partial replication**: each key is stored by a
//! deterministic subset of the sites. The broadcast dissemination is
//! unchanged (the medium reaches everyone — exactly the paper's setting);
//! what changes is *who acts on a write*:
//!
//! - only holders acquire locks and install values;
//! - non-holders still participate in commitment (their votes/acks are
//!   trivially positive for keys they do not store);
//! - reads stay local, so a transaction's read set must be held at its
//!   origin — [`Placement::local_keys`] gives workload generators the
//!   legal key space per site.
//!
//! Placement is deterministic from the key alone, so every site agrees on
//! who holds what without any directory service.

use bcastdb_db::Key;
use bcastdb_sim::SiteId;
use std::collections::BTreeSet;

/// How keys map to replica sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Every site stores every key (the paper's model; the default).
    #[default]
    Full,
    /// Each key is stored by `replicas` sites chosen deterministically
    /// (the key's FNV-1a hash selects a start position on the site ring).
    Ring {
        /// Copies per key (clamped to the site count at evaluation time).
        replicas: usize,
    },
}

impl Placement {
    /// True iff `site` stores `key` in an `n`-site system.
    pub fn is_holder(&self, site: SiteId, key: &Key, n: usize) -> bool {
        match *self {
            Placement::Full => true,
            Placement::Ring { replicas } => {
                let r = replicas.clamp(1, n);
                let start = (key.fnv1a() % n as u64) as usize;
                let offset = (site.0 + n - start) % n;
                offset < r
            }
        }
    }

    /// The set of sites storing `key`.
    pub fn holders(&self, key: &Key, n: usize) -> BTreeSet<SiteId> {
        (0..n)
            .map(SiteId)
            .filter(|&s| self.is_holder(s, key, n))
            .collect()
    }

    /// Filters `keys` down to those stored at `site` (the legal read set
    /// for transactions originating there).
    pub fn local_keys<'a, I>(&self, site: SiteId, n: usize, keys: I) -> Vec<Key>
    where
        I: IntoIterator<Item = &'a Key>,
    {
        keys.into_iter()
            .filter(|k| self.is_holder(site, k, n))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_placement_holds_everywhere() {
        let p = Placement::Full;
        for s in 0..5 {
            assert!(p.is_holder(SiteId(s), &Key::new("anything"), 5));
        }
        assert_eq!(p.holders(&Key::new("k"), 4).len(), 4);
    }

    #[test]
    fn ring_placement_has_exactly_r_holders() {
        let p = Placement::Ring { replicas: 3 };
        for i in 0..50 {
            let k = Key::new(format!("key{i}"));
            assert_eq!(p.holders(&k, 5).len(), 3, "{k}");
        }
    }

    #[test]
    fn ring_holders_are_consecutive_on_the_ring() {
        let p = Placement::Ring { replicas: 2 };
        let n = 5;
        for i in 0..30 {
            let k = Key::new(format!("key{i}"));
            let hs: Vec<usize> = p.holders(&k, n).iter().map(|s| s.0).collect();
            let consecutive = (0..n)
                .any(|start| (0..2).all(|off| hs.contains(&((start + off) % n))))
                && hs.len() == 2;
            assert!(consecutive, "{k}: {hs:?}");
        }
    }

    #[test]
    fn replicas_clamp_to_site_count() {
        let p = Placement::Ring { replicas: 10 };
        assert_eq!(p.holders(&Key::new("k"), 3).len(), 3);
        let p = Placement::Ring { replicas: 0 };
        assert_eq!(p.holders(&Key::new("k"), 3).len(), 1);
    }

    #[test]
    fn placement_is_deterministic() {
        let p = Placement::Ring { replicas: 2 };
        let a = p.holders(&Key::new("stable"), 7);
        let b = p.holders(&Key::new("stable"), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_spread_over_sites() {
        let p = Placement::Ring { replicas: 1 };
        let mut seen = BTreeSet::new();
        for i in 0..100 {
            seen.extend(p.holders(&Key::new(format!("k{i}")), 5));
        }
        assert_eq!(seen.len(), 5, "hashing should reach every site");
    }

    #[test]
    fn ring_positions_are_the_keys_fnv1a() {
        // Pinned: a change to the key's hash must not move replicas.
        let p = Placement::Ring { replicas: 1 };
        let starts: Vec<usize> = (0..10)
            .map(|i| p.holders(&Key::new(format!("k{i:06}")), 5))
            .map(|hs| hs.first().expect("one holder").0)
            .collect();
        assert_eq!(starts, [0, 1, 3, 4, 1, 2, 4, 0, 2, 3]);
    }

    #[test]
    fn local_keys_filters_by_holdership() {
        let p = Placement::Ring { replicas: 2 };
        let keys: Vec<Key> = (0..40).map(|i| Key::new(format!("k{i}"))).collect();
        let local = p.local_keys(SiteId(0), 5, keys.iter());
        assert!(!local.is_empty() && local.len() < keys.len());
        for k in &local {
            assert!(p.is_holder(SiteId(0), k, 5));
        }
    }
}
