//! The versioned key-value store.
//!
//! Each site holds a full copy of every object (the paper assumes full
//! replication). Every committed write records its writer transaction, so
//! a read returns both the value and the identity of the version it
//! observed — exactly the *reads-from* information the one-copy
//! serialization-graph checker needs.

use crate::types::{Key, KeyMap, TxnId, Value, WriteOp};
use bcastdb_sim::SiteId;

/// The committed version of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// Current value.
    pub value: Value,
    /// Transaction that installed it; `None` for the initial version.
    pub writer: Option<TxnId>,
}

/// One key's committed writers in install order. Most keys of a large
/// keyspace are installed once or twice per run, so the first two are
/// held inline and only a third moves the order to the heap.
#[derive(Debug, Clone)]
enum Installs {
    Inline(u8, [TxnId; 2]),
    Spilled(Vec<TxnId>),
}

impl Installs {
    fn new() -> Self {
        Installs::Inline(0, [TxnId::new(SiteId(0), 0); 2])
    }

    #[inline]
    fn push(&mut self, txn: TxnId) {
        match self {
            Installs::Spilled(all) => all.push(txn),
            Installs::Inline(len, first) if usize::from(*len) < first.len() => {
                first[usize::from(*len)] = txn;
                *len += 1;
            }
            Installs::Inline(..) => self.spill(txn),
        }
    }

    /// Moves a full inline order to the heap, then appends `txn`. Out of
    /// line, so a hot key's push stays a branch and a `Vec::push`.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, txn: TxnId) {
        let mut all = Vec::with_capacity(4);
        all.extend_from_slice(self.as_slice());
        all.push(txn);
        *self = Installs::Spilled(all);
    }

    fn as_slice(&self) -> &[TxnId] {
        match self {
            Installs::Inline(len, first) => &first[..usize::from(*len)],
            Installs::Spilled(all) => all,
        }
    }
}

/// A full replica of the database at one site.
#[derive(Debug, Clone, Default)]
pub struct Store {
    /// Per key, the current version and the install order of committed
    /// writers (the ww order at this site, used by the serializability
    /// checker): one probe per written key.
    keys: KeyMap<(Version, Installs)>,
    applied_writes: u64,
}

impl Store {
    /// Creates an empty store; absent keys read as the initial version
    /// (value 0, no writer).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current committed version of `key`.
    pub fn read(&self, key: &Key) -> Version {
        self.keys.get(key).map_or(
            Version {
                value: 0,
                writer: None,
            },
            |&(version, _)| version,
        )
    }

    /// Convenience: the current committed value of `key` (0 if never
    /// written).
    pub fn value(&self, key: &Key) -> Value {
        self.read(key).value
    }

    /// Installs the write set of committed transaction `txn`.
    pub fn apply(&mut self, txn: TxnId, writes: &[WriteOp]) {
        for w in writes {
            let version = Version {
                value: w.value,
                writer: Some(txn),
            };
            match self.keys.get_mut(&w.key) {
                Some((current, installs)) => {
                    *current = version;
                    installs.push(txn);
                }
                None => {
                    let mut installs = Installs::new();
                    installs.push(txn);
                    self.keys.insert(w.key.clone(), (version, installs));
                }
            }
            self.applied_writes += 1;
        }
    }

    /// Pre-loads an initial value without recording a writer (database
    /// population before the measured run).
    pub fn seed(&mut self, key: impl Into<Key>, value: Value) {
        let version = Version {
            value,
            writer: None,
        };
        self.keys
            .entry(key.into())
            .or_insert((version, Installs::new()))
            .0 = version;
    }

    /// The per-key sequence of committed writers at this site.
    pub fn install_order(&self, key: &Key) -> &[TxnId] {
        self.keys
            .get(key)
            .map_or(&[], |(_, installs)| installs.as_slice())
    }

    /// Every written key with its install order, in no particular order —
    /// what the serializability checker compares across replicas, in place.
    pub fn install_orders(&self) -> impl Iterator<Item = (&Key, &[TxnId])> {
        let orders = self.keys.iter().map(|(k, (_, o))| (k, o.as_slice()));
        orders.filter(|(_, o)| !o.is_empty())
    }

    /// Iterates over `(key, version)` pairs of every object ever written
    /// or seeded.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Version)> {
        self.keys.iter().map(|(k, (v, _))| (k, v))
    }

    /// Number of distinct keys present.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff no key has ever been written or seeded.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total committed write operations applied.
    pub fn applied_writes(&self) -> u64 {
        self.applied_writes
    }

    /// True iff `self` and `other` hold identical current versions for the
    /// union of their keys — the *one-copy equivalence* check applied across
    /// replicas after a run quiesces.
    pub fn converged_with(&self, other: &Store) -> bool {
        let keys = self.keys.keys().chain(other.keys.keys());
        for k in keys {
            if self.read(k) != other.read(k) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcastdb_sim::SiteId;

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(0), n)
    }

    fn w(key: &str, v: Value) -> WriteOp {
        WriteOp {
            key: Key::new(key),
            value: v,
        }
    }

    #[test]
    fn absent_key_reads_initial_version() {
        let s = Store::new();
        let v = s.read(&Key::new("nope"));
        assert_eq!(v.value, 0);
        assert_eq!(v.writer, None);
        assert!(s.is_empty());
    }

    #[test]
    fn apply_installs_value_and_writer() {
        let mut s = Store::new();
        s.apply(t(1), &[w("x", 42)]);
        let v = s.read(&Key::new("x"));
        assert_eq!(v.value, 42);
        assert_eq!(v.writer, Some(t(1)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.applied_writes(), 1);
    }

    #[test]
    fn later_write_overwrites_and_appends_order() {
        let mut s = Store::new();
        s.apply(t(1), &[w("x", 1)]);
        s.apply(t(2), &[w("x", 2)]);
        assert_eq!(s.value(&Key::new("x")), 2);
        assert_eq!(s.install_order(&Key::new("x")), &[t(1), t(2)]);
    }

    /// Keys installed 0, 1, 2, 3 and 9 times: on both sides of the two
    /// inline slots, and past the spilled order's first growth.
    #[test]
    fn install_orders_cross_the_inline_boundary() {
        let mut s = Store::new();
        let counts = [0u64, 1, 2, 3, 9];
        let key = |count: u64| Key::new(format!("k{count}"));
        for round in 0..9 {
            for &count in counts.iter().filter(|&&c| round < c) {
                s.apply(
                    t(count * 100 + round),
                    &[w(&format!("k{count}"), round as i64)],
                );
            }
        }
        for count in counts {
            let want: Vec<TxnId> = (0..count).map(|round| t(count * 100 + round)).collect();
            assert_eq!(s.install_order(&key(count)), want.as_slice(), "k{count}");
        }
        let mut orders: Vec<(String, usize)> = (s.install_orders())
            .map(|(k, o)| (k.as_str().to_string(), o.len()))
            .collect();
        orders.sort();
        let want = [("k1", 1), ("k2", 2), ("k3", 3), ("k9", 9)];
        let want: Vec<(String, usize)> = want.iter().map(|&(k, n)| (k.into(), n)).collect();
        assert_eq!(orders, want);
    }

    #[test]
    fn seeded_keys_stay_out_of_install_orders() {
        let mut s = Store::new();
        s.seed("seeded", 5);
        s.seed("both", 1);
        s.apply(t(1), &[w("both", 2), w("written", 3)]);
        let mut keys: Vec<&str> = s.install_orders().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec!["both", "written"]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn a_clone_converges_with_its_original_and_keeps_its_orders() {
        let mut s = Store::new();
        s.seed("seeded", 5);
        for n in 0..5 {
            s.apply(t(n), &[w("hot", n as i64), w(&format!("cold{n}"), 1)]);
        }
        let copy = s.clone();
        assert!(copy.converged_with(&s) && s.converged_with(&copy));
        let orders = |s: &Store| {
            let mut o: Vec<(Key, Vec<TxnId>)> = (s.install_orders())
                .map(|(k, o)| (k.clone(), o.to_vec()))
                .collect();
            o.sort();
            o
        };
        assert_eq!(orders(&copy), orders(&s));
        assert_eq!(copy.install_order(&Key::new("hot")).len(), 5);
    }

    #[test]
    fn seed_does_not_record_writer() {
        let mut s = Store::new();
        s.seed("x", 7);
        assert_eq!(s.read(&Key::new("x")).writer, None);
        assert!(s.install_order(&Key::new("x")).is_empty());
    }

    #[test]
    fn convergence_check_compares_union_of_keys() {
        let mut a = Store::new();
        let mut b = Store::new();
        assert!(a.converged_with(&b));
        a.apply(t(1), &[w("x", 1)]);
        assert!(!a.converged_with(&b), "missing key in b");
        b.apply(t(1), &[w("x", 1)]);
        assert!(a.converged_with(&b));
        b.apply(t(2), &[w("y", 5)]);
        assert!(!a.converged_with(&b), "extra key in b");
    }

    #[test]
    fn convergence_requires_same_writer_not_just_value() {
        let mut a = Store::new();
        let mut b = Store::new();
        a.apply(t(1), &[w("x", 1)]);
        b.apply(t(2), &[w("x", 1)]);
        assert!(
            !a.converged_with(&b),
            "same value from different writers is not one-copy equivalent"
        );
    }

    #[test]
    fn multi_key_write_set_applies_atomically() {
        let mut s = Store::new();
        s.apply(t(3), &[w("a", 1), w("b", 2), w("c", 3)]);
        assert_eq!(s.value(&Key::new("a")), 1);
        assert_eq!(s.value(&Key::new("b")), 2);
        assert_eq!(s.value(&Key::new("c")), 3);
        assert_eq!(s.applied_writes(), 3);
    }
}
