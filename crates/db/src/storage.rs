//! The versioned key-value store.
//!
//! Each site holds a full copy of every object (the paper assumes full
//! replication). Every committed write records its writer transaction, so
//! a read returns both the value and the identity of the version it
//! observed — exactly the *reads-from* information the one-copy
//! serialization-graph checker needs.

use crate::types::{Key, KeyMap, TxnId, Value, WriteOp};

/// The committed version of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// Current value.
    pub value: Value,
    /// Transaction that installed it; `None` for the initial version.
    pub writer: Option<TxnId>,
}

/// A full replica of the database at one site.
#[derive(Debug, Clone, Default)]
pub struct Store {
    /// Per key, the current version and the install order of committed
    /// writers (the ww order at this site, used by the serializability
    /// checker): one probe per written key.
    keys: KeyMap<(Version, Vec<TxnId>)>,
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
                    let (_, installs) = self
                        .keys
                        .entry(w.key.clone())
                        .or_insert((version, Vec::new()));
                    installs.push(txn);
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
            .or_insert((version, Vec::new()))
            .0 = version;
    }

    /// The per-key sequence of committed writers at this site.
    pub fn install_order(&self, key: &Key) -> &[TxnId] {
        self.keys.get(key).map_or(&[], |(_, installs)| installs)
    }

    /// Every written key with its install order, in no particular order —
    /// what the serializability checker compares across replicas, in place.
    pub fn install_orders(&self) -> impl Iterator<Item = (&Key, &[TxnId])> {
        let written = self.keys.iter().filter(|(_, (_, o))| !o.is_empty());
        written.map(|(k, (_, o))| (k, o.as_slice()))
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
