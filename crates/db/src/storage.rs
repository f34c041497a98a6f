//! The versioned key-value store.
//!
//! Each site holds a full copy of every object (the paper assumes full
//! replication). Every committed write records its writer transaction, so
//! a read returns both the value and the identity of the version it
//! observed — exactly the *reads-from* information the one-copy
//! serialization-graph checker needs.

use crate::graph::bucket;
use crate::types::{Key, KeyHasher, KeyMap, TxnId, Value, WriteOp};
use bcastdb_sim::SiteId;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::Range;

/// Where a run of items sits in an [`Arena`]: its chunk, its range there.
pub type Run = (usize, Range<usize>);

/// An append-only arena of chunks of at least 512 items: a run of items
/// appended together stays contiguous and nothing moves as the arena grows;
/// the slack is the last chunk's room and the tails runs did not fit in.
#[derive(Debug, Clone)]
pub struct Arena<T>(Vec<Vec<T>>);

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena(Vec::new())
    }
}

impl<T> Arena<T> {
    /// Appends `items` as one run, and says where it went.
    pub fn push_run(&mut self, items: impl ExactSizeIterator<Item = T>) -> Run {
        let n = items.len();
        if self.0.last().is_none_or(|c| c.capacity() - c.len() < n) {
            self.0.push(Vec::with_capacity(n.max(512)));
        }
        let (at, chunk) = (self.0.len() - 1, self.0.last_mut().expect("a chunk"));
        let from = chunk.len();
        chunk.extend(items);
        (at, from..chunk.len())
    }

    /// The items of `run`.
    pub fn run(&self, (chunk, range): &Run) -> &[T] {
        self.0.get(*chunk).map_or(&[], |c| &c[range.clone()])
    }
}

/// The committed version of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// Current value.
    pub value: Value,
    /// Transaction that installed it; `None` for the initial version.
    pub writer: Option<TxnId>,
}

/// A writer packed in one word (`Store::apply`), its origin above bit 40;
/// `u64::MAX` is none, since origins stay below 2^24.
fn unpack(word: u64) -> Option<TxnId> {
    (word != u64::MAX).then(|| TxnId::new(SiteId((word >> 40) as usize), word & ((1 << 40) - 1)))
}

/// A full replica of the database at one site.
#[derive(Debug, Clone, Default)]
pub struct Store {
    /// Per key: its value, its writer packed, and its number here
    /// (`u32::MAX` until first installed): one probe per written key.
    keys: KeyMap<(Value, u64, u32)>,
    /// Per number, the key: the keys in the order of their first install.
    numbered: Vec<Key>,
    /// Every committed write's key number and packed writer, in install
    /// order: the ww order at this site, read only by the serializability
    /// checker, which groups it by key.
    installs: Arena<(u32, u64)>,
}

impl Store {
    /// Creates an empty store; absent keys read as the initial version
    /// (value 0, no writer).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current committed version of `key`.
    pub fn read(&self, key: &Key) -> Version {
        let (value, writer, _) = self.keys.get(key).copied().unwrap_or((0, u64::MAX, 0));
        let writer = unpack(writer);
        Version { value, writer }
    }

    /// Convenience: the current committed value of `key` (0 if never
    /// written).
    pub fn value(&self, key: &Key) -> Value {
        self.read(key).value
    }

    /// Installs the write set of committed transaction `txn`.
    pub fn apply(&mut self, txn: TxnId, writes: &[WriteOp]) {
        assert!(txn.origin.0 >> 24 == 0 && txn.num >> 40 == 0, "{txn}");
        let writer = (txn.origin.0 as u64) << 40 | txn.num;
        for w in writes {
            let next = self.numbered.len() as u32;
            let number = match self.keys.get_mut(&w.key) {
                // A key seeded but never installed (`u32::MAX`) takes `next`.
                Some((value, word, number)) => {
                    (*value, *word, *number) = (w.value, writer, next.min(*number));
                    *number
                }
                None => {
                    self.keys.insert(w.key.clone(), (w.value, writer, next));
                    next
                }
            };
            if number == next {
                self.numbered.push(w.key.clone());
            }
            self.installs.push_run([(number, writer)].into_iter());
        }
    }

    /// Pre-loads an initial value without recording a writer (database
    /// population before the measured run).
    pub fn seed(&mut self, key: impl Into<Key>, value: Value) {
        let slot = self.keys.entry(key.into()).or_insert((0, 0, u32::MAX));
        (slot.0, slot.1) = (value, u64::MAX);
    }

    /// Every committed write's key and writer, in the order this site
    /// installed them.
    pub fn installs(&self) -> impl Iterator<Item = (&Key, TxnId)> + Clone {
        let installs = self.installs.0.iter().flatten();
        installs.map(|&(n, w)| (&self.numbered[n as usize], unpack(w).expect("a writer")))
    }

    /// Iterates over `(key, version)` pairs of every object ever written
    /// or seeded.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, Version)> {
        self.keys.keys().map(|key| (key, self.read(key)))
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
        self.installs.0.iter().map(|chunk| chunk.len() as u64).sum()
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

/// Stores' install orders grouped by key, a store at a time in storage
/// reused from store to store, each key's first order kept for the
/// serializability checker to compare the later stores' with.
#[derive(Debug, Default)]
pub(crate) struct InstallOrders<'a> {
    /// Keys numbered in the order the stores number them; per number the
    /// key, its first store, and where its order ends in `kept`.
    pub index: HashMap<&'a Key, u32, BuildHasherDefault<KeyHasher>>,
    pub keys: Vec<(&'a Key, SiteId, u32)>,
    pub kept: Vec<TxnId>,
    /// The last store's writers grouped by its own key numbers.
    pub last: (Vec<u32>, Vec<TxnId>),
}

impl<'a> InstallOrders<'a> {
    /// Groups `site`'s `store` by key and keeps the orders of the keys new
    /// here; or says which known key, the smallest, the store installed in
    /// another order, and that order.
    pub fn add(&mut self, site: SiteId, store: &'a Store) -> Result<(), (usize, Vec<TxnId>)> {
        // Room for the store at once: the later stores mostly repeat the first's keys.
        let (keys, installs) = (store.numbered.len(), store.applied_writes() as usize);
        let more = keys.saturating_sub(self.keys.len());
        self.index.reserve(more);
        self.keys.reserve(more);
        self.kept.reserve(installs.saturating_sub(self.kept.len()));
        let writers = store.installs.0.iter().flatten();
        let writers = writers.map(|&(n, w)| (n, unpack(w).expect("a writer")));
        self.last = bucket(keys, writers, std::mem::take(&mut self.last));
        let mut least: Option<(usize, usize)> = None;
        for (n, key) in store.numbered.iter().enumerate() {
            let (order, next) = (group(&self.last, n), self.keys.len() as u32);
            let k = *self.index.entry(key).or_insert(next) as usize;
            if k == next as usize {
                self.kept.extend_from_slice(order);
                self.keys.push((key, site, self.kept.len() as u32));
            } else if order != self.first(k) && least.is_none_or(|(l, _)| key < self.keys[l].0) {
                least = Some((k, n));
            }
        }
        least.map_or(Ok(()), |(k, n)| Err((k, group(&self.last, n).to_vec())))
    }

    /// Key `k`'s kept order.
    pub fn first(&self, k: usize) -> &[TxnId] {
        let from = k.checked_sub(1).map_or(0, |p| self.keys[p].2);
        &self.kept[from as usize..self.keys[k].2 as usize]
    }
}

/// What a counting sort filed under `n`.
fn group((at, txns): &(Vec<u32>, Vec<TxnId>), n: usize) -> &[TxnId] {
    &txns[at[n] as usize..at[n + 1] as usize]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(0), n)
    }

    /// The writers of `key` at `s`, in install order.
    fn order(s: &Store, key: &str) -> Vec<TxnId> {
        let of_key = s.installs().filter(|(k, _)| k.as_str() == key);
        of_key.map(|(_, txn)| txn).collect()
    }

    /// Every key `s` installed, with its writers in install order.
    pub(crate) fn install_orders(s: &Store) -> BTreeMap<Key, Vec<TxnId>> {
        let mut orders: BTreeMap<Key, Vec<TxnId>> = BTreeMap::new();
        for (key, txn) in s.installs() {
            orders.entry(key.clone()).or_default().push(txn);
        }
        orders
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
        assert_eq!(order(&s, "x"), &[t(1), t(2)]);
    }

    /// The store as it was before its install orders became one arena: per
    /// key, the version beside the key's writers in install order, the
    /// first two inline and the rest spilled to a vector.
    mod oracle {
        use super::*;

        #[derive(Debug, Clone)]
        enum Installs {
            Inline(u8, [TxnId; 2]),
            Spilled(Vec<TxnId>),
        }

        impl Installs {
            fn push(&mut self, txn: TxnId) {
                match self {
                    Installs::Spilled(all) => all.push(txn),
                    Installs::Inline(len, first) if usize::from(*len) < first.len() => {
                        first[usize::from(*len)] = txn;
                        *len += 1;
                    }
                    Installs::Inline(..) => {
                        let mut all = self.as_slice().to_vec();
                        all.push(txn);
                        *self = Installs::Spilled(all);
                    }
                }
            }

            fn as_slice(&self) -> &[TxnId] {
                match self {
                    Installs::Inline(len, first) => &first[..usize::from(*len)],
                    Installs::Spilled(all) => all,
                }
            }
        }

        #[derive(Default)]
        pub(super) struct KeyedStore(KeyMap<(Version, Installs)>);

        impl KeyedStore {
            pub(super) fn apply(&mut self, txn: TxnId, writes: &[WriteOp]) {
                for w in writes {
                    let version = Version {
                        value: w.value,
                        writer: Some(txn),
                    };
                    let empty = Installs::Inline(0, [t(0); 2]);
                    let (current, installs) =
                        self.0.entry(w.key.clone()).or_insert((version, empty));
                    *current = version;
                    installs.push(txn);
                }
            }

            pub(super) fn seed(&mut self, key: &str, value: Value) {
                let version = Version {
                    value,
                    writer: None,
                };
                let empty = Installs::Inline(0, [t(0); 2]);
                self.0.entry(Key::new(key)).or_insert((version, empty)).0 = version;
            }

            pub(super) fn read(&self, key: &Key) -> Version {
                let initial = Version {
                    value: 0,
                    writer: None,
                };
                self.0.get(key).map_or(initial, |&(version, _)| version)
            }

            pub(super) fn len(&self) -> usize {
                self.0.len()
            }

            pub(super) fn install_order(&self, key: &Key) -> &[TxnId] {
                self.0
                    .get(key)
                    .map_or(&[], |(_, installs)| installs.as_slice())
            }

            pub(super) fn install_orders(&self) -> BTreeMap<Key, Vec<TxnId>> {
                let orders = self
                    .0
                    .iter()
                    .map(|(k, (_, o))| (k.clone(), o.as_slice().to_vec()));
                orders.filter(|(_, o)| !o.is_empty()).collect()
            }
        }
    }

    proptest! {
        /// The arena's per-key views, the checker's grouping among them,
        /// agree with the keyed store they replaced: keys installed 0 to 9
        /// times (`counts`), some seeded first, in write sets of one to three
        /// keys.
        #[test]
        fn arena_orders_agree_with_the_keyed_store(
            counts in proptest::collection::vec(0u64..10, 1..8),
            seeded in proptest::collection::vec(any::<bool>(), 8),
            keys_per_txn in 1usize..4,
        ) {
            let (mut arena, mut keyed) = (Store::new(), oracle::KeyedStore::default());
            let key = |k: usize| format!("k{k}");
            for k in (0..counts.len()).filter(|&k| seeded[k]) {
                arena.seed(key(k), -1);
                keyed.seed(&key(k), -1);
            }
            let installs = (0..10).flat_map(|round| {
                let due = counts.iter().enumerate().filter(move |&(_, &c)| round < c);
                due.map(move |(k, _)| w(&key(k), round as i64))
            });
            let installs: Vec<WriteOp> = installs.collect();
            for (n, writes) in installs.chunks(keys_per_txn).enumerate() {
                arena.apply(t(n as u64), writes);
                keyed.apply(t(n as u64), writes);
            }
            prop_assert_eq!(install_orders(&arena), keyed.install_orders());
            let mut grouped = InstallOrders::default();
            prop_assert_eq!(grouped.add(SiteId(0), &arena), Ok(()));
            prop_assert_eq!(grouped.add(SiteId(1), &arena), Ok(()));
            for (n, &(k, _, _)) in grouped.keys.iter().enumerate() {
                prop_assert_eq!(grouped.first(n), keyed.install_order(k));
            }
            for k in 0..counts.len() {
                let k = Key::new(key(k));
                prop_assert_eq!(order(&arena, k.as_str()), keyed.install_order(&k));
                prop_assert_eq!(arena.read(&k), keyed.read(&k));
            }
            prop_assert_eq!(arena.len(), keyed.len());
            prop_assert_eq!(arena.applied_writes(), counts.iter().sum::<u64>());
        }
    }

    #[test]
    fn seeded_keys_stay_out_of_install_orders() {
        let mut s = Store::new();
        s.seed("seeded", 5);
        s.seed("both", 1);
        s.apply(t(1), &[w("both", 2), w("written", 3)]);
        let orders = install_orders(&s);
        assert_eq!(
            orders.keys().map(Key::as_str).collect::<Vec<_>>(),
            ["both", "written"]
        );
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
        assert_eq!(install_orders(&copy), install_orders(&s));
        assert_eq!(order(&copy, "hot").len(), 5);
    }

    #[test]
    fn seed_does_not_record_writer() {
        let mut s = Store::new();
        s.seed("x", 7);
        assert_eq!(s.read(&Key::new("x")).writer, None);
        assert!(order(&s, "x").is_empty());
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
