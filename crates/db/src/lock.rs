//! Strict two-phase locking.
//!
//! The paper assumes "concurrency control is locally enforced by strict
//! two-phase locking at all database sites" — transactions hold all locks
//! until termination. This lock manager supports shared/exclusive modes,
//! lock upgrade, FIFO wait queues, and exposes the waits-for graph so the
//! point-to-point baseline can detect the distributed deadlocks that the
//! broadcast protocols prevent by construction.
//!
//! Conflict *policy* is deliberately left to the caller: [`LockManager::request`]
//! reports a conflict without queueing, so each replication protocol can
//! apply its own rule (wound-wait in the reliable protocol, deterministic
//! priorities in the causal protocol, certification in the atomic one).

use crate::graph::DenseGraph;
use crate::types::{Key, TxnId};
use std::collections::BTreeMap;

/// Lock modes of strict 2PL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock; compatible with nothing.
    Exclusive,
}

impl LockMode {
    /// True iff a holder in `self` mode permits another lock in `other`.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock was granted (or was already held in a sufficient mode).
    Granted,
    /// The lock conflicts with the listed holders; nothing was queued.
    Conflict {
        /// Transactions currently holding an incompatible lock.
        holders: Vec<TxnId>,
    },
}

/// A lock newly granted from a wait queue after a release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantedFromQueue {
    /// The transaction whose queued request was granted.
    pub txn: TxnId,
    /// The locked object.
    pub key: Key,
    /// The granted mode.
    pub mode: LockMode,
}

/// A queued request: priority rank (smaller = older = granted first),
/// requester, and mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiter {
    rank: u64,
    txn: TxnId,
    mode: LockMode,
}

#[derive(Debug, Default)]
struct Entry {
    holders: Vec<(TxnId, LockMode)>,
    /// Sorted by `(rank, txn)`: the oldest waiter is granted first. This is
    /// what lets the priority-based deadlock-prevention schemes compose with
    /// queueing — a younger transaction can never be promoted over an older
    /// waiter and then block it.
    queue: Vec<Waiter>,
}

impl Entry {
    fn held_by(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|&(_, m)| m)
    }

    /// Holders that are incompatible with `txn` acquiring `mode`.
    fn blockers(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        self.holders
            .iter()
            .filter(|(t, m)| *t != txn && !m.compatible(mode))
            .map(|&(t, _)| t)
            .collect()
    }

    fn is_unused(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }
}

/// A per-site lock table.
#[derive(Debug, Default)]
pub struct LockManager {
    table: BTreeMap<Key, Entry>,
}

impl LockManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `key` in `mode` for `txn` without queueing on conflict.
    ///
    /// Grants are immediate when the request is compatible with all current
    /// holders (re-entrant requests and shared→exclusive upgrades by a sole
    /// holder included). On conflict the blocking holders are returned and
    /// the table is left unchanged — the caller decides whether to
    /// [`enqueue`](Self::enqueue), wound a holder, or abort.
    pub fn request(&mut self, txn: TxnId, key: &Key, mode: LockMode) -> RequestOutcome {
        let entry = self.table.entry(key.clone()).or_default();
        match entry.held_by(txn) {
            Some(LockMode::Exclusive) => return RequestOutcome::Granted,
            Some(LockMode::Shared) if mode == LockMode::Shared => return RequestOutcome::Granted,
            Some(LockMode::Shared) => {
                // Upgrade: allowed iff sole holder.
                let blockers = entry.blockers(txn, mode);
                if blockers.is_empty() {
                    for h in entry.holders.iter_mut() {
                        if h.0 == txn {
                            h.1 = LockMode::Exclusive;
                        }
                    }
                    return RequestOutcome::Granted;
                }
                return RequestOutcome::Conflict { holders: blockers };
            }
            None => {}
        }
        let blockers = entry.blockers(txn, mode);
        if blockers.is_empty() && entry.queue.is_empty() {
            entry.holders.push((txn, mode));
            RequestOutcome::Granted
        } else if blockers.is_empty() {
            // Compatible with holders but others are queued ahead: treat as
            // a conflict with the queued transactions to preserve FIFO
            // fairness (prevents writer starvation by a read stream).
            RequestOutcome::Conflict {
                holders: entry.queue.iter().map(|w| w.txn).collect(),
            }
        } else {
            RequestOutcome::Conflict { holders: blockers }
        }
    }

    /// Adds `txn` to the wait queue for `key` with priority `rank`
    /// (smaller = older = served first; ties broken by transaction id).
    ///
    /// The caller should only enqueue after a [`RequestOutcome::Conflict`];
    /// duplicate queue entries for the same `(txn, mode)` are ignored.
    pub fn enqueue(&mut self, txn: TxnId, key: &Key, mode: LockMode, rank: u64) {
        let entry = self.table.entry(key.clone()).or_default();
        if entry.queue.iter().any(|w| w.txn == txn && w.mode == mode) {
            return;
        }
        let w = Waiter { rank, txn, mode };
        let pos = entry
            .queue
            .partition_point(|q| (q.rank, q.txn) <= (rank, txn));
        entry.queue.insert(pos, w);
    }

    /// True iff `txn` currently holds `key` in a mode covering `mode`.
    pub fn holds(&self, txn: TxnId, key: &Key, mode: LockMode) -> bool {
        self.table
            .get(key)
            .and_then(|e| e.held_by(txn))
            .is_some_and(|held| held == LockMode::Exclusive || held == mode)
    }

    /// Current holders of `key` with their modes.
    pub fn holders(&self, key: &Key) -> &[(TxnId, LockMode)] {
        self.table.get(key).map_or(&[], |e| &e.holders)
    }

    /// Transactions queued on `key`, highest priority (oldest) first.
    pub fn queued(&self, key: &Key) -> Vec<(TxnId, LockMode)> {
        self.table
            .get(key)
            .map(|e| e.queue.iter().map(|w| (w.txn, w.mode)).collect())
            .unwrap_or_default()
    }

    /// Releases every lock and queued request of `txn` (commit or abort —
    /// strict 2PL releases everything at termination), granting queued
    /// requests that become compatible. Grants are returned so the caller
    /// can resume the waiting transactions.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<GrantedFromQueue> {
        let mut granted = Vec::new();
        let mut empty_keys = Vec::new();
        for (key, entry) in self.table.iter_mut() {
            entry.holders.retain(|(t, _)| *t != txn);
            entry.queue.retain(|w| w.txn != txn);
            Self::drain_queue(key, entry, &mut granted);
            if entry.is_unused() {
                empty_keys.push(key.clone());
            }
        }
        for k in empty_keys {
            self.table.remove(&k);
        }
        granted
    }

    /// Grants compatible queued requests on `key` in priority order (a
    /// batch of shared requests is granted together, an exclusive request
    /// only alone).
    fn drain_queue(key: &Key, entry: &mut Entry, granted: &mut Vec<GrantedFromQueue>) {
        while let Some(&Waiter { txn, mode, .. }) = entry.queue.first() {
            // Upgrade-in-queue: the txn may already hold Shared.
            let others_block = entry
                .holders
                .iter()
                .any(|(t, m)| *t != txn && !m.compatible(mode));
            if others_block {
                break;
            }
            entry.queue.remove(0);
            match entry.held_by(txn) {
                Some(LockMode::Shared) if mode == LockMode::Exclusive => {
                    for h in entry.holders.iter_mut() {
                        if h.0 == txn {
                            h.1 = LockMode::Exclusive;
                        }
                    }
                }
                Some(_) => {}
                None => entry.holders.push((txn, mode)),
            }
            granted.push(GrantedFromQueue {
                txn,
                key: key.clone(),
                mode,
            });
            if mode == LockMode::Exclusive {
                break;
            }
        }
    }

    /// All keys on which `txn` holds a lock.
    pub fn locks_of(&self, txn: TxnId) -> Vec<(Key, LockMode)> {
        let mut v: Vec<(Key, LockMode)> = self
            .table
            .iter()
            .filter_map(|(k, e)| e.held_by(txn).map(|m| (k.clone(), m)))
            .collect();
        v.sort();
        v
    }

    /// The waits-for edges: `(A, B)` means queued transaction `A` waits for
    /// holder (or earlier-queued) transaction `B`.
    pub fn waits_for(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for entry in self.table.values() {
            for (qi, w) in entry.queue.iter().enumerate() {
                for &(holder, hmode) in &entry.holders {
                    if holder != w.txn && !hmode.compatible(w.mode) {
                        edges.push((w.txn, holder));
                    }
                }
                for ahead in entry.queue.iter().take(qi) {
                    if ahead.txn != w.txn
                        && !(ahead.mode.compatible(w.mode) && w.mode.compatible(ahead.mode))
                    {
                        edges.push((w.txn, ahead.txn));
                    }
                }
            }
        }
        edges
    }

    /// Detects a deadlock cycle among waiting transactions, if any: the
    /// first back edge of a depth-first search of the waits-for graph from
    /// the transactions ascending, blockers ascending.
    pub fn find_deadlock(&self) -> Option<Vec<TxnId>> {
        let edges = self.waits_for();
        let mut txns: Vec<TxnId> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        txns.sort_unstable();
        txns.dedup();
        let node = |t: &TxnId| txns.binary_search(t).expect("an endpoint") as u32;
        let dense: Vec<(u32, u32)> = edges.iter().map(|(a, b)| (node(a), node(b))).collect();
        let cycle = DenseGraph::from_edges(txns.len(), &dense).find_cycle()?;
        Some(cycle.into_iter().map(|v| txns[v as usize]).collect())
    }

    /// Number of keys with active lock state (for tests and metrics).
    pub fn active_keys(&self) -> usize {
        self.table.len()
    }

    /// Total queued (waiting) lock requests across all keys — a direct
    /// gauge of lock contention for the metrics subsystem.
    pub fn waiting_count(&self) -> usize {
        self.table.values().map(|e| e.queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcastdb_sim::SiteId;

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(0), n)
    }

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(t(1), &k("x"), LockMode::Shared),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(t(2), &k("x"), LockMode::Shared),
            RequestOutcome::Granted
        );
        assert!(lm.holds(t(1), &k("x"), LockMode::Shared));
        assert!(lm.holds(t(2), &k("x"), LockMode::Shared));
    }

    #[test]
    fn exclusive_conflicts_with_shared() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Shared);
        match lm.request(t(2), &k("x"), LockMode::Exclusive) {
            RequestOutcome::Conflict { holders } => assert_eq!(holders, vec![t(1)]),
            other => panic!("expected conflict, got {other:?}"),
        }
        assert!(!lm.holds(t(2), &k("x"), LockMode::Exclusive));
    }

    #[test]
    fn exclusive_conflicts_with_exclusive() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Exclusive);
        assert!(matches!(
            lm.request(t(2), &k("x"), LockMode::Exclusive),
            RequestOutcome::Conflict { .. }
        ));
    }

    #[test]
    fn reentrant_requests_are_granted() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Exclusive);
        assert_eq!(
            lm.request(t(1), &k("x"), LockMode::Exclusive),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(t(1), &k("x"), LockMode::Shared),
            RequestOutcome::Granted,
            "exclusive covers shared"
        );
    }

    #[test]
    fn sole_holder_upgrades_shared_to_exclusive() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Shared);
        assert_eq!(
            lm.request(t(1), &k("x"), LockMode::Exclusive),
            RequestOutcome::Granted
        );
        assert!(lm.holds(t(1), &k("x"), LockMode::Exclusive));
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Shared);
        lm.request(t(2), &k("x"), LockMode::Shared);
        match lm.request(t(1), &k("x"), LockMode::Exclusive) {
            RequestOutcome::Conflict { holders } => assert_eq!(holders, vec![t(2)]),
            other => panic!("expected conflict, got {other:?}"),
        }
        // Still holds its shared lock.
        assert!(lm.holds(t(1), &k("x"), LockMode::Shared));
    }

    #[test]
    fn release_grants_queued_exclusive() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Exclusive);
        lm.enqueue(t(2), &k("x"), LockMode::Exclusive, 2);
        let granted = lm.release_all(t(1));
        assert_eq!(
            granted,
            vec![GrantedFromQueue {
                txn: t(2),
                key: k("x"),
                mode: LockMode::Exclusive
            }]
        );
        assert!(lm.holds(t(2), &k("x"), LockMode::Exclusive));
    }

    #[test]
    fn release_grants_shared_batch_but_stops_at_exclusive() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Exclusive);
        lm.enqueue(t(2), &k("x"), LockMode::Shared, 2);
        lm.enqueue(t(3), &k("x"), LockMode::Shared, 3);
        lm.enqueue(t(4), &k("x"), LockMode::Exclusive, 4);
        let granted = lm.release_all(t(1));
        let txns: Vec<TxnId> = granted.iter().map(|g| g.txn).collect();
        assert_eq!(txns, vec![t(2), t(3)], "shared batch granted, X waits");
        assert_eq!(lm.queued(&k("x")), vec![(t(4), LockMode::Exclusive)]);
    }

    #[test]
    fn fifo_fairness_blocks_shared_behind_queued_exclusive() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Shared);
        lm.enqueue(t(2), &k("x"), LockMode::Exclusive, 2);
        // A new shared request must not jump the queued writer.
        match lm.request(t(3), &k("x"), LockMode::Shared) {
            RequestOutcome::Conflict { holders } => assert_eq!(holders, vec![t(2)]),
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn queued_upgrade_applies_on_release() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Shared);
        lm.request(t(2), &k("x"), LockMode::Shared);
        // t1 wants to upgrade but t2 blocks; t1 queues the upgrade.
        lm.enqueue(t(1), &k("x"), LockMode::Exclusive, 1);
        let granted = lm.release_all(t(2));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].txn, t(1));
        assert!(lm.holds(t(1), &k("x"), LockMode::Exclusive));
    }

    #[test]
    fn release_removes_queued_requests_of_aborted_txn() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Exclusive);
        lm.enqueue(t(2), &k("x"), LockMode::Exclusive, 2);
        lm.release_all(t(2)); // t2 aborts while queued
        let granted = lm.release_all(t(1));
        assert!(granted.is_empty());
        assert_eq!(lm.active_keys(), 0, "table fully cleaned");
    }

    #[test]
    fn locks_of_lists_all_keys() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("a"), LockMode::Shared);
        lm.request(t(1), &k("b"), LockMode::Exclusive);
        lm.request(t(2), &k("c"), LockMode::Shared);
        let locks = lm.locks_of(t(1));
        assert_eq!(
            locks,
            vec![(k("a"), LockMode::Shared), (k("b"), LockMode::Exclusive)]
        );
    }

    #[test]
    fn waits_for_edges_point_at_blockers() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Exclusive);
        lm.enqueue(t(2), &k("x"), LockMode::Exclusive, 2);
        let g = lm.waits_for();
        assert!(g.contains(&(t(2), t(1))));
        assert!(!g.contains(&(t(1), t(2))));
        assert!(lm.find_deadlock().is_none());
    }

    #[test]
    fn classic_two_txn_deadlock_is_detected() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Exclusive);
        lm.request(t(2), &k("y"), LockMode::Exclusive);
        lm.enqueue(t(1), &k("y"), LockMode::Exclusive, 1);
        lm.enqueue(t(2), &k("x"), LockMode::Exclusive, 2);
        let cycle = lm.find_deadlock().expect("deadlock exists");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)));
    }

    #[test]
    fn read_write_deadlock_through_upgrade() {
        let mut lm = LockManager::new();
        // Both read x, both try to upgrade: each waits for the other.
        lm.request(t(1), &k("x"), LockMode::Shared);
        lm.request(t(2), &k("x"), LockMode::Shared);
        lm.enqueue(t(1), &k("x"), LockMode::Exclusive, 1);
        lm.enqueue(t(2), &k("x"), LockMode::Exclusive, 2);
        let cycle = lm.find_deadlock().expect("upgrade deadlock");
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn queue_edge_between_waiting_writers() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Exclusive);
        lm.enqueue(t(2), &k("x"), LockMode::Exclusive, 2);
        lm.enqueue(t(3), &k("x"), LockMode::Exclusive, 3);
        let g = lm.waits_for();
        assert!(g.contains(&(t(3), t(2))), "later waiter waits on earlier");
    }

    #[test]
    fn duplicate_enqueue_is_ignored() {
        let mut lm = LockManager::new();
        lm.request(t(1), &k("x"), LockMode::Exclusive);
        lm.enqueue(t(2), &k("x"), LockMode::Exclusive, 2);
        lm.enqueue(t(2), &k("x"), LockMode::Exclusive, 2);
        assert_eq!(lm.queued(&k("x")).len(), 1);
    }

    #[test]
    fn strict_2pl_scenario_end_to_end() {
        // T1 reads a, writes b; T2 reads b, must wait for T1's X on b.
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(t(1), &k("a"), LockMode::Shared),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(t(1), &k("b"), LockMode::Exclusive),
            RequestOutcome::Granted
        );
        assert!(matches!(
            lm.request(t(2), &k("b"), LockMode::Shared),
            RequestOutcome::Conflict { .. }
        ));
        lm.enqueue(t(2), &k("b"), LockMode::Shared, 2);
        // T1 commits: everything released, T2 resumes.
        let granted = lm.release_all(t(1));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].txn, t(2));
        assert!(lm.holds(t(2), &k("b"), LockMode::Shared));
        assert!(lm.locks_of(t(1)).is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use bcastdb_sim::SiteId;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Request(u64, u8, bool),      // txn, key, exclusive?
        Enqueue(u64, u8, bool, u64), // txn, key, exclusive?, rank
        Release(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..8, 0u8..4, any::<bool>()).prop_map(|(t, k, x)| Op::Request(t, k, x)),
            (0u64..8, 0u8..4, any::<bool>(), 0u64..100)
                .prop_map(|(t, k, x, r)| Op::Enqueue(t, k, x, r)),
            (0u64..8).prop_map(Op::Release),
        ]
    }

    fn tid(t: u64) -> TxnId {
        TxnId::new(SiteId(0), t)
    }

    fn key(k: u8) -> Key {
        Key::new(format!("k{k}"))
    }

    fn mode(x: bool) -> LockMode {
        if x {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        }
    }

    /// Invariant: the holders of any key are mutually compatible — either
    /// one exclusive holder or any number of shared holders.
    fn holders_compatible(lm: &LockManager, keys: u8) -> bool {
        (0..keys).all(|k| {
            let hs = lm.holders(&key(k));
            hs.len() <= 1 || hs.iter().all(|&(_, m)| m == LockMode::Shared)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// After any operation sequence: holders stay compatible, released
        /// transactions hold nothing, and queue grants never violate
        /// compatibility.
        #[test]
        fn lock_table_invariants_hold(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut lm = LockManager::new();
            let mut released: Vec<u64> = Vec::new();
            for op in &ops {
                match *op {
                    Op::Request(t, k, x) => {
                        let _ = lm.request(tid(t), &key(k), mode(x));
                        released.retain(|&r| r != t);
                    }
                    Op::Enqueue(t, k, x, r) => {
                        lm.enqueue(tid(t), &key(k), mode(x), r);
                        released.retain(|&rr| rr != t);
                    }
                    Op::Release(t) => {
                        let granted = lm.release_all(tid(t));
                        // Whatever was granted from queues must now be held.
                        for g in &granted {
                            prop_assert!(lm.holds(g.txn, &g.key, g.mode));
                        }
                        released.push(t);
                    }
                }
                prop_assert!(holders_compatible(&lm, 4));
            }
            for &t in &released {
                prop_assert!(lm.locks_of(tid(t)).is_empty(),
                    "released transaction {t} still holds locks");
            }
        }

        /// Releasing every transaction empties the table completely.
        #[test]
        fn full_release_drains_table(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut lm = LockManager::new();
            for op in &ops {
                match *op {
                    Op::Request(t, k, x) => { let _ = lm.request(tid(t), &key(k), mode(x)); }
                    Op::Enqueue(t, k, x, r) => lm.enqueue(tid(t), &key(k), mode(x), r),
                    Op::Release(t) => { lm.release_all(tid(t)); }
                }
            }
            for t in 0..8 {
                lm.release_all(tid(t));
            }
            prop_assert_eq!(lm.active_keys(), 0);
        }

        /// Queue grants respect rank order among exclusive waiters.
        #[test]
        fn exclusive_grants_follow_rank(ranks in proptest::collection::vec(0u64..1000, 2..10)) {
            let mut lm = LockManager::new();
            let k = key(0);
            lm.request(tid(100), &k, LockMode::Exclusive);
            for (i, &r) in ranks.iter().enumerate() {
                lm.enqueue(tid(i as u64), &k, LockMode::Exclusive, r);
            }
            let mut expected: Vec<(u64, u64)> = ranks.iter().enumerate()
                .map(|(i, &r)| (r, i as u64)).collect();
            expected.sort();
            let mut got = Vec::new();
            let mut current = tid(100);
            loop {
                let granted = lm.release_all(current);
                match granted.first() {
                    Some(g) => { got.push(g.txn.num); current = g.txn; }
                    None => break,
                }
            }
            let want: Vec<u64> = expected.iter().map(|&(_, i)| i).collect();
            prop_assert_eq!(got, want);
        }
    }
}
