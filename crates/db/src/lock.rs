//! Strict two-phase locking.
//!
//! The paper assumes "concurrency control is locally enforced by strict
//! two-phase locking at all database sites" — transactions hold all locks
//! until termination. This lock manager supports shared/exclusive modes,
//! lock upgrade, FIFO wait queues, and a waits-for graph, with which the
//! reliable-broadcast protocol breaks the reader/writer cycles its wound
//! rules leave (the baseline resolves deadlocks by timeout). Releasing a
//! transaction, listing its locks and asking whether its new wait closed a
//! cycle walk an index of the keys that transaction holds or waits on.
//!
//! Conflict *policy* is deliberately left to the caller: [`LockManager::request`]
//! reports a conflict without queueing, so each replication protocol can
//! apply its own rule (wound-wait in the reliable protocol, deterministic
//! priorities in the causal protocol, certification in the atomic one).

use crate::graph::DenseGraph;
use crate::types::{Key, KeyMap, TxnId};
use bcastdb_sim::inline::InlineVec;

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

/// The transactions a request conflicts with (inline up to four).
pub type Blockers = InlineVec<TxnId, 4>;

/// The queued requests one release grants, in order (inline up to four).
pub type Grants = InlineVec<GrantedFromQueue, 4>;

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock was granted (or was already held in a sufficient mode).
    Granted,
    /// The lock conflicts with the listed holders; nothing was queued.
    Conflict {
        /// Transactions currently holding an incompatible lock.
        holders: Blockers,
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

    /// What keeps `txn` from `mode`: the incompatible holders, then the
    /// incompatible waiters among the first `n` in the queue.
    fn blockers(&self, txn: TxnId, mode: LockMode, n: usize) -> impl Iterator<Item = TxnId> + '_ {
        let queued = self.queue[..n].iter().map(|w| (w.txn, w.mode));
        let all = self.holders.iter().copied().chain(queued);
        all.filter(move |&(t, m)| t != txn && !m.compatible(mode))
            .map(|(t, _)| t)
    }

    /// True iff the head of the queue could be granted now.
    fn head_grantable(&self) -> bool {
        self.queue
            .first()
            .is_some_and(|w| self.blockers(w.txn, w.mode, 0).next().is_none())
    }

    fn is_unused(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }
}

/// A per-site lock table.
#[derive(Debug, Default)]
pub struct LockManager {
    /// Keys with holders or waiters. An entry left unused by a release
    /// goes, its storage kept in `spare` for the next key locked: at most
    /// as many as keys were locked at once.
    table: KeyMap<Entry>,
    spare: Vec<Entry>,
    /// The keys each transaction holds or waits on, sorted by transaction
    /// and then key; a transaction's run goes at its `release_all`.
    owned: Vec<(TxnId, Key)>,
    /// Keys whose queue head is grantable with nothing released (an
    /// enqueue landed there compatible with every holder): the next
    /// `release_all` of any transaction drains them, as a full sweep would.
    ready: Vec<Key>,
    /// The transaction enqueued since the last
    /// [`check_deadlock`](Self::check_deadlock), and whether the waits-for
    /// graph may hold a cycle not through it.
    unchecked: Option<TxnId>,
    maybe_cyclic: bool,
    /// Worklist and visited set of the cycle pre-check, kept for reuse.
    seen: Vec<TxnId>,
}

impl LockManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table entry of `key`, made from a spare one if absent.
    fn entry<'a>(table: &'a mut KeyMap<Entry>, spare: &mut Vec<Entry>, key: &Key) -> &'a mut Entry {
        let new = || spare.pop().unwrap_or_default();
        table.entry(key.clone()).or_insert_with(new)
    }

    /// Where `txn`'s keys sit in the index.
    fn span(&self, txn: TxnId) -> std::ops::Range<usize> {
        let lo = self.owned.partition_point(|(t, _)| *t < txn);
        lo..lo + self.owned[lo..].partition_point(|(t, _)| *t == txn)
    }

    /// Files `key` under `txn` in the index.
    fn index(&mut self, txn: TxnId, key: &Key) {
        let probe = |(t, k): &(TxnId, Key)| (*t, k).cmp(&(txn, key));
        if let Err(at) = self.owned.binary_search_by(probe) {
            self.owned.insert(at, (txn, key.clone()));
        }
    }

    /// Requests `key` in `mode` for `txn` without queueing on conflict.
    ///
    /// Grants are immediate when the request is compatible with all current
    /// holders (re-entrant requests and shared→exclusive upgrades by a sole
    /// holder included). On conflict the blocking holders are returned and
    /// the table is left unchanged — the caller decides whether to
    /// [`enqueue`](Self::enqueue), wound a holder, or abort.
    pub fn request(&mut self, txn: TxnId, key: &Key, mode: LockMode) -> RequestOutcome {
        let entry = Self::entry(&mut self.table, &mut self.spare, key);
        let blockers: Blockers = entry.blockers(txn, mode, 0).collect();
        match entry.held_by(txn) {
            Some(LockMode::Exclusive) => return RequestOutcome::Granted,
            Some(LockMode::Shared) if mode == LockMode::Shared => return RequestOutcome::Granted,
            Some(LockMode::Shared) if blockers.is_empty() => {
                // Upgrade by the sole holder. Over a queue, this is the one
                // change that adds a waits-for edge not out of a new waiter.
                self.maybe_cyclic |= !entry.queue.is_empty();
                entry.holders[0].1 = LockMode::Exclusive;
                return RequestOutcome::Granted;
            }
            Some(LockMode::Shared) => return RequestOutcome::Conflict { holders: blockers },
            None => {}
        }
        if blockers.is_empty() && entry.queue.is_empty() {
            entry.holders.push((txn, mode));
            self.index(txn, key);
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
        let entry = Self::entry(&mut self.table, &mut self.spare, key);
        if entry.queue.iter().any(|w| w.txn == txn && w.mode == mode) {
            return;
        }
        let w = Waiter { rank, txn, mode };
        let pos = entry
            .queue
            .partition_point(|q| (q.rank, q.txn) <= (rank, txn));
        entry.queue.insert(pos, w);
        if entry.head_grantable() && !self.ready.contains(key) {
            self.ready.push(key.clone());
        }
        self.maybe_cyclic |= self.unchecked.replace(txn).is_some_and(|u| u != txn);
        self.index(txn, key);
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
    pub fn queued(&self, key: &Key) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        let queue = self.table.get(key).map_or(&[][..], |e| &e.queue);
        queue.iter().map(|w| (w.txn, w.mode))
    }

    /// Releases every lock and queued request of `txn` (commit or abort —
    /// strict 2PL releases everything at termination), granting queued
    /// requests that become compatible. Grants are returned so the caller
    /// can resume the waiting transactions; keys are visited ascending.
    pub fn release_all(&mut self, txn: TxnId) -> Grants {
        for key in std::mem::take(&mut self.ready) {
            self.index(txn, &key);
        }
        let span = self.span(txn);
        let mut granted = Grants::new();
        for (_, key) in &self.owned[span.clone()] {
            let entry = self.table.get_mut(key).expect("indexed");
            entry.holders.retain(|(t, _)| *t != txn);
            entry.queue.retain(|w| w.txn != txn);
            Self::drain_queue(key, entry, &mut granted);
            if entry.head_grantable() {
                self.ready.push(key.clone());
            } else if entry.is_unused() {
                self.spare.extend(self.table.remove(key));
            }
        }
        self.owned.drain(span);
        granted
    }

    /// Grants compatible queued requests on `key` in priority order (a
    /// batch of shared requests is granted together, an exclusive request
    /// only alone).
    fn drain_queue(key: &Key, entry: &mut Entry, granted: &mut Grants) {
        while let Some(&Waiter { txn, mode, .. }) = entry.queue.first() {
            // Upgrade-in-queue: the txn may already hold Shared.
            if entry.blockers(txn, mode, 0).next().is_some() {
                break;
            }
            entry.queue.remove(0);
            match entry.held_by(txn) {
                // Nothing blocks it, so it is the sole holder.
                Some(LockMode::Shared) if mode == LockMode::Exclusive => {
                    entry.holders[0].1 = LockMode::Exclusive
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

    /// The keys on which `txn` holds a lock, ascending, with its mode.
    pub fn locks_of(&self, txn: TxnId) -> impl Iterator<Item = (&Key, LockMode)> + '_ {
        let keys = self.owned[self.span(txn)].iter().map(|(_, k)| k);
        keys.filter_map(move |k| self.table[k].held_by(txn).map(|m| (k, m)))
    }

    /// The waits-for edges, in no particular order: `(A, B)` means queued
    /// transaction `A` waits for holder (or earlier-queued) transaction `B`.
    pub fn waits_for(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for entry in self.table.values() {
            for (i, w) in entry.queue.iter().enumerate() {
                edges.extend(entry.blockers(w.txn, w.mode, i).map(|b| (w.txn, b)));
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

    /// What [`find_deadlock`](Self::find_deadlock) answers, without
    /// building the graph when it cannot hold a cycle. Every edge an
    /// enqueue adds touches the new waiter, a release adds none, and a
    /// granted upgrade over a queue is flagged: so while the last check
    /// found no cycle, a new one must run through the one transaction
    /// enqueued since, and there is none unless it reaches itself.
    pub fn check_deadlock(&mut self) -> Option<Vec<TxnId>> {
        let waiter = self.unchecked.take();
        if !self.maybe_cyclic && !waiter.is_some_and(|w| self.on_cycle(w)) {
            return None;
        }
        let cycle = self.find_deadlock();
        self.maybe_cyclic = cycle.is_some();
        cycle
    }

    /// True iff `start` reaches itself over waits-for edges, computed on
    /// demand from the index of each transaction reached.
    fn on_cycle(&mut self, start: TxnId) -> bool {
        let mut seen = std::mem::take(&mut self.seen);
        seen.push(start);
        let (mut next, mut found) = (0, false);
        while !found && next < seen.len() {
            let t = seen[next];
            next += 1;
            for (_, key) in &self.owned[self.span(t)] {
                let entry = &self.table[key];
                for (i, w) in entry.queue.iter().enumerate().filter(|(_, w)| w.txn == t) {
                    for b in entry.blockers(t, w.mode, i) {
                        found |= b == start;
                        if !seen.contains(&b) {
                            seen.push(b);
                        }
                    }
                }
            }
        }
        seen.clear();
        self.seen = seen;
        found
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
        assert_eq!(
            lm.queued(&k("x")).collect::<Vec<_>>(),
            vec![(t(4), LockMode::Exclusive)]
        );
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
        let locks: Vec<_> = lm.locks_of(t(1)).collect();
        assert_eq!(
            locks,
            vec![(&k("a"), LockMode::Shared), (&k("b"), LockMode::Exclusive)]
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
        assert_eq!(lm.queued(&k("x")).count(), 1);
    }

    #[test]
    fn released_entries_leave_the_table_and_are_reused() {
        let mut lm = LockManager::new();
        for i in 0..40 {
            lm.request(t(1), &k(&format!("k{i}")), LockMode::Exclusive);
        }
        lm.release_all(t(1));
        assert_eq!(lm.active_keys(), 0);
        assert_eq!(lm.spare.len(), 40, "every released entry kept");
        for i in 0..40 {
            lm.request(t(2), &k(&format!("j{i}")), LockMode::Shared);
        }
        assert!(lm.spare.is_empty(), "every kept entry reused");
        // A fresh entry's holder list has no storage; a reused one does.
        assert!(lm.table.values().all(|e| e.holders.capacity() > 0));
        assert!(lm.owned.iter().all(|(txn, _)| *txn == t(2)));
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
        assert!(lm.locks_of(t(1)).next().is_none());
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
                        for g in granted.iter() {
                            prop_assert!(lm.holds(g.txn, &g.key, g.mode));
                        }
                        released.push(t);
                    }
                }
                prop_assert!(holders_compatible(&lm, 4));
            }
            for &t in &released {
                prop_assert!(lm.locks_of(tid(t)).next().is_none(),
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
                match granted.get(0) {
                    Some(g) => { got.push(g.txn.num); current = g.txn; }
                    None => break,
                }
            }
            let want: Vec<u64> = expected.iter().map(|&(_, i)| i).collect();
            prop_assert_eq!(got, want);
        }
    }
}

/// The lock manager as it was before the per-transaction index — a
/// `BTreeMap` table that every release sweeps whole, and a waits-for graph
/// rebuilt for every deadlock question — kept as the reference the indexed
/// one is held to, the way `sg::tests` keeps the checker's.
#[cfg(test)]
mod oracle {
    use super::*;
    use bcastdb_sim::SiteId;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Oracle {
        table: BTreeMap<Key, Entry>,
    }

    impl Oracle {
        fn blockers(entry: &Entry, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
            entry
                .holders
                .iter()
                .filter(|(t, m)| *t != txn && !m.compatible(mode))
                .map(|&(t, _)| t)
                .collect()
        }

        fn request(&mut self, txn: TxnId, key: &Key, mode: LockMode) -> RequestOutcome {
            let conflict = |holders: Vec<TxnId>| RequestOutcome::Conflict {
                holders: holders.into_iter().collect(),
            };
            let entry = self.table.entry(key.clone()).or_default();
            match entry.held_by(txn) {
                Some(LockMode::Exclusive) => return RequestOutcome::Granted,
                Some(LockMode::Shared) if mode == LockMode::Shared => {
                    return RequestOutcome::Granted
                }
                Some(LockMode::Shared) => {
                    let blockers = Self::blockers(entry, txn, mode);
                    if blockers.is_empty() {
                        for h in entry.holders.iter_mut() {
                            if h.0 == txn {
                                h.1 = LockMode::Exclusive;
                            }
                        }
                        return RequestOutcome::Granted;
                    }
                    return conflict(blockers);
                }
                None => {}
            }
            let blockers = Self::blockers(entry, txn, mode);
            if blockers.is_empty() && entry.queue.is_empty() {
                entry.holders.push((txn, mode));
                RequestOutcome::Granted
            } else if blockers.is_empty() {
                conflict(entry.queue.iter().map(|w| w.txn).collect())
            } else {
                conflict(blockers)
            }
        }

        fn enqueue(&mut self, txn: TxnId, key: &Key, mode: LockMode, rank: u64) {
            let entry = self.table.entry(key.clone()).or_default();
            if entry.queue.iter().any(|w| w.txn == txn && w.mode == mode) {
                return;
            }
            let pos = entry
                .queue
                .partition_point(|q| (q.rank, q.txn) <= (rank, txn));
            entry.queue.insert(pos, Waiter { rank, txn, mode });
        }

        fn release_all(&mut self, txn: TxnId) -> Vec<GrantedFromQueue> {
            let mut granted = Grants::new();
            let mut empty_keys = Vec::new();
            for (key, entry) in self.table.iter_mut() {
                entry.holders.retain(|(t, _)| *t != txn);
                entry.queue.retain(|w| w.txn != txn);
                LockManager::drain_queue(key, entry, &mut granted);
                if entry.is_unused() {
                    empty_keys.push(key.clone());
                }
            }
            for k in empty_keys {
                self.table.remove(&k);
            }
            granted.into_iter().collect()
        }

        fn holders(&self, key: &Key) -> &[(TxnId, LockMode)] {
            self.table.get(key).map_or(&[], |e| &e.holders)
        }

        fn queued(&self, key: &Key) -> Vec<(TxnId, LockMode)> {
            self.table
                .get(key)
                .map(|e| e.queue.iter().map(|w| (w.txn, w.mode)).collect())
                .unwrap_or_default()
        }

        fn locks_of(&self, txn: TxnId) -> Vec<(Key, LockMode)> {
            let mut v: Vec<(Key, LockMode)> = self
                .table
                .iter()
                .filter_map(|(k, e)| e.held_by(txn).map(|m| (k.clone(), m)))
                .collect();
            v.sort();
            v
        }

        fn waits_for(&self) -> Vec<(TxnId, TxnId)> {
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

        fn find_deadlock(&self) -> Option<Vec<TxnId>> {
            let edges = self.waits_for();
            let mut txns: Vec<TxnId> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
            txns.sort_unstable();
            txns.dedup();
            let node = |t: &TxnId| txns.binary_search(t).expect("an endpoint") as u32;
            let dense: Vec<(u32, u32)> = edges.iter().map(|(a, b)| (node(a), node(b))).collect();
            let cycle = DenseGraph::from_edges(txns.len(), &dense).find_cycle()?;
            Some(cycle.into_iter().map(|v| txns[v as usize]).collect())
        }
    }

    const KEYS: u8 = 6;
    const TXNS: u64 = 8;
    /// Generated ranks at or above this stand for a reader's `u64::MAX`.
    const READER: u64 = 16;

    #[derive(Debug, Clone)]
    enum Step {
        Request(u64, u8, bool),
        /// Enqueue without asking first (rank, then whether to check for a
        /// deadlock right after).
        Enqueue(u64, u8, bool, u64, bool),
        /// What a replica does: request, and on conflict enqueue (a reader
        /// at `u64::MAX`) and check.
        Acquire(u64, u8, bool, u64),
        Release(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0..TXNS, 0..KEYS, any::<bool>()).prop_map(|(t, k, x)| Step::Request(t, k, x)),
            (
                0..TXNS,
                0..KEYS,
                any::<bool>(),
                0..READER + 4,
                any::<bool>()
            )
                .prop_map(|(t, k, x, r, c)| Step::Enqueue(t, k, x, r, c)),
            (0..TXNS, 0..KEYS, any::<bool>(), 0..READER)
                .prop_map(|(t, k, x, r)| Step::Acquire(t, k, x, r)),
            (0..TXNS).prop_map(Step::Release),
        ]
    }

    fn tid(t: u64) -> TxnId {
        TxnId::new(SiteId((t % 2) as usize), t)
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

    fn rank(r: u64) -> u64 {
        if r >= READER {
            u64::MAX
        } else {
            r
        }
    }

    /// How often a run took each of the indexed manager's own paths.
    #[derive(Debug, Default)]
    struct Reached {
        cycles: u32,
        cleared_by_precheck: u32,
        flagged_upgrades: u32,
        ready_drains: u32,
    }

    /// Asks both managers for the deadlock verdict after an enqueue.
    fn verdict(
        lm: &mut LockManager,
        or: &Oracle,
        reached: &mut Reached,
    ) -> Result<(), TestCaseError> {
        let fast = !lm.maybe_cyclic;
        let got = lm.check_deadlock();
        prop_assert_eq!(&got, &or.find_deadlock());
        reached.cycles += u32::from(got.is_some());
        reached.cleared_by_precheck += u32::from(fast && got.is_none());
        Ok(())
    }

    /// Drives the indexed manager and the oracle through `steps` and holds
    /// them to the same answers and the same table after every step.
    fn drive(steps: &[Step]) -> Result<Reached, TestCaseError> {
        let (mut lm, mut or) = (LockManager::new(), Oracle::default());
        let mut reached = Reached::default();
        for step in steps {
            let flagged = lm.maybe_cyclic;
            match *step {
                Step::Request(t, k, x) => {
                    let got = lm.request(tid(t), &key(k), mode(x));
                    prop_assert_eq!(got, or.request(tid(t), &key(k), mode(x)));
                }
                Step::Enqueue(t, k, x, r, check) => {
                    lm.enqueue(tid(t), &key(k), mode(x), rank(r));
                    or.enqueue(tid(t), &key(k), mode(x), rank(r));
                    if check {
                        verdict(&mut lm, &or, &mut reached)?;
                    }
                }
                Step::Acquire(t, k, x, r) => {
                    let got = lm.request(tid(t), &key(k), mode(x));
                    prop_assert_eq!(&got, &or.request(tid(t), &key(k), mode(x)));
                    if got != RequestOutcome::Granted {
                        let r = if x { r } else { u64::MAX };
                        lm.enqueue(tid(t), &key(k), mode(x), r);
                        or.enqueue(tid(t), &key(k), mode(x), r);
                        verdict(&mut lm, &or, &mut reached)?;
                    }
                }
                Step::Release(t) => {
                    reached.ready_drains += u32::from(!lm.ready.is_empty());
                    prop_assert_eq!(lm.release_all(tid(t)), or.release_all(tid(t)));
                }
            }
            reached.flagged_upgrades += u32::from(lm.maybe_cyclic && !flagged);
            for k in (0..KEYS).map(key) {
                prop_assert_eq!(lm.holders(&k), or.holders(&k));
                prop_assert_eq!(lm.queued(&k).collect::<Vec<_>>(), or.queued(&k));
            }
            for t in (0..TXNS).map(tid) {
                let locks: Vec<_> = lm.locks_of(t).map(|(k, m)| (k.clone(), m)).collect();
                prop_assert_eq!(locks, or.locks_of(t));
            }
            prop_assert_eq!(lm.active_keys(), or.table.len());
            prop_assert_eq!(lm.find_deadlock(), or.find_deadlock());
        }
        Ok(reached)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// Same grants in the same order, same holders, queues and locks
        /// per transaction, and the same deadlock verdict after every
        /// checked enqueue, on any operation sequence.
        #[test]
        fn indexed_manager_agrees_with_the_oracle(steps in proptest::collection::vec(step(), 0..120)) {
            drive(&steps)?;
        }
    }

    /// The generated sequences reach every path the oracle does not have:
    /// cycles found, checks the pre-check settles alone, upgrades that
    /// force a full search, and keys drained only because they were ready.
    #[test]
    fn generated_steps_reach_every_path() {
        let mut total = Reached::default();
        for case in 0..256 {
            let mut rng = proptest::TestRng::for_case(case);
            let steps = proptest::collection::vec(step(), 0..120).sample(&mut rng);
            let r = drive(&steps).expect("agrees with the oracle");
            total.cycles += r.cycles;
            total.cleared_by_precheck += r.cleared_by_precheck;
            total.flagged_upgrades += r.flagged_upgrades;
            total.ready_drains += r.ready_drains;
        }
        assert!(total.cycles > 0, "{total:?}");
        assert!(total.cleared_by_precheck > 0, "{total:?}");
        assert!(total.flagged_upgrades > 0, "{total:?}");
        assert!(total.ready_drains > 0, "{total:?}");
    }

    /// Corner (a). A sole holder's upgrade granted over a non-empty queue
    /// adds an edge out of a waiter that was not just enqueued (here a
    /// reader that landed grantable at the head), and closes a cycle no
    /// enqueue did: a later enqueue of an unrelated transaction must still
    /// find it.
    #[test]
    fn upgrade_over_a_queue_leaves_a_cycle_an_unrelated_enqueue_finds() {
        let (x, y, z) = (key(0), key(1), key(2));
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(tid(1), &x, LockMode::Shared),
            RequestOutcome::Granted
        );
        lm.enqueue(tid(3), &x, LockMode::Shared, u64::MAX);
        assert_eq!(
            lm.request(tid(3), &y, LockMode::Exclusive),
            RequestOutcome::Granted
        );
        lm.enqueue(tid(1), &y, LockMode::Exclusive, 1);
        assert_eq!(lm.check_deadlock(), None, "T1 waits for T3, T3 for nobody");
        assert_eq!(
            lm.request(tid(1), &x, LockMode::Exclusive),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.find_deadlock(),
            Some(vec![tid(1), tid(3)]),
            "T3 now waits for T1"
        );
        assert_eq!(
            lm.request(tid(4), &z, LockMode::Exclusive),
            RequestOutcome::Granted
        );
        lm.enqueue(tid(5), &z, LockMode::Exclusive, 5);
        assert!(!lm.on_cycle(tid(5)));
        assert_eq!(lm.check_deadlock(), Some(vec![tid(1), tid(3)]));
        assert_eq!(
            lm.check_deadlock(),
            Some(vec![tid(1), tid(3)]),
            "searched until gone"
        );
        lm.release_all(tid(3));
        assert_eq!(lm.check_deadlock(), None);
        assert!(!lm.maybe_cyclic);
    }

    /// Corner (b). An enqueue that lands at the head of its queue,
    /// compatible with every holder, was granted by the next release of
    /// *any* transaction, through the full sweep; the indexed manager
    /// remembers the key and drains it in key order with the releasing
    /// transaction's own.
    #[test]
    fn grantable_enqueue_is_granted_by_any_release_in_key_order() {
        let (a, b, c, d) = (key(0), key(1), key(2), key(3));
        let mut lm = LockManager::new();
        let mut or = Oracle::default();
        lm.request(tid(1), &b, LockMode::Exclusive);
        or.request(tid(1), &b, LockMode::Exclusive);
        for (t, k, m, r) in [
            (2, &c, LockMode::Shared, u64::MAX),
            (3, &b, LockMode::Exclusive, 3),
            (2, &a, LockMode::Exclusive, 2),
        ] {
            lm.enqueue(tid(t), k, m, r);
            or.enqueue(tid(t), k, m, r);
        }
        let granted: Vec<_> = lm.release_all(tid(1)).into_iter().collect();
        let order: Vec<_> = granted.iter().map(|g| (g.txn, g.key.clone())).collect();
        assert_eq!(order, [(tid(2), a), (tid(3), b), (tid(2), c)]);
        assert_eq!(granted, or.release_all(tid(1)));
        assert!(lm.ready.is_empty());
        lm.enqueue(tid(4), &d, LockMode::Exclusive, 4);
        assert_eq!(
            lm.release_all(tid(7)).len(),
            1,
            "a transaction that holds nothing"
        );
        assert!(lm.holds(tid(4), &d, LockMode::Exclusive));
    }

    /// Two enqueues with no check between them: the cycle runs through the
    /// first waiter only, so the check must not trust the second alone.
    #[test]
    fn skipped_checks_fall_back_to_the_full_search() {
        let (x, y, z) = (key(0), key(1), key(2));
        let mut lm = LockManager::new();
        lm.request(tid(1), &x, LockMode::Exclusive);
        lm.request(tid(2), &y, LockMode::Exclusive);
        lm.request(tid(3), &z, LockMode::Exclusive);
        lm.enqueue(tid(1), &y, LockMode::Exclusive, 1);
        lm.enqueue(tid(2), &x, LockMode::Exclusive, 2);
        lm.enqueue(tid(4), &z, LockMode::Exclusive, 4);
        assert!(!lm.on_cycle(tid(4)));
        assert_eq!(lm.check_deadlock(), Some(vec![tid(2), tid(1)]));
    }
}
