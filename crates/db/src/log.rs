//! Redo logging and crash recovery.
//!
//! Each site appends a record when a transaction's write set is applied.
//! After a crash, replaying the log onto a fresh store reproduces the
//! committed state — the durability half of strict 2PL's "commit applies
//! all writes atomically".

use crate::storage::Store;
use crate::types::{TxnId, WriteOp};

/// A checkpoint: a materialized store plus the log position it covers.
/// Recovery = load the checkpoint, replay the log suffix.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Committed state at the checkpoint.
    pub store: Store,
    /// Number of log records folded into the checkpoint.
    pub covered: usize,
}

/// One entry in a site's redo log, borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecord<'a> {
    /// `txn` committed with this write set (empty for read-only commits,
    /// which are logged only if the caller chooses to).
    Commit {
        /// The committed transaction.
        txn: TxnId,
        /// Its full write set.
        writes: &'a [WriteOp],
    },
    /// `txn` aborted (recorded for audit; replay ignores it).
    Abort {
        /// The aborted transaction.
        txn: TxnId,
    },
}

/// An append-only redo log: every commit's writes in one arena, record
/// after record, and per record its transaction, whether it committed and
/// where its writes end (they start where the previous record's end).
#[derive(Debug, Clone, Default)]
pub struct RedoLog {
    entries: Vec<(TxnId, bool, usize)>,
    writes: Vec<WriteOp>,
}

impl RedoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a commit record and returns the write set just logged.
    pub fn log_commit(
        &mut self,
        txn: TxnId,
        writes: impl IntoIterator<Item = WriteOp>,
    ) -> &[WriteOp] {
        let start = self.writes.len();
        self.writes.extend(writes);
        self.entries.push((txn, true, self.writes.len()));
        &self.writes[start..]
    }

    /// Appends an abort record.
    pub fn log_abort(&mut self, txn: TxnId) {
        self.entries.push((txn, false, self.writes.len()));
    }

    /// All records, oldest first.
    pub fn records(&self) -> impl ExactSizeIterator<Item = LogRecord<'_>> + '_ {
        let mut start = 0;
        self.entries.iter().map(move |&(txn, commit, end)| {
            let writes = &self.writes[std::mem::replace(&mut start, end)..end];
            match commit {
                true => LogRecord::Commit { txn, writes },
                false => LogRecord::Abort { txn },
            }
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays every commit record onto a fresh store, reproducing the
    /// committed state at the time of the crash.
    pub fn replay(&self) -> Store {
        self.replay_onto(Store::new())
    }

    fn replay_onto(&self, mut store: Store) -> Store {
        for rec in self.records() {
            if let LogRecord::Commit { txn, writes } = rec {
                store.apply(txn, writes);
            }
        }
        store
    }

    /// Takes a checkpoint: materializes the current committed state and
    /// records how much of the log it covers. Pair with
    /// [`RedoLog::truncate_before`] to bound log growth.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            store: self.replay(),
            covered: self.entries.len(),
        }
    }

    /// Drops the `n` oldest records (they are covered by a checkpoint).
    /// Replaying the remainder on top of that checkpoint reproduces the
    /// full state.
    pub fn truncate_before(&mut self, n: usize) {
        let n = n.min(self.entries.len());
        let cut = self.entries[..n].last().map_or(0, |e| e.2);
        self.entries.drain(..n);
        self.writes.drain(..cut);
        self.entries.iter_mut().for_each(|e| e.2 -= cut);
    }

    /// Recovers the full committed state from a checkpoint plus this log's
    /// remaining records (which must start where the checkpoint ends).
    pub fn recover_from(&self, cp: &Checkpoint) -> Store {
        self.replay_onto(cp.store.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Key;
    use bcastdb_sim::SiteId;

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(0), n)
    }

    fn committed(log: &RedoLog) -> Vec<TxnId> {
        let commits = log.records().filter_map(|r| match r {
            LogRecord::Commit { txn, .. } => Some(txn),
            LogRecord::Abort { .. } => None,
        });
        commits.collect()
    }

    fn w(key: &str, v: i64) -> WriteOp {
        WriteOp {
            key: Key::new(key),
            value: v,
        }
    }

    #[test]
    fn replay_reproduces_committed_state() {
        let mut log = RedoLog::new();
        let mut live = Store::new();

        log.log_commit(t(1), vec![w("x", 1), w("y", 2)]);
        live.apply(t(1), &[w("x", 1), w("y", 2)]);
        log.log_commit(t(2), vec![w("x", 10)]);
        live.apply(t(2), &[w("x", 10)]);
        log.log_abort(t(3));

        let recovered = log.replay();
        assert!(recovered.converged_with(&live));
        assert_eq!(recovered.value(&Key::new("x")), 10);
    }

    #[test]
    fn aborts_do_not_affect_replay() {
        let mut log = RedoLog::new();
        log.log_abort(t(1));
        log.log_abort(t(2));
        let s = log.replay();
        assert!(s.is_empty());
        assert_eq!(committed(&log), vec![]);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn records_keep_commit_order() {
        let mut log = RedoLog::new();
        log.log_commit(t(5), vec![]);
        log.log_abort(t(6));
        log.log_commit(t(2), vec![]);
        assert_eq!(committed(&log), vec![t(5), t(2)]);
    }

    #[test]
    fn checkpoint_plus_suffix_equals_full_replay() {
        let mut log = RedoLog::new();
        log.log_commit(t(1), vec![w("x", 1)]);
        log.log_commit(t(2), vec![w("y", 2)]);
        let full_before = log.replay();
        let cp = log.checkpoint();
        assert_eq!(cp.covered, 2);
        assert!(cp.store.converged_with(&full_before));
        // More activity after the checkpoint; then truncate the prefix.
        log.log_commit(t(3), vec![w("x", 3)]);
        log.log_abort(t(4));
        let full = log.replay();
        log.truncate_before(cp.covered);
        assert_eq!(log.len(), 2, "only the suffix remains");
        let recovered = log.recover_from(&cp);
        assert!(
            recovered.converged_with(&full),
            "checkpoint + suffix = full state"
        );
        assert_eq!(recovered.value(&Key::new("x")), 3);
    }

    #[test]
    fn truncate_before_clamps_to_length() {
        let mut log = RedoLog::new();
        log.log_commit(t(1), vec![w("x", 1)]);
        log.truncate_before(10);
        assert!(log.is_empty());
    }

    #[test]
    fn checkpoint_of_empty_log_is_empty() {
        let log = RedoLog::new();
        let cp = log.checkpoint();
        assert_eq!(cp.covered, 0);
        assert!(cp.store.is_empty());
    }

    #[test]
    fn empty_log_replays_to_empty_store() {
        let log = RedoLog::new();
        assert!(log.is_empty());
        assert!(log.replay().is_empty());
    }
}

/// The redo log as it was before its writes shared one arena — a vector of
/// records, each owning its write set — kept as the reference the arena log
/// is held to.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::types::Key;
    use bcastdb_sim::SiteId;
    use proptest::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum OwnedRecord {
        Commit { txn: TxnId, writes: Vec<WriteOp> },
        Abort { txn: TxnId },
    }

    impl From<LogRecord<'_>> for OwnedRecord {
        fn from(rec: LogRecord<'_>) -> Self {
            match rec {
                LogRecord::Commit { txn, writes } => OwnedRecord::Commit {
                    txn,
                    writes: writes.to_vec(),
                },
                LogRecord::Abort { txn } => OwnedRecord::Abort { txn },
            }
        }
    }

    #[derive(Default)]
    struct Oracle {
        records: Vec<OwnedRecord>,
    }

    impl Oracle {
        fn recover_from(&self, mut store: Store) -> Store {
            for rec in &self.records {
                if let OwnedRecord::Commit { txn, writes } = rec {
                    store.apply(*txn, writes);
                }
            }
            store
        }

        fn truncate_before(&mut self, n: usize) {
            self.records.drain(..n.min(self.records.len()));
        }
    }

    /// Current versions, install orders and the write count agree.
    fn same(a: &Store, b: &Store) -> bool {
        let orders = crate::storage::tests::install_orders;
        a.converged_with(b) && orders(a) == orders(b) && a.applied_writes() == b.applied_writes()
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// Writes as (key, value); the mask keeps the keys this site holds,
        /// as `apply_commit`'s placement filter does (often none of them).
        Commit(Vec<(u8, i64)>, u8),
        Abort,
        Checkpoint,
        /// `truncate_before` the last checkpoint's coverage, which
        /// `recover_from` it then continues.
        TruncateToCheckpoint,
        /// `truncate_before` an arbitrary count, past the end included.
        TruncateBefore(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        let writes = proptest::collection::vec((0u8..6, -5i64..5), 0..5);
        prop_oneof![
            (writes.clone(), 0u8..64).prop_map(|(w, m)| Step::Commit(w, m)),
            (writes, Just(u8::MAX)).prop_map(|(w, m)| Step::Commit(w, m)),
            Just(Step::Abort),
            Just(Step::Checkpoint),
            Just(Step::TruncateToCheckpoint),
            (0usize..12).prop_map(Step::TruncateBefore),
        ]
    }

    proptest! {
        /// Commits with empty and placement-filtered write sets, aborts,
        /// checkpoints and truncations: the arena log lists the same
        /// records with the same write slices as the per-record log,
        /// replays to the same store, and recovers from a checkpoint to the
        /// same store — the full one when it was truncated at that
        /// checkpoint.
        #[test]
        fn arena_log_agrees_with_the_record_log(
            steps in proptest::collection::vec(step(), 0..120)
        ) {
            let (mut log, mut old) = (RedoLog::new(), Oracle::default());
            let mut full = Store::new();
            // The last checkpoint of each log, and whether the arena's
            // covered every record ever logged.
            let mut cps: Option<(Checkpoint, Checkpoint, bool)> = None;
            let mut whole = true;
            for (i, step) in steps.into_iter().enumerate() {
                let txn = TxnId::new(SiteId(i % 3), i as u64);
                match step {
                    Step::Commit(writes, mask) => {
                        let held: Vec<WriteOp> = (writes.into_iter())
                            .filter(|&(k, _)| mask >> k & 1 == 1)
                            .map(|(k, value)| WriteOp { key: Key::new(format!("k{k}")), value })
                            .collect();
                        let logged = log.log_commit(txn, held.iter().cloned());
                        prop_assert_eq!(logged, &held[..]);
                        full.apply(txn, &held);
                        old.records.push(OwnedRecord::Commit { txn, writes: held });
                    }
                    Step::Abort => {
                        log.log_abort(txn);
                        old.records.push(OwnedRecord::Abort { txn });
                    }
                    Step::Checkpoint => {
                        let cp = log.checkpoint();
                        prop_assert_eq!(cp.covered, old.records.len());
                        let old_cp = Checkpoint {
                            store: old.recover_from(Store::new()),
                            covered: old.records.len(),
                        };
                        prop_assert!(same(&cp.store, &old_cp.store));
                        cps = Some((cp, old_cp, whole));
                    }
                    Step::TruncateToCheckpoint => {
                        if let Some((cp, old_cp, cp_whole)) = cps.take() {
                            log.truncate_before(cp.covered);
                            old.truncate_before(old_cp.covered);
                            if cp_whole {
                                prop_assert!(same(&log.recover_from(&cp), &full));
                            }
                            cps = Some((cp, old_cp, false));
                            whole = false;
                        }
                    }
                    Step::TruncateBefore(n) => {
                        log.truncate_before(n);
                        old.truncate_before(n);
                        cps = None;
                        whole &= n == 0;
                    }
                }
                prop_assert_eq!(log.len(), old.records.len());
                prop_assert_eq!(log.is_empty(), old.records.is_empty());
                let records: Vec<OwnedRecord> = log.records().map(OwnedRecord::from).collect();
                prop_assert_eq!(&records, &old.records);
                prop_assert!(same(&log.replay(), &old.recover_from(Store::new())));
                if let Some((cp, old_cp, _)) = &cps {
                    let want = old.recover_from(old_cp.store.clone());
                    prop_assert!(same(&log.recover_from(cp), &want));
                }
            }
        }
    }
}
