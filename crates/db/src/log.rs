//! An append-only redo log.
//!
//! No replica keeps one: a rejoining site is brought up to date by state
//! transfer from a live member, and the cluster's history is what the
//! checker reads. What is left is the append path, a record per commit
//! with its write set in one arena.

use crate::types::{TxnId, WriteOp};

/// An append-only redo log: every commit's writes in one arena, record
/// after record, and per record its transaction and where its writes end
/// (they start where the previous record's end).
#[derive(Debug, Clone, Default)]
pub struct RedoLog {
    entries: Vec<(TxnId, usize)>,
    writes: Vec<WriteOp>,
}

impl RedoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a commit record.
    pub fn log_commit(&mut self, txn: TxnId, writes: impl IntoIterator<Item = WriteOp>) {
        self.writes.extend(writes);
        self.entries.push((txn, self.writes.len()));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Key;
    use bcastdb_sim::SiteId;

    #[test]
    fn commits_append_one_record_each() {
        let mut log = RedoLog::new();
        assert!(log.is_empty());
        let w = |v| WriteOp {
            key: Key::new("x"),
            value: v,
        };
        log.log_commit(TxnId::new(SiteId(0), 1), [w(1), w(2)]);
        log.log_commit(TxnId::new(SiteId(1), 1), []);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }
}
