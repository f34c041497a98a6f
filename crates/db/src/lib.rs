//! # bcastdb-db
//!
//! The single-site database substrate for `bcastdb`, the reproduction of
//! *"Using Broadcast Primitives in Replicated Databases"* (Stanoi, Agrawal,
//! El Abbadi — ICDCS 1998).
//!
//! The paper assumes each site runs a conventional database kernel:
//! a store holding a full copy of every object, **strict two-phase
//! locking** for local concurrency control, and a redo log for durability.
//! This crate provides exactly that substrate, plus the machinery the
//! paper uses in its *proofs* — serialization graphs — turned into a
//! *checker* ([`sg::HistoryRecorder`]) that validates one-copy
//! serializability of every simulated execution:
//!
//! - [`types`] — keys, values, transaction identifiers and specifications;
//! - [`storage`] — the versioned key-value store (each committed write
//!   records its writer, giving the reads-from relation for free);
//! - [`lock`] — a strict-2PL lock manager with shared/exclusive modes,
//!   upgrade, FIFO wait queues, and a waits-for-graph deadlock detector
//!   (used by the reliable-broadcast protocol for reader/writer cycles; the
//!   baseline times out, the other protocols prevent deadlock);
//! - [`log`] — a redo log with crash-recovery replay;
//! - [`graph`] — a dense directed graph with cycle detection, under both the
//!   serialization-graph test and the deadlock detector;
//! - [`sg`] — history recording and the one-copy serialization-graph test.
//!
//! # Example: strict 2PL + the serializability checker
//!
//! ```
//! use bcastdb_db::{HistoryRecorder, Key, LockManager, LockMode, Store, TxnId, WriteOp};
//! use bcastdb_db::lock::RequestOutcome;
//! use bcastdb_sim::SiteId;
//!
//! let t1 = TxnId::new(SiteId(0), 1);
//! let t2 = TxnId::new(SiteId(1), 1);
//!
//! // Strict 2PL: t2's write waits for t1's read lock.
//! let mut locks = LockManager::new();
//! assert_eq!(locks.request(t1, &Key::new("x"), LockMode::Shared), RequestOutcome::Granted);
//! assert!(matches!(
//!     locks.request(t2, &Key::new("x"), LockMode::Exclusive),
//!     RequestOutcome::Conflict { .. }
//! ));
//!
//! // A serial history passes the one-copy serialization-graph check.
//! let mut store = Store::new();
//! let w = WriteOp { key: Key::new("x"), value: 7 };
//! store.apply(t2, &[w.clone()]);
//! let mut h = HistoryRecorder::new();
//! h.record_commit(t1, vec![(Key::new("x"), None)], vec![]);
//! h.record_commit(t2, vec![], vec![w]);
//! h.record_site_order(SiteId(0), &store);
//! assert!(h.check().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lock;
pub mod log;
pub mod sg;
pub mod storage;
pub mod types;

pub use lock::{LockManager, LockMode, RequestOutcome};
pub use log::{Checkpoint, LogRecord, RedoLog};
pub use sg::{HistoryRecorder, SgViolation, SgWork};
pub use storage::{Arena, Run, Store};
pub use types::{Key, KeyMap, TxnId, TxnSpec, Value, WriteOp};
