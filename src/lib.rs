//! # bcastdb
//!
//! A replicated database built on broadcast primitives — a full Rust
//! reproduction of *"Using Broadcast Primitives in Replicated Databases"*
//! (I. Stanoi, D. Agrawal, A. El Abbadi — ICDCS 1998).
//!
//! The paper shows how progressively stronger broadcast primitives simplify
//! transaction commitment in a fully replicated database:
//!
//! 1. **Reliable broadcast** ([`protocols::ProtocolKind::ReliableBcast`]) —
//!    write operations are reliably broadcast; commitment needs a
//!    decentralized two-phase commit, but the protocol prevents deadlocks.
//! 2. **Causal broadcast** ([`protocols::ProtocolKind::CausalBcast`]) — the
//!    causal delivery order carries *implicit* acknowledgements, eliminating
//!    explicit YES votes.
//! 3. **Atomic broadcast** ([`protocols::ProtocolKind::AtomicBcast`]) —
//!    totally ordered commit requests make the commit decision
//!    deterministic at every site: *no* acknowledgements at all.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`sim`] — deterministic discrete-event simulator and network,
//! - [`broadcast`] — reliable (FIFO) / causal / atomic broadcast and
//!   group membership,
//! - [`db`] — single-site database substrate (storage, strict 2PL,
//!   logging, serializability checking),
//! - [`protocols`] — the four replication protocols and the cluster API,
//! - [`workload`] — workload generators and drivers.
//!
//! # Quickstart
//!
//! ```
//! use bcastdb::prelude::*;
//!
//! // A 3-replica cluster running the atomic-broadcast protocol.
//! let mut cluster = Cluster::builder()
//!     .sites(3)
//!     .protocol(ProtocolKind::AtomicBcast)
//!     .seed(42)
//!     .build();
//!
//! // Run one update transaction at site 0: read x, write x := 7.
//! let txn = TxnSpec::new().read("x").write("x", 7);
//! let id = cluster.submit(SiteId(0), txn);
//! cluster.run_to_quiescence();
//!
//! assert!(cluster.is_committed(id));
//! // Every replica converged to the same value.
//! for site in cluster.sites() {
//!     assert_eq!(cluster.committed_value(site, "x"), Some(7));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bcastdb_broadcast as broadcast;
pub use bcastdb_core as protocols;
pub use bcastdb_db as db;
pub use bcastdb_sim as sim;
pub use bcastdb_workload as workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use bcastdb_core::{
        Cluster, ClusterBuilder, Placement, ProtocolKind, TxnId, TxnOutcome, TxnSpec,
    };
    pub use bcastdb_db::Key;
    pub use bcastdb_sim::telemetry::{Phase, PhaseCounts, TraceEvent, TraceViolation};
    pub use bcastdb_sim::{SimDuration, SimTime, SiteId};
    pub use bcastdb_workload::{WorkloadConfig, WorkloadRun};
}
