//! # bcastdb-core
//!
//! The replication protocols of *"Using Broadcast Primitives in Replicated
//! Databases"* (Stanoi, Agrawal, El Abbadi — ICDCS 1998), implemented over
//! the broadcast primitives of `bcastdb-broadcast` and the per-site
//! database substrate of `bcastdb-db`, driven by the deterministic
//! simulator of `bcastdb-sim`.
//!
//! Four protocols, one per [`ProtocolKind`]:
//!
//! | Protocol | Dissemination | Commitment | Paper |
//! |----------|---------------|------------|-------|
//! | [`ProtocolKind::PointToPoint`] | unicast + per-op acks | decentralized 2PC | §2 (baseline) |
//! | [`ProtocolKind::ReliableBcast`] | reliable broadcast | decentralized 2PC, deadlock-free | §3 |
//! | [`ProtocolKind::CausalBcast`] | causal broadcast | **implicit** acknowledgements | §4 |
//! | [`ProtocolKind::AtomicBcast`] | causal writes + atomic commit | none (deterministic certification) | §5 |
//!
//! The public entry point is [`Cluster`]: build one with
//! [`Cluster::builder`], submit [`TxnSpec`]s, run the simulation, then
//! inspect outcomes, per-replica state, metrics, and — via
//! [`Cluster::check_serializability`] — the one-copy serialization graph of
//! the whole execution.
//!
//! ```
//! use bcastdb_core::{Cluster, ProtocolKind, TxnSpec};
//! use bcastdb_sim::SiteId;
//!
//! let mut cluster = Cluster::builder()
//!     .sites(5)
//!     .protocol(ProtocolKind::CausalBcast)
//!     .seed(7)
//!     .build();
//! let id = cluster.submit(SiteId(2), TxnSpec::new().read("a").write("b", 1));
//! cluster.run_to_quiescence();
//! assert!(cluster.is_committed(id));
//! cluster.check_serializability().expect("one-copy serializable");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod engine;
mod metrics;
mod payload;
mod placement;
pub mod protocols;
mod state;

pub use cluster::{Cluster, ClusterBuilder, ClusterConfig, TxnOutcome};
pub use engine::ReplicaNode;
pub use metrics::{AbortReason, CommitSeries, Counters, Metrics};
pub use payload::{AbcastImpl, Payload, ProtocolKind, ReplicaMsg, ReplicaTimer, TxnPriority};
pub use placement::Placement;
pub use state::ConflictPolicy;

pub use bcastdb_db::{TxnId, TxnSpec};
