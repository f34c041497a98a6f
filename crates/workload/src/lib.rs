//! # bcastdb-workload
//!
//! Workload generation and experiment drivers for `bcastdb`. The paper's
//! evaluation era used synthetic transaction mixes over a fixed database
//! with skewed (hot-spot / Zipf) access; this crate reproduces that
//! methodology:
//!
//! - [`zipf::Zipf`] — a seeded Zipf sampler for skewed key selection;
//! - [`WorkloadConfig`] — transaction shape (reads/writes per transaction,
//!   read-only fraction), database size, skew, and arrival process;
//! - [`WorkloadRun`] — drivers that submit the generated transactions into
//!   a [`Cluster`](bcastdb_core::Cluster) either *open-loop* (Poisson
//!   arrivals at a configured rate) or *closed-loop* (a fixed
//!   multiprogramming level: each client submits its next transaction when
//!   the previous one terminates), and collect the measurements every
//!   experiment reports.

//!
//! # Example
//!
//! ```
//! use bcastdb_core::{Cluster, ProtocolKind};
//! use bcastdb_sim::SimDuration;
//! use bcastdb_workload::{WorkloadConfig, WorkloadRun};
//!
//! let mut cluster = Cluster::builder()
//!     .sites(3)
//!     .protocol(ProtocolKind::ReliableBcast)
//!     .seed(1)
//!     .build();
//! let cfg = WorkloadConfig {
//!     n_keys: 200,
//!     theta: 0.8,
//!     readonly_fraction: 0.2,
//!     ..WorkloadConfig::default()
//! };
//! let run = WorkloadRun::new(cfg, 99);
//! let report = run.open_loop(&mut cluster, 5, SimDuration::from_millis(10));
//! assert!(report.quiesced && report.all_terminated());
//! cluster.check_serializability().expect("one-copy serializable");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;
pub mod spec;
pub mod zipf;

pub use runner::{RunReport, WorkloadRun};
pub use spec::WorkloadConfig;
pub use zipf::Zipf;
