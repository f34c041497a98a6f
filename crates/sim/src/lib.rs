//! # bcastdb-sim
//!
//! A deterministic discrete-event simulation (DES) kernel and network
//! substrate for `bcastdb`, the reproduction of *"Using Broadcast Primitives
//! in Replicated Databases"* (Stanoi, Agrawal, El Abbadi — ICDCS 1998).
//!
//! The paper evaluates replication protocols on a LAN of workstations; this
//! crate substitutes a deterministic simulator so every experiment is exactly
//! reproducible from a seed. The kernel provides:
//!
//! - [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time,
//! - [`EventQueue`] — a stable priority queue of timestamped events,
//! - [`Network`] — a message-passing substrate with per-link FIFO delivery
//!   (the paper assumes FIFO links), pluggable latency models, probabilistic
//!   loss, partitions, and crash failures,
//! - [`Simulation`] — the driver that owns a set of [`Node`]s and runs the
//!   event loop to quiescence or a deadline,
//! - [`trace`] — counters and histograms used by the experiment harness,
//! - [`telemetry`] — structured trace events with per-phase message
//!   accounting, pluggable sinks, and an offline invariant checker,
//! - [`spans`] / [`analyze`] — per-transaction span reconstruction and
//!   commit-latency decomposition over the trace stream,
//! - [`stats`] — a deterministic virtual-time metrics registry (counters,
//!   gauges, log2 histograms) sampled at fixed sim-clock boundaries,
//! - [`json`] — the one JSON parser and string escaper every reader and
//!   writer of trace, sample and ledger files shares.
//!
//! # Example
//!
//! ```
//! use bcastdb_sim::{Simulation, Node, Ctx, SiteId, SimDuration, NetworkConfig};
//!
//! /// A node that echoes every message back to its sender once.
//! struct Echo { seen: usize }
//!
//! impl Node for Echo {
//!     type Msg = u64;
//!     type Timer = ();
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u64, ()>, from: SiteId, msg: u64) {
//!         self.seen += 1;
//!         if msg == 0 {
//!             ctx.send(from, 1);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64, ()>, _t: ()) {}
//! }
//!
//! let mut sim = Simulation::new(42, NetworkConfig::lan(), vec![Echo { seen: 0 }, Echo { seen: 0 }]);
//! sim.send_external(SiteId(0), SiteId(1), 0); // kick off: node 0 -> node 1
//! sim.run_to_quiescence(SimDuration::from_millis(100));
//! assert_eq!(sim.node(SiteId(1)).seen, 1);
//! assert_eq!(sim.node(SiteId(0)).seen, 1); // echo came back
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod event;
pub mod inline;
pub mod json;
mod net;
mod rng;
mod simulation;
pub mod spans;
pub mod stats;
pub mod telemetry;
mod time;
pub mod trace;

pub use event::{Event, EventKind, EventQueue, WheelStats};
pub use net::{
    DropBreakdown, FaultClause, FaultKind, FaultPlan, LatencyModel, LinkState, Network,
    NetworkConfig, Transit,
};
pub use rng::DetRng;
pub use simulation::{Ctx, Node, RunOutcome, SendOutcome, Simulation};
pub use stats::{Histogram, Sample, SampleWriter, StatsHandle, StatsRegistry};
pub use time::{SimDuration, SimTime};

use std::fmt;

/// Identifier of a site (replica / process) in the simulated system.
///
/// Sites are numbered densely from zero; `SiteId(i)` is the `i`-th node
/// handed to [`Simulation::new`].
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct SiteId(pub usize);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<usize> for SiteId {
    fn from(v: usize) -> Self {
        SiteId(v)
    }
}

impl SiteId {
    /// Returns the dense index of this site.
    pub fn index(self) -> usize {
        self.0
    }
}
