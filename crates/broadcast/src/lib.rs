//! # bcastdb-broadcast
//!
//! Broadcast primitives and group membership for `bcastdb`, the reproduction
//! of *"Using Broadcast Primitives in Replicated Databases"* (Stanoi,
//! Agrawal, El Abbadi — ICDCS 1998).
//!
//! The paper layers its replication protocols on three progressively
//! stronger broadcast primitives, all specified per Hadzilacos & Toueg
//! \[HT93\]:
//!
//! - [`reliable::ReliableBcast`] — *validity*, *agreement*, *integrity*,
//!   plus per-origin FIFO (the paper assumes FIFO links);
//! - [`causal::CausalBcast`] — reliable broadcast + causal delivery order,
//!   with the vector clock of every delivery **exposed to the application
//!   layer** (the causal replication protocol requires this to detect
//!   concurrent conflicting operations and implicit acknowledgements);
//! - [`atomic::SequencerAbcast`] / [`atomic::IsisAbcast`] /
//!   [`ring::RingAbcast`] — total-order broadcast, in three classical
//!   implementations whose cost difference is the subject of ablation
//!   experiment A1 (the pipelined ring stays bandwidth-bound as the group
//!   grows where the other two go leader-bound); the first and last share
//!   one ordering core, [`order`].
//!
//! [`membership::ViewManager`] provides majority-quorum views: "as long as
//! the view has majority membership, the system remains operational".
//!
//! All engines are *sans-IO*: they consume wire messages and produce
//! `(destination, wire)` pairs plus application deliveries, so they can be
//! unit-tested exhaustively and embedded in any transport (here, the
//! deterministic simulator in `bcastdb-sim`). What one keeps per origin is
//! a `msg::SeqWindow`: a watermark plus whatever arrived above it.
//!
//! # Example: causal order end to end
//!
//! ```
//! use bcastdb_broadcast::CausalBcast;
//! use bcastdb_sim::SiteId;
//!
//! let mut a = CausalBcast::new(SiteId(0), 3);
//! let mut b = CausalBcast::new(SiteId(1), 3);
//! let mut c = CausalBcast::new(SiteId(2), 3);
//!
//! // a broadcasts m1; b delivers it and replies with m2 (causally after).
//! let (_, out1) = a.broadcast("m1");
//! let w1 = out1.outbound[0].wire.clone();
//! b.on_wire(SiteId(0), w1.clone());
//! let (_, out2) = b.broadcast("m2");
//! let w2 = out2.outbound[0].wire.clone();
//!
//! // c receives them in the wrong order: m2 is held back until m1 arrives.
//! assert!(c.on_wire(SiteId(1), w2).deliveries.is_empty());
//! let delivered = c.on_wire(SiteId(0), w1).deliveries;
//! let payloads: Vec<_> = delivered.iter().map(|d| d.payload).collect();
//! assert_eq!(payloads, ["m1", "m2"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod batch;
pub mod causal;
pub mod membership;
pub mod msg;
pub mod order;
pub mod reliable;
pub mod ring;
pub mod vclock;

pub use atomic::{AtomicBcast, IsisAbcast, SequencerAbcast};
pub use batch::{Batch, Batcher, WireSize};
pub use causal::CausalBcast;
pub use membership::{View, ViewManager};
pub use msg::{Dest, MsgId, Outbound};
pub use reliable::ReliableBcast;
pub use ring::{RingAbcast, RingWire};
pub use vclock::{CausalRelation, VectorClock};
