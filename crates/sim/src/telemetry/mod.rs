//! Structured trace events: typed, per-phase message accounting and
//! transaction lifecycle spans, with pluggable sinks and an offline
//! invariant checker.
//!
//! The experiment harness needs more than flat counters to decompose a
//! protocol's traffic the way the paper does (write dissemination vs.
//! votes vs. acknowledgements vs. decisions). This module defines:
//!
//! - [`Phase`] — the six protocol phases every replica message belongs to,
//! - [`TraceEvent`] — one structured record per message send / delivery /
//!   drop and per transaction lifecycle step (submit → locks → vote →
//!   commit/abort), plus total-order deliveries, view changes, and crashes,
//! - [`TraceSink`] — where events go: a bounded [`RingSink`], a JSON-Lines
//!   [`JsonlSink`], or the streaming [`TraceInvariants`] checker; a
//!   [`WorkerSink`] runs any of them on a worker thread fed in blocks,
//! - [`Tracer`] — a cheap, cloneable handle that is **zero-overhead when
//!   disabled**: [`Tracer::emit`] takes a closure that is never evaluated
//!   unless a sink is attached,
//! - [`PhaseCounts`] — messages per phase, the one table every per-phase
//!   count is kept in.
//!
//! # Example
//!
//! ```
//! use bcastdb_sim::telemetry::{Phase, RingSink, TraceEvent, Tracer};
//! use bcastdb_sim::{SimTime, SiteId};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let ring = Rc::new(RefCell::new(RingSink::new(16)));
//! let tracer = Tracer::new(ring.clone());
//! tracer.emit(|| TraceEvent::Send {
//!     at: SimTime::from_micros(5),
//!     from: SiteId(0),
//!     to: SiteId(1),
//!     phase: Phase::Prepare,
//! });
//! assert_eq!(ring.borrow().len(), 1);
//!
//! // A disabled tracer never evaluates the closure:
//! Tracer::disabled().emit(|| unreachable!());
//! ```

pub use crate::analyze::{
    render_summary, render_timeline, slowest, summarize, CriticalPath, SegmentSummary,
};
pub use crate::spans::{Segment, SegmentBreakdown, SpanBuilder, SpanOutcome, TxnSpan, VoteRecord};

mod codec;
mod invariants;
mod sinks;

pub use codec::{TraceLine, TraceMeta};
pub use invariants::{check_trace, TraceInvariants, TraceViolation};
pub use sinks::{JsonlSink, RingSink, TraceSink, Tracer};
pub use sinks::{WorkerSink, BLOCK_EVENTS, WORKER_START_BLOCK};

use crate::json::Field;
use crate::{SimTime, SiteId};
use codec::Wire;
use std::borrow::Cow;
use std::fmt;

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// The protocol phase a replica message belongs to.
///
/// Every message any of the four protocols sends falls into exactly one
/// of these buckets, so per-phase totals sum to the flat message count by
/// construction. The mapping (documented per message type in
/// `bcastdb-core`) follows the paper's cost decomposition: disseminating
/// a transaction's effects is *prepare*, deciding its fate is *vote* /
/// *decision*, everything acknowledgement-like is *ack*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Write dissemination and commit requests (including the payload legs
    /// of the atomic broadcast).
    Prepare,
    /// Explicit 2PC votes.
    Vote,
    /// Acknowledgement-shaped traffic: per-operation write acks, negative
    /// acknowledgements, null keep-alives, ring window acks.
    Ack,
    /// Outcome propagation: abort decisions, sequencer orderings, ring
    /// commits.
    Decision,
    /// Loss recovery: retransmitted broadcasts and watermark syncs.
    Retransmit,
    /// Membership service heartbeats and view agreement.
    Membership,
}

impl Phase {
    /// All phases, in table-column order.
    pub const ALL: [Phase; 6] = [
        Phase::Prepare,
        Phase::Vote,
        Phase::Ack,
        Phase::Decision,
        Phase::Retransmit,
        Phase::Membership,
    ];

    /// Position of this phase in [`Phase::ALL`] (and in the `Ord` order,
    /// since the variants are declared in table-column order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable name used in benchmark columns and JSON lines.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Prepare => "prepare",
            Phase::Vote => "vote",
            Phase::Ack => "ack",
            Phase::Decision => "decision",
            Phase::Retransmit => "retransmit",
            Phase::Membership => "membership",
        }
    }

    fn from_name(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Messages per [`Phase`]: the one table every per-phase count is kept in —
/// a site's logical sends (`bcastdb-core`'s `Metrics`), the invariant
/// checker's sends and deliveries per link, and the benchmark tables.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts([u64; Phase::ALL.len()]);

impl PhaseCounts {
    /// The count for one phase.
    pub fn get(&self, phase: Phase) -> u64 {
        self.0[phase.index()]
    }

    /// Adds `delta` messages to one phase.
    pub fn add(&mut self, phase: Phase, delta: u64) {
        self.0[phase.index()] += delta;
    }

    /// Sum over all phases.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Spelled like a struct with one field per phase, so assertion messages
/// name the phases.
impl fmt::Debug for PhaseCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("PhaseCounts");
        for p in Phase::ALL {
            s.field(p.name(), &self.get(p));
        }
        s.finish()
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// A transaction reference usable below the database layer: the
/// originating site plus its per-origin sequence number (mirrors
/// `bcastdb-db`'s `TxnId`, which this crate cannot depend on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnRef {
    /// Originating site.
    pub origin: SiteId,
    /// Per-origin transaction number (1-based).
    pub num: u64,
}

impl fmt::Display for TxnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.origin, self.num)
    }
}

/// Declares [`TraceEvent`] and derives, from the same table, everything
/// that has to agree with it: [`TraceEvent::at`], the JSONL writer and the
/// JSONL reader. An entry reads
/// `Variant "wire name" { at: SimTime, field: Type, field "wire key": Type, }`:
/// the line is `{"ev":"wire name",..}` with the fields in the order given,
/// each under its own name unless a wire key is stated, each encoded by its
/// type's [`Wire`] impl (a `TxnRef` flattens into `origin` and `num`).
/// Every variant has an `at`. Adding a variant is one entry here and
/// nothing else.
macro_rules! trace_events {
    ($(
        $(#[$vdoc:meta])*
        $variant:ident $ev:literal {
            $($(#[$fdoc:meta])* $field:ident $($key:literal)? : $ty:ty,)*
        }
    )*) => {
        /// One structured trace record.
        ///
        /// Message events (`Send` / `Deliver` / `Drop`) are emitted per
        /// point-to-point transmission with the message's [`Phase`]; lifecycle
        /// events track each transaction from submission to its termination.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceEvent {$(
            $(#[$vdoc])*
            $variant {
                $($(#[$fdoc])* $field: $ty,)*
            },
        )*}

        impl TraceEvent {
            /// The virtual time of the event.
            pub fn at(&self) -> SimTime {
                match self {
                    $(TraceEvent::$variant { at, .. })|* => *at,
                }
            }

            /// Appends the event to `out` as one JSON object on one line (no
            /// trailing newline).
            ///
            /// The schema is flat: every value is an unsigned integer, a
            /// boolean, a string, or an array of site indices. See `DESIGN.md`
            /// §9 for the full field reference.
            pub fn write_jsonl(&self, out: &mut String) {
                self.encode::<codec::Pairs>(out);
            }
            fn encode<D: codec::Digits>(&self, out: &mut String) {
                match self {$(
                    TraceEvent::$variant { $($field,)* } => {
                        out.push_str(concat!("{\"ev\":\"", $ev, "\""));
                        $($field.put::<D>(concat!(",\"", wire_key!($field $($key)?), "\":"), out);)*
                    }
                )*}
                out.push('}');
            }

            /// Rebuilds the event called `ev` on the wire from its line's fields.
            fn from_fields(ev: &str, line: Field<'_>) -> Result<TraceEvent, String> {
                Ok(match ev {
                    $($ev => TraceEvent::$variant {
                        $($field: Wire::take(line, wire_key!($field $($key)?))?,)*
                    },)*
                    other => return Err(format!("unknown event type {other:?}")),
                })
            }
        }
    };
}

/// A field's key on the wire: the stated one, else the field's own name.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

trace_events! {
    /// A message was handed to the network.
    Send "send" {
        /// Virtual send time.
        at: SimTime,
        /// Sender.
        from: SiteId,
        /// Receiver.
        to: SiteId,
        /// Protocol phase of the message.
        phase: Phase,
    }
    /// A message was delivered to its receiver.
    Deliver "deliver" {
        /// Virtual delivery time.
        at: SimTime,
        /// Sender.
        from: SiteId,
        /// Receiver.
        to: SiteId,
        /// Protocol phase of the message.
        phase: Phase,
    }
    /// A message was lost in transit (random loss, crash, or partition).
    Drop "drop" {
        /// Virtual send time of the lost message.
        at: SimTime,
        /// Sender.
        from: SiteId,
        /// Intended receiver.
        to: SiteId,
        /// Protocol phase of the message.
        phase: Phase,
    }
    /// The batching layer flushed a batch of coalesced wire messages to
    /// the network as one transmission. Logical `Send` events were already
    /// emitted when each constituent message was enqueued; this event
    /// accounts for the wire-level transmission that carried them.
    BatchFlushed "batch" {
        /// Virtual flush time.
        at: SimTime,
        /// Sender.
        from: SiteId,
        /// Receiver.
        to: SiteId,
        /// Number of logical messages coalesced into the batch.
        msgs: u64,
        /// Wire size of the whole batch in bytes (header + payloads).
        bytes: u64,
    }
    /// A client submitted a transaction at its origin site.
    Submit "submit" {
        /// Virtual submission time.
        at: SimTime,
        /// The transaction (its origin is the submitting site).
        txn: TxnRef,
        /// True for read-only transactions.
        read_only "ro": bool,
    }
    /// The transaction finished its origin-side read phase (all read
    /// locks held, versions observed).
    LocksAcquired "locks" {
        /// Virtual time the last read lock was granted.
        at: SimTime,
        /// The transaction.
        txn: TxnRef,
    }
    /// The origin handed the transaction's commit request — the final leg
    /// of its write dissemination — to the network. Marks the boundary
    /// between the dissemination segment and the ordering/vote wait.
    CommitReqOut "commit_req" {
        /// Virtual time the commit request was sent.
        at: SimTime,
        /// The transaction (emitted at its origin only).
        txn: TxnRef,
    }
    /// A site fixed its verdict on a transaction: an explicit 2PC vote,
    /// a causal NACK (`yes = false`), or a certification outcome.
    Vote "vote" {
        /// Virtual time of the verdict.
        at: SimTime,
        /// The judging site.
        site: SiteId,
        /// The judged transaction.
        txn: TxnRef,
        /// `true` = ready to commit.
        yes: bool,
    }
    /// A site fixed a transaction's outcome separately from applying it —
    /// the causal protocol's decision point, reached when its implicit
    /// acknowledgement set completes (the commit may still queue for
    /// locks). Protocols whose decision *is* the application emit only
    /// [`TraceEvent::Commit`] / [`TraceEvent::Abort`].
    Decided "decided" {
        /// Virtual time the outcome became known at this site.
        at: SimTime,
        /// The deciding site.
        site: SiteId,
        /// The decided transaction.
        txn: TxnRef,
        /// `true` = will commit.
        commit: bool,
    }
    /// A site applied the transaction's commit.
    Commit "commit" {
        /// Virtual commit time at this site.
        at: SimTime,
        /// The applying site.
        site: SiteId,
        /// The committed transaction.
        txn: TxnRef,
    }
    /// A site recorded the transaction's abort.
    Abort "abort" {
        /// Virtual abort time at this site.
        at: SimTime,
        /// The recording site.
        site: SiteId,
        /// The aborted transaction.
        txn: TxnRef,
        /// Stable abort-reason counter name (e.g. `abort_wounded`), borrowed when emitted.
        reason: Cow<'static, str>,
    }
    /// The atomic broadcast delivered a commit request in the agreed
    /// total order at this site.
    TotalOrder "total_order" {
        /// Virtual delivery time.
        at: SimTime,
        /// The delivering site.
        site: SiteId,
        /// The ordered transaction.
        txn: TxnRef,
        /// Position in the agreed total order.
        gseq: u64,
    }
    /// The membership service installed a new view at this site.
    ViewChange "view" {
        /// Virtual installation time.
        at: SimTime,
        /// The installing site.
        site: SiteId,
        /// The new view's members.
        members: Vec<SiteId>,
    }
    /// A site crash was injected.
    Crash "crash" {
        /// Virtual crash time.
        at: SimTime,
        /// The crashed site.
        site: SiteId,
    }
    /// This site's failure detector started suspecting a view member
    /// (silent past the suspicion timeout). Arms the speculative
    /// fast-commit path: votes from suspects are no longer awaited.
    Suspect "suspect" {
        /// Virtual time the suspicion was raised.
        at: SimTime,
        /// The suspecting site.
        site: SiteId,
        /// The suspected (silent) member.
        suspect: SiteId,
    }
    /// A site decided a transaction speculatively, from a surviving
    /// quorum's votes, without waiting for suspected members. Always
    /// followed by the matching [`TraceEvent::Decided`] /
    /// [`TraceEvent::Commit`] / [`TraceEvent::Abort`].
    FastDecide "fast_decide" {
        /// Virtual time of the speculative decision.
        at: SimTime,
        /// The deciding site.
        site: SiteId,
        /// The decided transaction.
        txn: TxnRef,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    pub(super) fn txn(origin: usize, num: u64) -> TxnRef {
        TxnRef {
            origin: SiteId(origin),
            num,
        }
    }

    pub(super) fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Submit {
                at: t(1),
                txn: txn(0, 1),
                read_only: false,
            },
            TraceEvent::LocksAcquired {
                at: t(2),
                txn: txn(0, 1),
            },
            TraceEvent::CommitReqOut {
                at: t(2),
                txn: txn(0, 1),
            },
            TraceEvent::Send {
                at: t(3),
                from: SiteId(0),
                to: SiteId(1),
                phase: Phase::Prepare,
            },
            TraceEvent::Deliver {
                at: t(4),
                from: SiteId(0),
                to: SiteId(1),
                phase: Phase::Prepare,
            },
            TraceEvent::Vote {
                at: t(5),
                site: SiteId(1),
                txn: txn(0, 1),
                yes: true,
            },
            TraceEvent::TotalOrder {
                at: t(6),
                site: SiteId(0),
                txn: txn(0, 1),
                gseq: 1,
            },
            TraceEvent::Decided {
                at: t(6),
                site: SiteId(1),
                txn: txn(0, 1),
                commit: true,
            },
            TraceEvent::Commit {
                at: t(7),
                site: SiteId(0),
                txn: txn(0, 1),
            },
            TraceEvent::Commit {
                at: t(7),
                site: SiteId(1),
                txn: txn(0, 1),
            },
        ]
    }

    #[test]
    fn phase_counts_sum() {
        let mut pc = PhaseCounts::default();
        pc.add(Phase::Prepare, 5);
        pc.add(Phase::Vote, 2);
        pc.add(Phase::Membership, 1);
        assert_eq!(pc.get(Phase::Prepare), 5);
        assert_eq!(pc.get(Phase::Ack), 0);
        assert_eq!(pc.total(), 8);
        assert_eq!(
            format!("{pc:?}"),
            "PhaseCounts { prepare: 5, vote: 2, ack: 0, decision: 0, retransmit: 0, membership: 1 }"
        );
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("bogus"), None);
    }
}
