//! Per-transaction span reconstruction: folds an ordered [`TraceEvent`]
//! stream into one [`TxnSpan`] timeline per transaction and decomposes
//! each committed update's latency into named [`Segment`]s.
//!
//! The decomposition is *exact by construction*: milestones are clamped
//! into the `[submit, commit]` interval in chain order, so the segment
//! durations telescope and always sum to precisely the end-to-end latency
//! the metrics layer records at the origin (`commit − submit`, in
//! microseconds of virtual time). That identity is what lets the paper's
//! "where does commit latency go" comparison be audited instead of
//! eyeballed: every microsecond is attributed to exactly one segment.
//!
//! # Segment boundaries
//!
//! | segment       | from                    | to                          |
//! |---------------|-------------------------|-----------------------------|
//! | `read`        | `Submit`                | `LocksAcquired` at origin   |
//! | `disseminate` | `LocksAcquired`         | `CommitReqOut` at origin    |
//! | `order_wait`  | `CommitReqOut`          | `TotalOrder` at origin, or the first `Vote` |
//! | `votes`       | order point             | last `Vote` at or before the origin commit, or the origin's `Decided` |
//! | `decide`      | quorum point            | `Commit` at origin          |
//!
//! Milestones a protocol never produces collapse to zero-width segments:
//! the point-to-point baseline's per-operation ack round trips all land in
//! `disseminate`, the reliable protocol's cost sits in `votes`/`decide`,
//! the causal protocol's implicit-acknowledgement wait shows up as
//! `votes` (closed by its origin-side `Decided` milestone), and the
//! atomic protocol's total-order latency (sequencer or ring) is `order_wait`.

use crate::telemetry::{TraceEvent, TraceSink, TxnRef};
use crate::{SimDuration, SimTime, SiteId};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A named slice of a committed update transaction's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Segment {
    /// Origin-side read phase: submission until all read locks are held.
    Read,
    /// Write dissemination: read locks held until the commit request (the
    /// final leg of the write broadcast) is handed to the network.
    Disseminate,
    /// Ordering/broadcast wait: commit request out until the origin's
    /// total-order delivery (atomic protocol) or the first vote.
    OrderWait,
    /// Vote collection: ordering point until the last vote the origin's
    /// decision could have depended on (for the causal protocol's implicit
    /// acknowledgements, until the origin's `Decided` milestone).
    Votes,
    /// Decision propagation and application at the origin.
    Decide,
}

impl Segment {
    /// All segments, in timeline order.
    pub const ALL: [Segment; 5] = [
        Segment::Read,
        Segment::Disseminate,
        Segment::OrderWait,
        Segment::Votes,
        Segment::Decide,
    ];

    /// Short stable name used in CSV columns and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Segment::Read => "read",
            Segment::Disseminate => "disseminate",
            Segment::OrderWait => "order_wait",
            Segment::Votes => "votes",
            Segment::Decide => "decide",
        }
    }

    /// One-letter tag for ASCII timeline bars.
    pub fn letter(self) -> char {
        match self {
            Segment::Read => 'R',
            Segment::Disseminate => 'D',
            Segment::OrderWait => 'O',
            Segment::Votes => 'V',
            Segment::Decide => 'C',
        }
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-segment latency decomposition of one committed transaction.
///
/// [`SegmentBreakdown::total`] equals the end-to-end commit latency
/// exactly — see the module docs for why.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentBreakdown {
    /// Time in [`Segment::Read`].
    pub read: SimDuration,
    /// Time in [`Segment::Disseminate`].
    pub disseminate: SimDuration,
    /// Time in [`Segment::OrderWait`].
    pub order_wait: SimDuration,
    /// Time in [`Segment::Votes`].
    pub votes: SimDuration,
    /// Time in [`Segment::Decide`].
    pub decide: SimDuration,
    /// How many raw milestones had to be clamped into `[predecessor, end]`
    /// to make the telescoping sum exact — i.e. were recorded
    /// *non-monotonically* relative to the canonical milestone order.
    /// Zero for a well-ordered execution; a nonzero count flags spans
    /// whose decomposition absorbed out-of-order timestamps rather than
    /// hiding them.
    pub clamped: u32,
}

impl SegmentBreakdown {
    /// The duration of one segment.
    pub fn get(&self, seg: Segment) -> SimDuration {
        match seg {
            Segment::Read => self.read,
            Segment::Disseminate => self.disseminate,
            Segment::OrderWait => self.order_wait,
            Segment::Votes => self.votes,
            Segment::Decide => self.decide,
        }
    }

    /// Sum over all segments — exactly the end-to-end commit latency.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_micros(Segment::ALL.iter().map(|&s| self.get(s).as_micros()).sum())
    }

    /// The largest segment (ties go to the earlier one) — the critical
    /// path's dominant cost.
    pub fn dominant(&self) -> Segment {
        let mut best = Segment::Read;
        for s in Segment::ALL {
            if self.get(s) > self.get(best) {
                best = s;
            }
        }
        best
    }
}

/// One site's recorded verdict on a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteRecord {
    /// The judging site.
    pub site: SiteId,
    /// When the verdict was fixed.
    pub at: SimTime,
    /// `true` = ready to commit.
    pub yes: bool,
}

/// The fate of a transaction as recorded at its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Committed at the origin at this time.
    Committed {
        /// Origin-side commit time.
        at: SimTime,
    },
    /// Aborted at the origin.
    Aborted {
        /// Origin-side abort time.
        at: SimTime,
        /// Stable abort-reason counter name.
        reason: Cow<'static, str>,
    },
}

/// The reconstructed timeline of one transaction across all sites.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnSpan {
    /// The transaction.
    pub txn: TxnRef,
    /// True for read-only transactions (commit at the origin, no
    /// dissemination — their whole latency is the `read` segment).
    pub read_only: bool,
    /// Submission time at the origin.
    pub submit: Option<SimTime>,
    /// Origin read phase completed (all read locks held).
    pub locks: Option<SimTime>,
    /// Commit request handed to the network at the origin.
    pub commit_req_out: Option<SimTime>,
    /// Per-site total-order delivery `(time, gseq)` (atomic protocol).
    pub total_order: BTreeMap<SiteId, (SimTime, u64)>,
    /// Votes in arrival order (a site may appear once per verdict).
    pub votes: Vec<VoteRecord>,
    /// Sites that learned the outcome before they could apply it.
    pub decided: BTreeMap<SiteId, (SimTime, bool)>,
    /// Per-site commit application times (the basis for commit skew).
    pub commits: BTreeMap<SiteId, SimTime>,
    /// The origin-side termination, once known.
    pub outcome: Option<SpanOutcome>,
}

impl TxnSpan {
    fn new(txn: TxnRef) -> Self {
        TxnSpan {
            txn,
            read_only: false,
            submit: None,
            locks: None,
            commit_req_out: None,
            total_order: BTreeMap::new(),
            votes: Vec::new(),
            decided: BTreeMap::new(),
            commits: BTreeMap::new(),
            outcome: None,
        }
    }

    /// True iff the transaction committed at its origin.
    pub fn committed(&self) -> bool {
        matches!(self.outcome, Some(SpanOutcome::Committed { .. }))
    }

    /// Origin-side termination time, once known.
    pub fn end(&self) -> Option<SimTime> {
        match self.outcome {
            Some(SpanOutcome::Committed { at }) => Some(at),
            Some(SpanOutcome::Aborted { at, .. }) => Some(at),
            None => None,
        }
    }

    /// End-to-end latency (submission → origin termination).
    pub fn latency(&self) -> Option<SimDuration> {
        Some(self.end()?.saturating_since(self.submit?))
    }

    /// Commit skew: latest minus earliest commit application across sites
    /// (`None` until at least one site committed).
    pub fn commit_skew(&self) -> Option<SimDuration> {
        let first = self.commits.values().min()?;
        let last = self.commits.values().max()?;
        Some(last.saturating_since(*first))
    }

    /// Decomposes a *committed* transaction's latency into segments that
    /// sum exactly to [`TxnSpan::latency`]. Returns `None` for aborted or
    /// still-pending transactions, or when the submission was never
    /// traced.
    ///
    /// Missing milestones inherit their predecessor (zero-width segment);
    /// milestones recorded outside `[submit, commit]` — e.g. a straggler
    /// site's vote arriving after the origin already decided — are clamped
    /// into it, which is what makes the telescoping sum exact. Each clamp
    /// that actually moved a raw milestone is counted in
    /// [`SegmentBreakdown::clamped`], so non-monotonic executions are
    /// flagged rather than silently absorbed.
    pub fn decompose(&self) -> Option<SegmentBreakdown> {
        let submit = self.submit?;
        let Some(SpanOutcome::Committed { at: end }) = self.outcome else {
            return None;
        };
        let order_raw = self
            .total_order
            .get(&self.txn.origin)
            .map(|&(at, _)| at)
            .or_else(|| self.votes.iter().map(|v| v.at).min());
        let votes_done_raw = self
            .votes
            .iter()
            .filter(|v| v.at <= end)
            .map(|v| v.at)
            .max()
            .or_else(|| self.decided.get(&self.txn.origin).map(|&(at, _)| at));
        let mut clamped = 0u32;
        let mut clamp = |raw: Option<SimTime>, prev: SimTime| match raw {
            Some(t) => {
                let c = t.max(prev).min(end);
                if c != t {
                    clamped += 1;
                }
                c
            }
            None => prev,
        };
        let m0 = submit.min(end);
        let m1 = clamp(self.locks, m0);
        let m2 = clamp(self.commit_req_out, m1);
        let m3 = clamp(order_raw, m2);
        let m4 = clamp(votes_done_raw, m3);
        Some(SegmentBreakdown {
            read: m1.saturating_since(m0),
            disseminate: m2.saturating_since(m1),
            order_wait: m3.saturating_since(m2),
            votes: m4.saturating_since(m3),
            decide: end.saturating_since(m4),
            clamped,
        })
    }
}

/// A [`TraceSink`] that folds lifecycle events into per-transaction
/// [`TxnSpan`]s. Message events (`Send`/`Deliver`/`Drop`) are ignored, so
/// memory is bounded by the number of transactions, not events — spans
/// survive runs whose trace overflows any ring buffer.
#[derive(Debug, Default)]
pub struct SpanBuilder {
    spans: BTreeMap<TxnRef, TxnSpan>,
}

impl SpanBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn span(&mut self, txn: &TxnRef) -> &mut TxnSpan {
        self.spans.entry(*txn).or_insert_with(|| TxnSpan::new(*txn))
    }

    /// Ingests one event (in trace order).
    pub fn ingest(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Submit { at, txn, read_only } => {
                let s = self.span(txn);
                s.read_only = *read_only;
                s.submit.get_or_insert(*at);
            }
            TraceEvent::LocksAcquired { at, txn } => {
                self.span(txn).locks.get_or_insert(*at);
            }
            TraceEvent::CommitReqOut { at, txn } => {
                self.span(txn).commit_req_out.get_or_insert(*at);
            }
            TraceEvent::Vote { at, site, txn, yes } => {
                self.span(txn).votes.push(VoteRecord {
                    site: *site,
                    at: *at,
                    yes: *yes,
                });
            }
            TraceEvent::Decided {
                at,
                site,
                txn,
                commit,
            } => {
                self.span(txn)
                    .decided
                    .entry(*site)
                    .or_insert((*at, *commit));
            }
            TraceEvent::TotalOrder {
                at,
                site,
                txn,
                gseq,
            } => {
                self.span(txn)
                    .total_order
                    .entry(*site)
                    .or_insert((*at, *gseq));
            }
            TraceEvent::Commit { at, site, txn } => {
                let s = self.span(txn);
                s.commits.entry(*site).or_insert(*at);
                if *site == txn.origin && s.outcome.is_none() {
                    s.outcome = Some(SpanOutcome::Committed { at: *at });
                }
            }
            TraceEvent::Abort {
                at,
                site,
                txn,
                reason,
            } => {
                let s = self.span(txn);
                if *site == txn.origin && s.outcome.is_none() {
                    s.outcome = Some(SpanOutcome::Aborted {
                        at: *at,
                        reason: reason.clone(),
                    });
                }
            }
            TraceEvent::Send { .. }
            | TraceEvent::Deliver { .. }
            | TraceEvent::Drop { .. }
            | TraceEvent::BatchFlushed { .. }
            | TraceEvent::ViewChange { .. }
            | TraceEvent::Crash { .. } => {}
        }
    }

    /// The reconstructed spans, keyed by transaction.
    pub fn spans(&self) -> &BTreeMap<TxnRef, TxnSpan> {
        &self.spans
    }

    /// Consumes the builder, yielding the spans.
    pub fn into_spans(self) -> BTreeMap<TxnRef, TxnSpan> {
        self.spans
    }

    /// The span of one transaction, if any of its events were seen.
    pub fn get(&self, txn: TxnRef) -> Option<&TxnSpan> {
        self.spans.get(&txn)
    }

    /// Number of transactions observed.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True iff no transactions were observed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl TraceSink for SpanBuilder {
    fn record(&mut self, ev: TraceEvent) {
        self.ingest(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn txn(origin: usize, num: u64) -> TxnRef {
        TxnRef {
            origin: SiteId(origin),
            num,
        }
    }

    /// A committed update with every milestone present.
    fn full_run() -> SpanBuilder {
        let tx = txn(0, 1);
        let mut b = SpanBuilder::new();
        for ev in [
            TraceEvent::Submit {
                at: t(100),
                txn: tx,
                read_only: false,
            },
            TraceEvent::LocksAcquired {
                at: t(150),
                txn: tx,
            },
            TraceEvent::CommitReqOut {
                at: t(230),
                txn: tx,
            },
            TraceEvent::TotalOrder {
                at: t(400),
                site: SiteId(0),
                txn: tx,
                gseq: 1,
            },
            TraceEvent::Vote {
                at: t(400),
                site: SiteId(0),
                txn: tx,
                yes: true,
            },
            TraceEvent::Vote {
                at: t(520),
                site: SiteId(1),
                txn: tx,
                yes: true,
            },
            TraceEvent::Commit {
                at: t(600),
                site: SiteId(0),
                txn: tx,
            },
            TraceEvent::Commit {
                at: t(640),
                site: SiteId(1),
                txn: tx,
            },
        ] {
            b.ingest(&ev);
        }
        b
    }

    #[test]
    fn full_span_decomposes_exactly() {
        let b = full_run();
        let s = b.get(txn(0, 1)).expect("span");
        assert!(s.committed());
        assert_eq!(s.latency(), Some(SimDuration::from_micros(500)));
        let d = s.decompose().expect("committed");
        assert_eq!(d.read.as_micros(), 50);
        assert_eq!(d.disseminate.as_micros(), 80);
        assert_eq!(d.order_wait.as_micros(), 170);
        assert_eq!(d.votes.as_micros(), 120);
        assert_eq!(d.decide.as_micros(), 80);
        assert_eq!(d.total(), s.latency().unwrap());
        assert_eq!(d.dominant(), Segment::OrderWait);
        assert_eq!(s.commit_skew(), Some(SimDuration::from_micros(40)));
    }

    #[test]
    fn missing_milestones_collapse_to_zero_width() {
        // Point-to-point shape: no ordering point, no commit request trace.
        let tx = txn(1, 7);
        let mut b = SpanBuilder::new();
        b.ingest(&TraceEvent::Submit {
            at: t(10),
            txn: tx,
            read_only: false,
        });
        b.ingest(&TraceEvent::Commit {
            at: t(90),
            site: SiteId(1),
            txn: tx,
        });
        let d = b.get(tx).unwrap().decompose().expect("committed");
        assert_eq!(d.total().as_micros(), 80);
        assert_eq!(d.read.as_micros(), 0, "no locks milestone");
        assert_eq!(d.decide.as_micros(), 80, "everything lands in the tail");
    }

    #[test]
    fn straggler_votes_are_clamped_not_counted() {
        // A vote after the origin already committed (atomic protocol's
        // remote certifications) must not push milestones past the end.
        let tx = txn(0, 2);
        let mut b = SpanBuilder::new();
        b.ingest(&TraceEvent::Submit {
            at: t(0),
            txn: tx,
            read_only: false,
        });
        b.ingest(&TraceEvent::Vote {
            at: t(40),
            site: SiteId(0),
            txn: tx,
            yes: true,
        });
        b.ingest(&TraceEvent::Commit {
            at: t(50),
            site: SiteId(0),
            txn: tx,
        });
        b.ingest(&TraceEvent::Vote {
            at: t(500),
            site: SiteId(2),
            txn: tx,
            yes: true,
        });
        let d = b.get(tx).unwrap().decompose().unwrap();
        assert_eq!(d.total().as_micros(), 50, "sum still exact");
        assert_eq!(d.votes.as_micros(), 0, "straggler vote excluded");
        assert_eq!(d.decide.as_micros(), 10);
        assert_eq!(d.clamped, 0, "excluded straggler is not a clamp");
    }

    #[test]
    fn non_monotonic_milestones_are_counted_not_hidden() {
        // Locks recorded *after* the commit request went out (a reordered
        // trace, or a bug in the instrumented engine): the decomposition
        // clamps the milestone so segments still telescope, and reports
        // exactly how many raw milestones it had to move.
        let tx = txn(1, 1);
        let mut b = SpanBuilder::new();
        b.ingest(&TraceEvent::Submit {
            at: t(0),
            txn: tx,
            read_only: false,
        });
        b.ingest(&TraceEvent::CommitReqOut { at: t(10), txn: tx });
        b.ingest(&TraceEvent::LocksAcquired { at: t(30), txn: tx });
        b.ingest(&TraceEvent::Vote {
            at: t(40),
            site: SiteId(0),
            txn: tx,
            yes: true,
        });
        b.ingest(&TraceEvent::Commit {
            at: t(50),
            site: SiteId(1),
            txn: tx,
        });
        let d = b.get(tx).unwrap().decompose().unwrap();
        assert_eq!(d.total().as_micros(), 50, "clamping keeps the sum exact");
        // locks@30 lands after commit_req_out@10 in milestone order, so
        // commit_req_out@10 is clamped up to 30.
        assert_eq!(d.clamped, 1, "one raw milestone was non-monotonic");

        // A well-ordered run reports zero.
        let tx2 = txn(1, 2);
        b.ingest(&TraceEvent::Submit {
            at: t(0),
            txn: tx2,
            read_only: false,
        });
        b.ingest(&TraceEvent::LocksAcquired { at: t(5), txn: tx2 });
        b.ingest(&TraceEvent::CommitReqOut {
            at: t(10),
            txn: tx2,
        });
        b.ingest(&TraceEvent::Commit {
            at: t(20),
            site: SiteId(1),
            txn: tx2,
        });
        let d2 = b.get(tx2).unwrap().decompose().unwrap();
        assert_eq!(d2.clamped, 0);
    }

    #[test]
    fn aborted_and_pending_spans_do_not_decompose() {
        let tx = txn(0, 3);
        let mut b = SpanBuilder::new();
        b.ingest(&TraceEvent::Submit {
            at: t(0),
            txn: tx,
            read_only: false,
        });
        assert_eq!(b.get(tx).unwrap().decompose(), None, "pending");
        b.ingest(&TraceEvent::Abort {
            at: t(9),
            site: SiteId(0),
            txn: tx,
            reason: "abort_wounded".into(),
        });
        let s = b.get(tx).unwrap();
        assert_eq!(s.decompose(), None, "aborted");
        assert_eq!(s.end(), Some(t(9)));
        assert_eq!(s.latency(), Some(SimDuration::from_micros(9)));
    }

    #[test]
    fn read_only_span_is_all_read_segment() {
        let tx = txn(2, 1);
        let mut b = SpanBuilder::new();
        b.ingest(&TraceEvent::Submit {
            at: t(5),
            txn: tx,
            read_only: true,
        });
        b.ingest(&TraceEvent::LocksAcquired { at: t(35), txn: tx });
        b.ingest(&TraceEvent::Commit {
            at: t(35),
            site: SiteId(2),
            txn: tx,
        });
        let s = b.get(tx).unwrap();
        assert!(s.read_only);
        let d = s.decompose().unwrap();
        assert_eq!(d.read.as_micros(), 30);
        assert_eq!(d.total().as_micros(), 30);
    }

    #[test]
    fn implicit_ack_wait_lands_in_votes_segment() {
        // Causal-protocol shape: no explicit votes; the origin's Decided
        // milestone (implicit acks satisfied) closes the votes segment.
        let tx = txn(1, 3);
        let mut b = SpanBuilder::new();
        b.ingest(&TraceEvent::Submit {
            at: t(0),
            txn: tx,
            read_only: false,
        });
        b.ingest(&TraceEvent::LocksAcquired { at: t(10), txn: tx });
        b.ingest(&TraceEvent::CommitReqOut { at: t(30), txn: tx });
        b.ingest(&TraceEvent::Decided {
            at: t(200),
            site: SiteId(1),
            txn: tx,
            commit: true,
        });
        b.ingest(&TraceEvent::Commit {
            at: t(240),
            site: SiteId(1),
            txn: tx,
        });
        let d = b.get(tx).unwrap().decompose().unwrap();
        assert_eq!(d.votes.as_micros(), 170, "implicit-ack wait");
        assert_eq!(d.decide.as_micros(), 40);
        assert_eq!(d.total().as_micros(), 240);
        assert_eq!(d.dominant(), Segment::Votes);
    }

    #[test]
    fn early_decision_is_recorded() {
        let tx = txn(0, 4);
        let mut b = SpanBuilder::new();
        b.ingest(&TraceEvent::Submit {
            at: t(0),
            txn: tx,
            read_only: false,
        });
        b.ingest(&TraceEvent::Decided {
            at: t(20),
            site: SiteId(1),
            txn: tx,
            commit: true,
        });
        let s = b.get(tx).unwrap();
        assert_eq!(s.decided.get(&SiteId(1)), Some(&(t(20), true)));
    }
}
