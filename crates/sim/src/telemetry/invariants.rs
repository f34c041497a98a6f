//! The streaming trace-invariant checker: [`TraceInvariants`], the
//! [`TraceViolation`]s it reports, and the [`check_trace`] convenience.

use super::{Phase, TraceEvent, TraceSink, TxnRef};
use crate::SiteId;
use std::collections::BTreeMap;
use std::fmt;

/// A violation found by [`TraceInvariants::check`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceViolation {
    /// More deliveries than sends on a link/phase — a message was
    /// delivered that was never sent.
    UnsentDelivery {
        /// Sender of the offending link.
        from: SiteId,
        /// Receiver of the offending link.
        to: SiteId,
        /// Phase bucket in which the mismatch occurred.
        phase: Phase,
        /// Deliveries observed.
        delivered: u64,
        /// Sends observed.
        sent: u64,
    },
    /// A transaction terminated more than once at its origin.
    DoubleTermination {
        /// The offending transaction.
        txn: TxnRef,
        /// Origin-side terminations observed.
        times: u32,
    },
    /// A submitted transaction never terminated at its origin (only
    /// reported when no crash was injected).
    MissingTermination {
        /// The unterminated transaction.
        txn: TxnRef,
    },
    /// A transaction terminated at its origin without ever being
    /// submitted.
    PhantomTermination {
        /// The phantom transaction.
        txn: TxnRef,
    },
    /// A site committed totally-ordered transactions out of their agreed
    /// order.
    CommitOrderViolation {
        /// The offending site.
        site: SiteId,
        /// The transaction committed out of order.
        txn: TxnRef,
        /// Its agreed position.
        gseq: u64,
        /// The larger position already committed at that site.
        after_gseq: u64,
    },
}

impl fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceViolation::UnsentDelivery {
                from,
                to,
                phase,
                delivered,
                sent,
            } => write!(
                f,
                "link {from}->{to} phase {phase}: {delivered} deliveries but only {sent} sends"
            ),
            TraceViolation::DoubleTermination { txn, times } => {
                write!(
                    f,
                    "transaction {txn} terminated {times} times at its origin"
                )
            }
            TraceViolation::MissingTermination { txn } => {
                write!(f, "transaction {txn} was submitted but never terminated")
            }
            TraceViolation::PhantomTermination { txn } => {
                write!(f, "transaction {txn} terminated but was never submitted")
            }
            TraceViolation::CommitOrderViolation {
                site,
                txn,
                gseq,
                after_gseq,
            } => write!(
                f,
                "site {site} committed {txn} (gseq {gseq}) after gseq {after_gseq}"
            ),
        }
    }
}

impl std::error::Error for TraceViolation {}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TxnLife {
    submitted: bool,
    terminations: u32,
}

/// Dense per-(sender, receiver, phase) counters.
///
/// The checker bumps one counter on *every* traced `Send` and `Deliver`,
/// which makes this the hottest data structure in the tracing pipeline. A
/// `BTreeMap<(SiteId, SiteId, Phase), u64>` pays a tree walk per message;
/// this table pays one multiply and one add. The table is square in the
/// largest site id seen (sites × sites × phases `u64`s — a few KiB for any
/// realistic cluster) and grows by re-indexing when a larger id appears.
#[derive(Debug, Default)]
struct LinkPhaseCounts {
    /// Sites per side; `counts.len() == stride * stride * NPHASES`.
    stride: usize,
    counts: Vec<u64>,
}

const NPHASES: usize = Phase::ALL.len();

impl LinkPhaseCounts {
    fn slot(&self, from: SiteId, to: SiteId, phase: Phase) -> usize {
        (from.0 * self.stride + to.0) * NPHASES + phase.index()
    }

    fn bump(&mut self, from: SiteId, to: SiteId, phase: Phase) {
        let needed = from.0.max(to.0) + 1;
        if needed > self.stride {
            self.grow(needed);
        }
        let slot = self.slot(from, to, phase);
        self.counts[slot] += 1;
    }

    fn grow(&mut self, needed: usize) {
        let new_stride = needed.max(self.stride * 2).max(8);
        let mut counts = vec![0u64; new_stride * new_stride * NPHASES];
        for from in 0..self.stride {
            for to in 0..self.stride {
                for p in 0..NPHASES {
                    counts[(from * new_stride + to) * NPHASES + p] =
                        self.counts[(from * self.stride + to) * NPHASES + p];
                }
            }
        }
        self.stride = new_stride;
        self.counts = counts;
    }

    fn get(&self, from: SiteId, to: SiteId, phase: Phase) -> u64 {
        if from.0 >= self.stride || to.0 >= self.stride {
            return 0;
        }
        self.counts[self.slot(from, to, phase)]
    }

    /// Nonzero entries in `(from, to, phase)` lexicographic order — the
    /// same order the former `BTreeMap` iterated in, so the *first*
    /// violation reported by the checker is unchanged.
    fn iter_nonzero(&self) -> impl Iterator<Item = ((SiteId, SiteId, Phase), u64)> + '_ {
        (0..self.stride).flat_map(move |from| {
            (0..self.stride).flat_map(move |to| {
                Phase::ALL.iter().filter_map(move |&phase| {
                    let n = self.counts[(from * self.stride + to) * NPHASES + phase.index()];
                    (n > 0).then_some(((SiteId(from), SiteId(to), phase), n))
                })
            })
        })
    }
}

/// Streaming trace-invariant checker.
///
/// Feed it events (it is itself a [`TraceSink`], so it can sit directly
/// behind a [`Tracer`](super::Tracer)) and call [`TraceInvariants::check`] at the end.
/// It verifies:
///
/// 1. **Delivered ⊆ sent** — per (sender, receiver, phase), no more
///    deliveries than sends.
/// 2. **Exactly-once termination** — every submitted transaction commits
///    or aborts exactly once at its origin (relaxed to *at most once*
///    when a crash was injected, since a crashed origin loses its
///    in-flight transactions), and nothing terminates without having
///    been submitted.
/// 3. **Commit order respects total order** — at every site, commits of
///    totally-ordered transactions happen in increasing `gseq` order.
///
/// Memory is bounded by the number of links and transactions, not the
/// number of events, so benchmarks can run it over arbitrarily long
/// executions.
#[derive(Debug, Default)]
pub struct TraceInvariants {
    sends: LinkPhaseCounts,
    delivers: LinkPhaseCounts,
    txns: BTreeMap<TxnRef, TxnLife>,
    gseq: BTreeMap<(SiteId, TxnRef), u64>,
    last_gseq_committed: BTreeMap<SiteId, (u64, TxnRef)>,
    crashed: bool,
    events: u64,
    first_violation: Option<TraceViolation>,
}

impl TraceInvariants {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events ingested.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Ingests one event.
    pub fn ingest(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match ev {
            TraceEvent::Send {
                from, to, phase, ..
            } => {
                self.sends.bump(*from, *to, *phase);
            }
            TraceEvent::Deliver {
                from, to, phase, ..
            } => {
                self.delivers.bump(*from, *to, *phase);
            }
            // Wire-level bookkeeping: the logical Send/Deliver events carry
            // the per-link accounting, so batch flushes need no tracking.
            TraceEvent::Drop { .. } | TraceEvent::BatchFlushed { .. } => {}
            TraceEvent::Submit { txn, .. } => {
                self.txns.entry(*txn).or_default().submitted = true;
            }
            TraceEvent::LocksAcquired { .. }
            | TraceEvent::CommitReqOut { .. }
            | TraceEvent::Vote { .. }
            | TraceEvent::Decided { .. } => {}
            TraceEvent::Commit { site, txn, .. } => {
                if *site == txn.origin {
                    self.txns.entry(*txn).or_default().terminations += 1;
                }
                if let Some(&g) = self.gseq.get(&(*site, *txn)) {
                    if let Some(&(last, last_txn)) = self.last_gseq_committed.get(site) {
                        // A duplicate commit of the same transaction is a
                        // termination bug, not an ordering one — leave it to
                        // the exactly-once check.
                        let out_of_order = g < last || (g == last && *txn != last_txn);
                        if out_of_order && self.first_violation.is_none() {
                            self.first_violation = Some(TraceViolation::CommitOrderViolation {
                                site: *site,
                                txn: *txn,
                                gseq: g,
                                after_gseq: last,
                            });
                        }
                    }
                    let entry = self.last_gseq_committed.entry(*site).or_insert((g, *txn));
                    if g >= entry.0 {
                        *entry = (g, *txn);
                    }
                }
            }
            TraceEvent::Abort { site, txn, .. } => {
                if *site == txn.origin {
                    self.txns.entry(*txn).or_default().terminations += 1;
                }
            }
            TraceEvent::TotalOrder {
                site, txn, gseq, ..
            } => {
                self.gseq.insert((*site, *txn), *gseq);
            }
            TraceEvent::ViewChange { .. } => {}
            TraceEvent::Crash { .. } => self.crashed = true,
            // Failure-detector bookkeeping: suspicion and speculative
            // decisions have no cross-event invariant of their own — the
            // Commit/Abort events a fast decision produces are checked
            // like any other termination.
            TraceEvent::Suspect { .. } | TraceEvent::FastDecide { .. } => {}
        }
    }

    /// Checks every invariant over the events ingested so far.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn check(&self) -> Result<(), TraceViolation> {
        self.check_inner(false)
    }

    /// Like [`TraceInvariants::check`], but tolerates submitted
    /// transactions that never terminated. For executions that
    /// *deliberately* end with transactions in flight — e.g. measuring the
    /// causal protocol's implicit-acknowledgement starvation with
    /// keep-alives disabled, where wedged commits are the phenomenon under
    /// study. Every other invariant still applies.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn check_allowing_pending(&self) -> Result<(), TraceViolation> {
        self.check_inner(true)
    }

    fn check_inner(&self, allow_pending: bool) -> Result<(), TraceViolation> {
        if let Some(v) = &self.first_violation {
            return Err(v.clone());
        }
        for ((from, to, phase), delivered) in self.delivers.iter_nonzero() {
            let sent = self.sends.get(from, to, phase);
            if delivered > sent {
                return Err(TraceViolation::UnsentDelivery {
                    from,
                    to,
                    phase,
                    delivered,
                    sent,
                });
            }
        }
        for (&txn, life) in &self.txns {
            if life.terminations > 1 {
                return Err(TraceViolation::DoubleTermination {
                    txn,
                    times: life.terminations,
                });
            }
            if life.terminations == 1 && !life.submitted {
                return Err(TraceViolation::PhantomTermination { txn });
            }
            if life.submitted && life.terminations == 0 && !self.crashed && !allow_pending {
                return Err(TraceViolation::MissingTermination { txn });
            }
        }
        Ok(())
    }
}

impl TraceSink for TraceInvariants {
    fn record(&mut self, ev: TraceEvent) {
        self.ingest(&ev);
    }
}

/// Checks the trace invariants over a slice of events (convenience
/// wrapper around [`TraceInvariants`]).
///
/// # Errors
/// Returns the first violation found.
pub fn check_trace(events: &[TraceEvent]) -> Result<(), TraceViolation> {
    let mut inv = TraceInvariants::new();
    for ev in events {
        inv.ingest(ev);
    }
    inv.check()
}

#[cfg(test)]
mod tests {
    use super::super::tests::{sample_events, t, txn};
    use super::*;

    #[test]
    fn clean_trace_passes_the_checker() {
        check_trace(&sample_events()).expect("clean trace");
    }

    #[test]
    fn unsent_delivery_is_rejected() {
        let mut evs = sample_events();
        evs.retain(|e| !matches!(e, TraceEvent::Send { .. }));
        let err = check_trace(&evs).unwrap_err();
        assert!(
            matches!(err, TraceViolation::UnsentDelivery { .. }),
            "{err}"
        );
    }

    #[test]
    fn double_termination_is_rejected() {
        let mut evs = sample_events();
        evs.push(TraceEvent::Commit {
            at: t(8),
            site: SiteId(0),
            txn: txn(0, 1),
        });
        let err = check_trace(&evs).unwrap_err();
        assert!(
            matches!(err, TraceViolation::DoubleTermination { times: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_termination_is_rejected_without_crashes() {
        let evs = vec![TraceEvent::Submit {
            at: t(1),
            txn: txn(0, 1),
            read_only: false,
        }];
        let err = check_trace(&evs).unwrap_err();
        assert!(
            matches!(err, TraceViolation::MissingTermination { .. }),
            "{err}"
        );
    }

    #[test]
    fn crash_relaxes_missing_termination() {
        let evs = vec![
            TraceEvent::Submit {
                at: t(1),
                txn: txn(0, 1),
                read_only: false,
            },
            TraceEvent::Crash {
                at: t(2),
                site: SiteId(0),
            },
        ];
        check_trace(&evs).expect("crashed origins may lose transactions");
    }

    #[test]
    fn phantom_termination_is_rejected() {
        let evs = vec![TraceEvent::Commit {
            at: t(1),
            site: SiteId(3),
            txn: txn(3, 9),
        }];
        let err = check_trace(&evs).unwrap_err();
        assert!(
            matches!(err, TraceViolation::PhantomTermination { .. }),
            "{err}"
        );
    }

    #[test]
    fn out_of_order_commit_is_rejected() {
        let evs = vec![
            TraceEvent::Submit {
                at: t(0),
                txn: txn(0, 1),
                read_only: false,
            },
            TraceEvent::Submit {
                at: t(0),
                txn: txn(1, 1),
                read_only: false,
            },
            TraceEvent::TotalOrder {
                at: t(1),
                site: SiteId(0),
                txn: txn(0, 1),
                gseq: 1,
            },
            TraceEvent::TotalOrder {
                at: t(1),
                site: SiteId(0),
                txn: txn(1, 1),
                gseq: 2,
            },
            // Site 0 commits gseq 2 before gseq 1:
            TraceEvent::Commit {
                at: t(2),
                site: SiteId(0),
                txn: txn(1, 1),
            },
            TraceEvent::Commit {
                at: t(3),
                site: SiteId(0),
                txn: txn(0, 1),
            },
            TraceEvent::Commit {
                at: t(3),
                site: SiteId(1),
                txn: txn(0, 1),
            },
            TraceEvent::Commit {
                at: t(3),
                site: SiteId(1),
                txn: txn(1, 1),
            },
        ];
        let err = check_trace(&evs).unwrap_err();
        assert!(
            matches!(
                err,
                TraceViolation::CommitOrderViolation {
                    gseq: 1,
                    after_gseq: 2,
                    ..
                }
            ),
            "{err}"
        );
    }

    /// Number of (sender, receiver, phase) triples with a nonzero count.
    fn distinct(counts: &LinkPhaseCounts) -> usize {
        counts.counts.iter().filter(|&&n| n > 0).count()
    }

    #[test]
    fn checker_memory_is_bounded_by_links_not_events() {
        let mut inv = TraceInvariants::new();
        for i in 0..100_000u64 {
            inv.ingest(&TraceEvent::Send {
                at: t(i),
                from: SiteId(0),
                to: SiteId(1),
                phase: Phase::Prepare,
            });
        }
        assert_eq!(inv.events(), 100_000);
        assert_eq!(distinct(&inv.sends), 1);
        inv.check().expect("sends alone violate nothing");
    }
}
