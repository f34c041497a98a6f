//! Latency statistics, and trace analysis over reconstructed [`TxnSpan`]s:
//! per-segment latency summaries, critical-path reports, and ASCII
//! renderings used by the `bcast-trace` CLI and the `t3_latency_breakdown`
//! experiment.

use crate::spans::{Segment, SegmentBreakdown, TxnSpan};
use crate::SimDuration;
use std::fmt::Write as _;

/// Duration samples in microseconds, in recording order, with summary
/// statistics: the commit latencies a site records (`bcastdb-core`'s
/// `Metrics`) and the segment latencies of a [`SegmentSummary`].
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<u64>,
}

impl LatencyStats {
    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_micros());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The raw samples, in recording order, in microseconds.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Arithmetic mean, truncated, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        let n = self.samples.len().max(1) as u128;
        SimDuration::from_micros((sum / n) as u64)
    }

    /// The `q`-quantile (clamped to 0.0..=1.0) by nearest rank, or zero
    /// when empty.
    fn quantile(&self, q: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let rank = ((self.samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        let mut sorted = self.samples.clone();
        SimDuration::from_micros(*sorted.select_nth_unstable(rank).1)
    }

    /// Median.
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> SimDuration {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// Appends another collection's samples.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Aggregated per-segment latency statistics over a set of committed
/// transactions. `end_to_end` and the per-segment stats draw from the same
/// spans, so `sum(segment means) == end_to_end mean` up to integer
/// truncation.
#[derive(Debug, Clone, Default)]
pub struct SegmentSummary {
    /// End-to-end commit latencies.
    pub end_to_end: LatencyStats,
    per_segment: [LatencyStats; 5],
    clamped_spans: usize,
    clamp_events: u64,
}

impl SegmentSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one committed span's breakdown in.
    pub fn add(&mut self, breakdown: &SegmentBreakdown) {
        self.end_to_end.record(breakdown.total());
        for (i, seg) in Segment::ALL.iter().enumerate() {
            self.per_segment[i].record(breakdown.get(*seg));
        }
        if breakdown.clamped > 0 {
            self.clamped_spans += 1;
            self.clamp_events += u64::from(breakdown.clamped);
        }
    }

    /// Stats for one segment.
    pub fn segment(&self, seg: Segment) -> &LatencyStats {
        let idx = Segment::ALL.iter().position(|&s| s == seg).expect("in ALL");
        &self.per_segment[idx]
    }

    /// Number of committed transactions folded in.
    pub fn count(&self) -> usize {
        self.end_to_end.count()
    }

    /// Spans whose raw milestones were non-monotonic (at least one
    /// milestone was clamped to make the decomposition telescope).
    pub fn clamped_spans(&self) -> usize {
        self.clamped_spans
    }

    /// Total clamped milestones across all folded-in spans.
    pub fn clamp_events(&self) -> u64 {
        self.clamp_events
    }
}

/// Summarizes the committed update transactions among `spans`.
/// Read-only, aborted, and still-pending spans are skipped.
pub fn summarize<'a, I>(spans: I) -> SegmentSummary
where
    I: IntoIterator<Item = &'a TxnSpan>,
{
    let mut out = SegmentSummary::new();
    for span in spans {
        if span.read_only {
            continue;
        }
        if let Some(b) = span.decompose() {
            out.add(&b);
        }
    }
    out
}

/// One entry in a critical-path report: a slow commit and where its time
/// went.
#[derive(Debug, Clone)]
pub struct CriticalPath<'a> {
    /// The slow transaction.
    pub span: &'a TxnSpan,
    /// Its end-to-end latency.
    pub latency: SimDuration,
    /// Its segment decomposition.
    pub breakdown: SegmentBreakdown,
    /// The segment that dominates the latency.
    pub dominant: Segment,
}

/// The `k` slowest committed update transactions, slowest first.
pub fn slowest<'a, I>(spans: I, k: usize) -> Vec<CriticalPath<'a>>
where
    I: IntoIterator<Item = &'a TxnSpan>,
{
    let mut paths: Vec<CriticalPath<'a>> = spans
        .into_iter()
        .filter(|s| !s.read_only)
        .filter_map(|span| {
            let breakdown = span.decompose()?;
            Some(CriticalPath {
                span,
                latency: breakdown.total(),
                breakdown,
                dominant: breakdown.dominant(),
            })
        })
        .collect();
    paths.sort_by(|a, b| {
        b.latency
            .cmp(&a.latency)
            .then_with(|| a.span.txn.cmp(&b.span.txn))
    });
    paths.truncate(k);
    paths
}

/// Renders a per-segment summary as an aligned text table.
pub fn render_summary(summary: &SegmentSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "committed update txns: {}", summary.count());
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "segment", "mean", "p50", "p95", "p99", "share"
    );
    let total_mean = summary.end_to_end.mean().as_micros();
    for seg in Segment::ALL {
        let st = summary.segment(seg);
        let share = if total_mean == 0 {
            0.0
        } else {
            100.0 * st.mean().as_micros() as f64 / total_mean as f64
        };
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>6.1}%",
            seg.name(),
            st.mean().to_string(),
            st.p50().to_string(),
            st.p95().to_string(),
            st.p99().to_string(),
            share
        );
    }
    let e = &summary.end_to_end;
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>6.1}%",
        "end_to_end",
        e.mean().to_string(),
        e.p50().to_string(),
        e.p95().to_string(),
        e.p99().to_string(),
        100.0
    );
    if summary.clamped_spans() > 0 {
        let _ = writeln!(
            out,
            "non-monotonic spans: {} ({} clamped milestones)",
            summary.clamped_spans(),
            summary.clamp_events()
        );
    }
    out
}

/// Renders one transaction's timeline: a proportional segment bar,
/// milestone table, and per-site commit times with skew.
pub fn render_timeline(span: &TxnSpan) -> String {
    const BAR: usize = 60;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "txn {}:{} ({})",
        span.txn.origin.0,
        span.txn.num,
        if span.read_only {
            "read-only"
        } else {
            "update"
        }
    );
    match (span.submit, span.end()) {
        (Some(submit), Some(end)) => {
            let _ = writeln!(
                out,
                "  submitted {submit}, ended {end}, latency {}",
                end.saturating_since(submit)
            );
        }
        (Some(submit), None) => {
            let _ = writeln!(out, "  submitted {submit}, still pending");
        }
        _ => {
            let _ = writeln!(out, "  (submission not traced)");
        }
    }
    if let Some(b) = span.decompose() {
        let total = b.total().as_micros();
        if total > 0 {
            let mut bar = String::new();
            let mut used = 0usize;
            for (i, seg) in Segment::ALL.iter().enumerate() {
                let w = if i + 1 == Segment::ALL.len() {
                    BAR - used
                } else {
                    (b.get(*seg).as_micros() as usize * BAR) / total as usize
                };
                used += w;
                for _ in 0..w {
                    bar.push(seg.letter());
                }
            }
            let _ = writeln!(out, "  [{bar}]");
        }
        for seg in Segment::ALL {
            let d = b.get(seg);
            if !d.is_zero() {
                let _ = writeln!(out, "    {:<12} {}", seg.name(), d);
            }
        }
    } else if let Some(crate::spans::SpanOutcome::Aborted { reason, .. }) = &span.outcome {
        let _ = writeln!(out, "  aborted: {reason}");
    }
    let _ = writeln!(out, "  milestones:");
    if let Some(t) = span.submit {
        let _ = writeln!(out, "    submit          {t}");
    }
    if let Some(t) = span.locks {
        let _ = writeln!(out, "    locks acquired  {t}");
    }
    if let Some(t) = span.commit_req_out {
        let _ = writeln!(out, "    commit req out  {t}");
    }
    for (site, (t, gseq)) in &span.total_order {
        let _ = writeln!(out, "    total order     {t}  site {} gseq {gseq}", site.0);
    }
    for v in &span.votes {
        let _ = writeln!(
            out,
            "    vote {:<11} {}  site {}",
            if v.yes { "yes" } else { "no" },
            v.at,
            v.site.0
        );
    }
    for (site, (t, commit)) in &span.decided {
        let _ = writeln!(
            out,
            "    decided {:<8} {t}  site {}",
            if *commit { "commit" } else { "abort" },
            site.0
        );
    }
    if !span.commits.is_empty() {
        let _ = writeln!(out, "  commits per site:");
        for (site, t) in &span.commits {
            let origin = if *site == span.txn.origin {
                " (origin)"
            } else {
                ""
            };
            let _ = writeln!(out, "    site {:<3} {t}{origin}", site.0);
        }
        if let Some(skew) = span.commit_skew() {
            let _ = writeln!(out, "  commit skew: {skew}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanBuilder;
    use crate::telemetry::{TraceEvent, TxnRef};
    use crate::{SimTime, SiteId};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn committed_span(origin: usize, num: u64, submit: u64, end: u64) -> SpanBuilder {
        let tx = TxnRef {
            origin: SiteId(origin),
            num,
        };
        let mut b = SpanBuilder::new();
        b.ingest(&TraceEvent::Submit {
            at: t(submit),
            txn: tx,
            read_only: false,
        });
        b.ingest(&TraceEvent::LocksAcquired {
            at: t(submit + 10),
            txn: tx,
        });
        b.ingest(&TraceEvent::Commit {
            at: t(end),
            site: SiteId(origin),
            txn: tx,
        });
        b
    }

    #[test]
    fn latency_stats_summary() {
        let mut s = LatencyStats::default();
        assert_eq!((s.mean(), s.p99()), (SimDuration::ZERO, SimDuration::ZERO));
        for i in (1..=100u64).rev() {
            s.record(SimDuration::from_micros(i));
        }
        assert_eq!(s.count(), 100);
        // 5050 / 100, truncated.
        assert_eq!(s.mean().as_micros(), 50);
        // Nearest rank on an even count rounds up: index round(99 * 0.5) = 50.
        assert_eq!(s.p50().as_micros(), 51);
        assert_eq!(s.p95().as_micros(), 95);
        assert_eq!(s.quantile(-1.0).as_micros(), 1);
        assert_eq!(s.quantile(2.0).as_micros(), 100);
        let mut other = LatencyStats::default();
        other.record(SimDuration::from_micros(7));
        s.merge(&other);
        assert_eq!(s.samples()[..2], [100, 99], "samples stay in record order");
        assert_eq!(s.samples()[100], 7);
    }

    #[test]
    fn summarize_sums_to_end_to_end() {
        let mut spans = Vec::new();
        for (num, (s, e)) in [(0u64, 100u64), (50, 400), (75, 300)].iter().enumerate() {
            let b = committed_span(0, num as u64 + 1, *s, *e);
            spans.extend(b.into_spans().into_values());
        }
        let summary = summarize(spans.iter());
        assert_eq!(summary.count(), 3);
        let seg_mean_sum: u64 = Segment::ALL
            .iter()
            .map(|&s| summary.segment(s).mean().as_micros())
            .sum();
        // Means of exact per-span sums: equal up to truncation, and here
        // exactly because samples divide evenly per segment.
        assert!(seg_mean_sum <= summary.end_to_end.mean().as_micros());
        assert!(summary.end_to_end.mean().as_micros() - seg_mean_sum < 5);
    }

    #[test]
    fn slowest_orders_and_truncates() {
        let mut spans = Vec::new();
        for (num, (s, e)) in [(1u64, (0u64, 100u64)), (2, (0, 900)), (3, (0, 500))] {
            spans.extend(committed_span(0, num, s, e).into_spans().into_values());
        }
        let top = slowest(spans.iter(), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].span.txn.num, 2);
        assert_eq!(top[0].latency.as_micros(), 900);
        assert_eq!(top[1].span.txn.num, 3);
    }

    #[test]
    fn renderings_contain_key_facts() {
        let b = committed_span(0, 1, 0, 200);
        let span = b.get(TxnRef {
            origin: SiteId(0),
            num: 1,
        });
        let span = span.unwrap();
        let text = render_timeline(span);
        assert!(text.contains("txn 0:1"));
        assert!(text.contains("locks acquired"));
        assert!(text.contains("commit skew"));

        let summary = summarize(std::iter::once(span));
        let table = render_summary(&summary);
        assert!(table.contains("end_to_end"));
        assert!(table.contains("read"));
        assert!(table.contains("100.0%"));
    }
}
