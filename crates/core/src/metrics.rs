//! Per-site protocol metrics.

use bcastdb_sim::telemetry::{Phase, PhaseCounts};
use bcastdb_sim::trace::{Counters, LatencyStats, TimeSeries};
use bcastdb_sim::{SimDuration, SimTime};
use std::fmt;

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Wounded by an older conflicting transaction (wound-wait).
    Wounded,
    /// Lost a causally concurrent write-write conflict (causal protocol's
    /// early conflict detection).
    ConcurrentConflict,
    /// Failed deterministic certification (atomic protocol).
    Certification,
    /// A 2PC participant voted no.
    NegativeVote,
    /// Commit did not complete within the deadlock/timeout budget
    /// (point-to-point baseline).
    Timeout,
    /// Aborted by a view change (origin crashed or left the view).
    ViewChange,
    /// Wait-die policy: a younger requester died instead of waiting.
    WaitDie,
}

impl AbortReason {
    /// Stable counter name for this reason.
    pub fn counter(self) -> &'static str {
        match self {
            AbortReason::Wounded => "abort_wounded",
            AbortReason::ConcurrentConflict => "abort_concurrent",
            AbortReason::Certification => "abort_certification",
            AbortReason::NegativeVote => "abort_negative_vote",
            AbortReason::Timeout => "abort_timeout",
            AbortReason::ViewChange => "abort_view_change",
            AbortReason::WaitDie => "abort_wait_die",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.counter())
    }
}

/// Metrics collected at one site (aggregated by the cluster facade).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Named event counters.
    pub counters: Counters,
    /// Commit latency of update transactions originated here (submission →
    /// origin learns commit).
    pub update_latency: LatencyStats,
    /// Commit latency of read-only transactions originated here.
    pub readonly_latency: LatencyStats,
    /// Commits originated here bucketed by virtual-time window
    /// (throughput-over-time). `None` until enabled via
    /// [`Metrics::enable_commit_series`].
    pub commit_series: Option<TimeSeries>,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns on per-window commit counting with the given bucket width.
    /// Commits are bucketed by the virtual time the origin learned them.
    pub fn enable_commit_series(&mut self, window: SimDuration) {
        self.commit_series = Some(TimeSeries::new(window));
    }

    /// Records a committed update transaction with its latency, committed
    /// (at the origin) at virtual time `at`.
    pub fn commit_update(&mut self, latency: SimDuration, at: SimTime) {
        self.counters.incr("commits_update");
        self.update_latency.record(latency);
        if let Some(series) = &mut self.commit_series {
            series.record(at);
        }
    }

    /// Records a committed read-only transaction with its latency,
    /// committed at virtual time `at`.
    pub fn commit_readonly(&mut self, latency: SimDuration, at: SimTime) {
        self.counters.incr("commits_readonly");
        self.readonly_latency.record(latency);
        if let Some(series) = &mut self.commit_series {
            series.record(at);
        }
    }

    /// Records an abort with its reason.
    pub fn abort(&mut self, reason: AbortReason) {
        self.counters.incr("aborts");
        self.counters.incr(reason.counter());
    }

    /// Records one outgoing message, sent point to point to `n`
    /// destinations, under both its fine-grained kind (`msg_*`) and its
    /// protocol [`Phase`] (`phase_*`). Counting both at the same call site
    /// is what guarantees the per-phase totals sum to the flat per-kind
    /// totals.
    pub fn record_send(&mut self, kind: &'static str, phase: Phase, n: u64) {
        self.counters.add(kind, n);
        self.counters.add(phase.counter(), n);
    }

    /// Records one wire-level batch transmission carrying `msgs` coalesced
    /// logical messages and `bytes` on the wire. Wire accounting is kept
    /// separate from [`Metrics::record_send`]'s logical accounting (whose
    /// `msg_*`/`phase_*` counters are identical with batching on or off);
    /// the `wire_*` counters say what the network actually carried.
    pub fn record_wire_batch(&mut self, msgs: u64, bytes: u64) {
        self.counters.incr("wire_batches");
        self.counters.add("wire_batched_msgs", msgs);
        self.counters.add("wire_batched_bytes", bytes);
    }

    /// Number of wire-level batch transmissions recorded.
    pub fn wire_batches(&self) -> u64 {
        self.counters.get("wire_batches")
    }

    /// Logical messages that travelled inside wire batches.
    pub fn wire_batched_msgs(&self) -> u64 {
        self.counters.get("wire_batched_msgs")
    }

    /// The per-phase message tally recorded via [`Metrics::record_send`].
    pub fn phase_counts(&self) -> PhaseCounts {
        let mut pc = PhaseCounts::default();
        for p in Phase::ALL {
            pc.add(p, self.counters.get(p.counter()));
        }
        pc
    }

    /// Total messages recorded under the fine-grained `msg_*` kinds —
    /// always equal to [`Metrics::phase_counts`]`.total()`.
    pub fn messages_by_kind(&self) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with("msg_"))
            .map(|(_, v)| v)
            .sum()
    }

    /// Total commits (update + read-only).
    pub fn commits(&self) -> u64 {
        self.counters.get("commits_update") + self.counters.get("commits_readonly")
    }

    /// Total aborts.
    pub fn aborts(&self) -> u64 {
        self.counters.get("aborts")
    }

    /// Abort rate as a fraction of terminated transactions (0 when none).
    pub fn abort_rate(&self) -> f64 {
        let done = self.commits() + self.aborts();
        if done == 0 {
            0.0
        } else {
            self.aborts() as f64 / done as f64
        }
    }

    /// Merges another site's metrics into this one.
    pub fn merge(&mut self, other: &Metrics) {
        self.counters.merge(&other.counters);
        self.update_latency.merge(&other.update_latency);
        self.readonly_latency.merge(&other.readonly_latency);
        match (&mut self.commit_series, &other.commit_series) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.commit_series = Some(theirs.clone()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_abort_counting() {
        let mut m = Metrics::new();
        m.commit_update(SimDuration::from_millis(3), SimTime::from_micros(3000));
        m.commit_readonly(SimDuration::from_millis(1), SimTime::from_micros(1000));
        m.abort(AbortReason::Wounded);
        m.abort(AbortReason::Certification);
        assert_eq!(m.commits(), 2);
        assert_eq!(m.aborts(), 2);
        assert_eq!(m.counters.get("abort_wounded"), 1);
        assert!((m.abort_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_zero_when_idle() {
        let m = Metrics::new();
        assert_eq!(m.abort_rate(), 0.0);
    }

    #[test]
    fn commit_series_buckets_commits_when_enabled() {
        let mut m = Metrics::new();
        m.commit_update(SimDuration::from_millis(1), SimTime::from_micros(1000));
        assert!(m.commit_series.is_none(), "off by default");
        m.enable_commit_series(SimDuration::from_millis(10));
        m.commit_update(SimDuration::from_millis(1), SimTime::from_micros(5000));
        m.commit_readonly(SimDuration::from_millis(1), SimTime::from_micros(15000));
        let series = m.commit_series.as_ref().unwrap();
        assert_eq!(series.buckets(), &[1, 1]);

        // Cross-site merge: only enabled series combine; a disabled
        // receiver adopts the other side's series.
        let mut agg = Metrics::new();
        agg.merge(&m);
        assert_eq!(agg.commit_series.as_ref().unwrap().total(), 2);
        agg.merge(&m);
        assert_eq!(agg.commit_series.as_ref().unwrap().buckets(), &[2, 2]);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.commit_update(SimDuration::from_millis(2), SimTime::from_micros(2000));
        b.commit_update(SimDuration::from_millis(4), SimTime::from_micros(4000));
        b.abort(AbortReason::Timeout);
        a.merge(&b);
        assert_eq!(a.commits(), 2);
        assert_eq!(a.aborts(), 1);
        assert_eq!(a.update_latency.count(), 2);
        assert_eq!(a.update_latency.mean().as_micros(), 3_000);
    }

    #[test]
    fn phase_totals_match_kind_totals() {
        let mut m = Metrics::new();
        m.record_send("msg_write", Phase::Prepare, 2);
        m.record_send("msg_vote", Phase::Vote, 1);
        m.record_send("msg_null", Phase::Ack, 1);
        let pc = m.phase_counts();
        assert_eq!(pc.prepare, 2);
        assert_eq!(pc.vote, 1);
        assert_eq!(pc.ack, 1);
        assert_eq!(pc.total(), 4);
        assert_eq!(m.messages_by_kind(), 4);
    }

    #[test]
    fn all_reasons_have_distinct_counters() {
        use AbortReason::*;
        let reasons = [
            Wounded,
            ConcurrentConflict,
            Certification,
            NegativeVote,
            Timeout,
            ViewChange,
            WaitDie,
        ];
        let names: std::collections::HashSet<&str> = reasons.iter().map(|r| r.counter()).collect();
        assert_eq!(names.len(), reasons.len());
    }
}
