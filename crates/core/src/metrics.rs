//! Per-site protocol metrics: a fixed table of named counts, the commit
//! latencies, the logical sends per phase, wire-batch sizes, P-CB's decision
//! work and, when asked for, commits per time window. Each is read by an
//! experiment, the benchmark, a test or the sampler; nothing else is counted.

use bcastdb_sim::analyze::LatencyStats;
use bcastdb_sim::stats::{Histogram, SampleWriter};
use bcastdb_sim::telemetry::{Phase, PhaseCounts};
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

/// A site's named counts: one slot per name in [`Counters::NAMES`].
#[derive(Debug, Clone, Default)]
pub struct Counters([u64; Counters::NAMES.len()]);

impl Counters {
    /// Every name counted: aborts, in all and by [`AbortReason::counter`]
    /// (F3, the benchmark), read-only aborts (F5), `fast_commits` (always 0
    /// since speculative fast commit was retired; it stays only because the
    /// benchmark still reads it), wire-batch traffic (F6, the benchmark),
    /// and the message kinds read one by one: causal nulls (F6) and the
    /// retransmits and syncs the sampler reports per site.
    pub const NAMES: [&'static str; 16] = [
        "aborts",
        "abort_wounded",
        "abort_concurrent",
        "abort_certification",
        "abort_negative_vote",
        "abort_timeout",
        "abort_view_change",
        "abort_wait_die",
        "aborts_readonly",
        "fast_commits",
        "wire_batches",
        "wire_batched_msgs",
        "wire_batched_bytes",
        "msg_null",
        "msg_retrans",
        "msg_sync",
    ];

    fn slot(name: &str) -> usize {
        let slot = Self::NAMES.iter().position(|&n| n == name);
        slot.unwrap_or_else(|| panic!("no counter named {name:?}"))
    }

    /// Adds `delta` to counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in [`Counters::NAMES`].
    pub(crate) fn add(&mut self, name: &str, delta: u64) {
        self.0[Self::slot(name)] += delta;
    }

    /// Counter `name`'s value.
    ///
    /// # Panics
    /// Panics if `name` is not in [`Counters::NAMES`].
    pub fn get(&self, name: &str) -> u64 {
        self.0[Self::slot(name)]
    }
}

/// Commits per fixed window of virtual time, oldest first.
#[derive(Debug, Clone)]
pub struct CommitSeries {
    window: SimDuration,
    buckets: Vec<u64>,
}

impl CommitSeries {
    /// Per-window counts, oldest first (trailing empty windows included up
    /// to the last commit).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    fn add(&mut self, bucket: usize, n: u64) {
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += n;
    }
}

/// Metrics collected at one site (aggregated by the cluster facade).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Named counts.
    pub counters: Counters,
    /// Logical messages sent, per phase.
    phases: PhaseCounts,
    /// Commit latency of update transactions originated here (submission →
    /// origin learns commit).
    pub update_latency: LatencyStats,
    /// Commit latency of read-only transactions originated here.
    pub readonly_latency: LatencyStats,
    /// Commits originated here bucketed by virtual-time window
    /// (throughput-over-time). `None` until enabled via
    /// [`Metrics::enable_commit_series`].
    pub commit_series: Option<CommitSeries>,
    /// Logical messages per wire batch.
    flush_msgs: Histogram,
    /// Bytes per wire batch.
    flush_bytes: Histogram,
    /// Peers P-CB's commit evaluations examined: `None` before the first,
    /// so the sampled series starts with it even if it examined none.
    pub(crate) peers_examined: Option<u64>,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns on per-window commit counting with the given bucket width.
    /// Commits are bucketed by the virtual time the origin learned them.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn enable_commit_series(&mut self, window: SimDuration) {
        assert!(!window.is_zero(), "a commit series needs a nonzero window");
        self.commit_series = Some(CommitSeries {
            window,
            buckets: Vec::new(),
        });
    }

    /// Records a committed update transaction with its latency, committed
    /// (at the origin) at virtual time `at`.
    pub fn commit_update(&mut self, latency: SimDuration, at: SimTime) {
        self.update_latency.record(latency);
        self.count_commit(at);
    }

    /// Records a committed read-only transaction with its latency,
    /// committed at virtual time `at`.
    pub fn commit_readonly(&mut self, latency: SimDuration, at: SimTime) {
        self.readonly_latency.record(latency);
        self.count_commit(at);
    }

    fn count_commit(&mut self, at: SimTime) {
        if let Some(series) = &mut self.commit_series {
            let bucket = at.as_micros() / series.window.as_micros();
            series.add(bucket as usize, 1);
        }
    }

    /// Records an abort with its reason.
    pub fn abort(&mut self, reason: AbortReason) {
        self.counters.add("aborts", 1);
        self.counters.add(reason.counter(), 1);
    }

    /// Records one outgoing message, sent point to point to `n`
    /// destinations: under its protocol [`Phase`], and under `counter`
    /// when its kind is counted by name.
    ///
    /// # Panics
    /// Panics if `counter` is not in [`Counters::NAMES`].
    pub fn record_send(&mut self, counter: Option<&str>, phase: Phase, n: u64) {
        self.phases.add(phase, n);
        if let Some(name) = counter {
            self.counters.add(name, n);
        }
    }

    /// Records one wire-level batch transmission carrying `msgs` coalesced
    /// logical messages and `bytes` on the wire. Wire accounting is kept
    /// separate from [`Metrics::record_send`]'s logical accounting (whose
    /// per-phase counts are identical with batching on or off); the `wire_*`
    /// counters say what the network actually carried.
    pub fn record_wire_batch(&mut self, msgs: u64, bytes: u64) {
        self.counters.add("wire_batches", 1);
        self.counters.add("wire_batched_msgs", msgs);
        self.counters.add("wire_batched_bytes", bytes);
        self.flush_msgs.record(msgs);
        self.flush_bytes.record(bytes);
    }

    /// Adds this site's share of the cluster-wide series to a sample.
    pub(crate) fn sample_into(&self, sample: &mut SampleWriter) {
        if let Some(peers) = self.peers_examined {
            sample.add("cb.decide_peers_examined", peers);
        }
        sample.add_hist("batch.flush_msgs", &self.flush_msgs);
        sample.add_hist("batch.flush_bytes", &self.flush_bytes);
    }

    /// Number of wire-level batch transmissions recorded.
    pub fn wire_batches(&self) -> u64 {
        self.counters.get("wire_batches")
    }

    /// Logical messages that travelled inside wire batches.
    pub fn wire_batched_msgs(&self) -> u64 {
        self.counters.get("wire_batched_msgs")
    }

    /// The logical messages recorded via [`Metrics::record_send`], per
    /// phase.
    pub fn phase_counts(&self) -> PhaseCounts {
        self.phases
    }

    /// Total commits (update + read-only).
    pub fn commits(&self) -> u64 {
        (self.update_latency.count() + self.readonly_latency.count()) as u64
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
        for (mine, theirs) in self.counters.0.iter_mut().zip(other.counters.0) {
            *mine += theirs;
        }
        for p in Phase::ALL {
            self.phases.add(p, other.phases.get(p));
        }
        self.update_latency.merge(&other.update_latency);
        self.readonly_latency.merge(&other.readonly_latency);
        self.flush_msgs.merge(&other.flush_msgs);
        self.flush_bytes.merge(&other.flush_bytes);
        if let Some(n) = other.peers_examined {
            *self.peers_examined.get_or_insert(0) += n;
        }
        if let Some(theirs) = &other.commit_series {
            let mine = self.commit_series.get_or_insert_with(|| CommitSeries {
                window: theirs.window,
                buckets: Vec::new(),
            });
            assert_eq!(mine.window, theirs.window, "commit series windows differ");
            for (bucket, &n) in theirs.buckets.iter().enumerate() {
                mine.add(bucket, n);
            }
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
        assert_eq!(Metrics::new().abort_rate(), 0.0);
    }

    #[test]
    fn commit_series_buckets_commits_when_enabled() {
        let mut m = Metrics::new();
        m.commit_update(SimDuration::from_millis(1), SimTime::from_micros(1000));
        assert!(m.commit_series.is_none(), "off by default");
        m.enable_commit_series(SimDuration::from_millis(10));
        m.commit_update(SimDuration::from_millis(1), SimTime::from_micros(5000));
        // A window holds its start and not its end: 9 999 µs is window 0,
        // 10 000 µs is window 1.
        m.commit_update(SimDuration::from_millis(1), SimTime::from_micros(9_999));
        m.commit_update(SimDuration::from_millis(1), SimTime::from_micros(10_000));
        m.commit_readonly(SimDuration::from_millis(1), SimTime::from_micros(25000));
        let series = m.commit_series.as_ref().unwrap();
        assert_eq!(series.buckets(), &[2, 1, 1]);

        // Cross-site merge: a disabled receiver adopts the other side's
        // series, an enabled one sums it window by window.
        let mut agg = Metrics::new();
        agg.merge(&m);
        assert_eq!(agg.commit_series.as_ref().unwrap().buckets(), &[2, 1, 1]);
        agg.merge(&m);
        assert_eq!(agg.commit_series.as_ref().unwrap().buckets(), &[4, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "a commit series needs a nonzero window")]
    fn a_commit_series_rejects_a_zero_window() {
        Metrics::new().enable_commit_series(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "commit series windows differ")]
    fn merging_commit_series_of_different_windows_is_an_error() {
        let mut a = Metrics::new();
        a.enable_commit_series(SimDuration::from_millis(10));
        let mut b = Metrics::new();
        b.enable_commit_series(SimDuration::from_millis(20));
        a.merge(&b);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.commit_update(SimDuration::from_millis(2), SimTime::from_micros(2000));
        b.commit_update(SimDuration::from_millis(4), SimTime::from_micros(4000));
        for (slot, name) in Counters::NAMES.iter().enumerate() {
            a.counters.add(name, 1);
            b.counters.add(name, 10 + slot as u64);
        }
        b.record_send(None, Phase::Vote, 3);
        b.flush_msgs.record(2);
        b.flush_bytes.record(100);
        a.peers_examined = Some(1);
        b.peers_examined = Some(4);
        a.merge(&b);
        assert_eq!(a.flush_msgs, b.flush_msgs);
        assert_eq!(a.flush_bytes, b.flush_bytes);
        assert_eq!(a.peers_examined, Some(5));
        assert_eq!(a.commits(), 2);
        assert_eq!(a.update_latency.mean().as_micros(), 3_000);
        for (slot, name) in Counters::NAMES.iter().enumerate() {
            assert_eq!(a.counters.get(name), 11 + slot as u64, "{name}");
        }
        assert_eq!(a.phase_counts().get(Phase::Vote), 3);
    }

    #[test]
    fn sends_count_by_phase_and_read_kinds_by_name() {
        let mut m = Metrics::new();
        m.record_send(None, Phase::Prepare, 2);
        m.record_send(None, Phase::Vote, 1);
        m.record_send(Some("msg_null"), Phase::Ack, 1);
        m.record_send(Some("msg_sync"), Phase::Retransmit, 4);
        let pc = m.phase_counts();
        assert_eq!(
            [Phase::Prepare, Phase::Vote, Phase::Ack, Phase::Retransmit].map(|p| pc.get(p)),
            [2, 1, 1, 4]
        );
        assert_eq!(pc.total(), 8);
        assert_eq!(m.counters.get("msg_null"), 1);
        assert_eq!(m.counters.get("msg_sync"), 4);
    }

    #[test]
    #[should_panic(expected = "no counter named \"msg_write\"")]
    fn an_uncounted_name_is_an_error() {
        Metrics::new().counters.get("msg_write");
    }

    #[test]
    fn all_reasons_are_counted_under_distinct_names() {
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
        assert!(names.iter().all(|n| Counters::NAMES.contains(n)));
    }
}
