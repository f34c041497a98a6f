//! Deterministic, virtual-time metrics: a registry of counters, gauges, and
//! fixed-log2-bucket histograms, sampled on the simulation clock.
//!
//! Where the [`telemetry`](crate::telemetry) stream answers *"what happened
//! to this message / transaction"*, this module answers *"what did the
//! system look like over time"*: event-queue depth, timing-wheel residency,
//! link backlog against the bandwidth model, batcher occupancy,
//! retransmission pressure, lock-wait counts. Samples are taken at fixed
//! **virtual**-time boundaries by the simulation driver, so a run's metrics
//! stream depends only on the run's inputs — the output is byte-identical
//! at any `BCASTDB_JOBS`, on any machine, with any wall-clock jitter.
//!
//! The write side mirrors [`Tracer`](crate::telemetry::Tracer): a
//! [`StatsHandle`] is either attached to a shared [`StatsRegistry`] or
//! disabled, and every recording method on a disabled handle is a single
//! `Option` check — enabling metrics is a run-configuration choice with
//! zero cost on runs that do not make it. Crucially, sampling never
//! schedules events: the driver takes samples *between* events at period
//! boundaries, so enabling metrics cannot perturb event sequence numbers,
//! delivery order, or any simulation output.
//!
//! A sample is written through a reused [`SampleWriter`] and stored as one
//! row of `u64`s, under a name table shared by every consecutive sample that
//! set the same series in the same order; [`Sample`] is the read view,
//! rebuilt from the rows by [`StatsRegistry::samples`].
//!
//! # Sample schema
//!
//! One [`Sample`] per period boundary, serialized as one flat JSONL line:
//!
//! ```text
//! {"t":<µs>,"v":{"<name>":<u64>,...},"h":{"<name>":[[<bucket>,<count>],...],...}}
//! ```
//!
//! `v` holds point-in-time gauges and cumulative counters (both plain
//! `u64`s — the name documents which); `h` holds sparse log2-bucket
//! histogram snapshots (cumulative since the start of the run). Names use
//! only `[a-z0-9._]` with a `s<site>.` prefix for per-site series, which
//! the writer's JSON escaping leaves as they are.

use crate::json;
use crate::{SimDuration, SimTime, SiteId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-size log2-bucket histogram of `u64` observations.
///
/// Bucket `0` holds exactly the value `0`; bucket `i ≥ 1` holds the range
/// `[2^(i-1), 2^i - 1]`. Every `u64` maps to exactly one bucket, so the
/// bucket counts always sum to the observation count.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Smallest value of bucket `i`.
    ///
    /// # Panics
    /// Panics if `i >= HIST_BUCKETS`.
    pub fn bucket_lo(i: usize) -> u64 {
        assert!(i < HIST_BUCKETS);
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Largest value of bucket `i`.
    ///
    /// # Panics
    /// Panics if `i >= HIST_BUCKETS`.
    pub fn bucket_hi(i: usize) -> u64 {
        assert!(i < HIST_BUCKETS);
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest observation (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, truncated (zero when empty).
    pub fn mean(&self) -> u64 {
        let n = self.count();
        if n == 0 {
            0
        } else {
            (self.sum / n as u128) as u64
        }
    }

    /// Sparse `(bucket, count)` pairs for the non-empty buckets, in bucket
    /// order.
    pub fn snapshot(&self) -> Vec<(u8, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u8, c))
            .collect()
    }
}

/// One point-in-time snapshot of every metric, taken at a virtual-time
/// period boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sample {
    /// The period boundary this sample was taken at.
    pub at: SimTime,
    /// Gauges and cumulative counters, by name.
    pub values: BTreeMap<String, u64>,
    /// Sparse histogram snapshots (cumulative), by name.
    pub hists: BTreeMap<String, Vec<(u8, u64)>>,
}

/// True iff `name` sticks to the escaping-free metric-name alphabet.
fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_')
}

impl Sample {
    /// An empty sample stamped `at`.
    pub fn new(at: SimTime) -> Self {
        Sample {
            at,
            ..Self::default()
        }
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.values.len());
        let _ = write!(out, "{{\"t\":{}", self.at.as_micros());
        if !self.values.is_empty() {
            out.push_str(",\"v\":{");
            for (i, (k, v)) in self.values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, k);
                let _ = write!(out, ":{v}");
            }
            out.push('}');
        }
        if !self.hists.is_empty() {
            out.push_str(",\"h\":{");
            for (i, (k, buckets)) in self.hists.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, k);
                out.push_str(":[");
                for (j, (b, c)) in buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{b},{c}]");
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses a line produced by [`Sample::to_jsonl`].
    ///
    /// # Errors
    /// Returns a description of the first syntax problem.
    pub fn from_jsonl(line: &str) -> Result<Sample, String> {
        let root = json::parse(line)?;
        let root = root.named("sample");
        let mut sample = Sample::new(SimTime::from_micros(root.get("t")?.u64()?));
        for (key, member) in root.obj()? {
            match key.as_str() {
                "t" => {}
                "v" => {
                    for (name, value) in member.named("v").obj()? {
                        sample.values.insert(name.clone(), value.named(name).u64()?);
                    }
                }
                "h" => {
                    for (name, buckets) in member.named("h").obj()? {
                        let buckets = buckets.named(name).arr()?.map(bucket);
                        sample
                            .hists
                            .insert(name.clone(), buckets.collect::<Result<_, _>>()?);
                    }
                }
                other => return Err(format!("unknown sample field {other:?}")),
            }
        }
        Ok(sample)
    }
}

/// One `[bucket, count]` pair of a histogram snapshot.
fn bucket(pair: json::Field<'_>) -> Result<(u8, u64), String> {
    let mut pair = pair.arr()?;
    let (Some(b), Some(c), None) = (pair.next(), pair.next(), pair.next()) else {
        return Err("a histogram bucket is a [bucket, count] pair".into());
    };
    match b.u64()? {
        b if (b as usize) < HIST_BUCKETS => Ok((b as u8, c.u64()?)),
        b => Err(format!("bucket {b} out of range")),
    }
}

/// Renders samples as JSONL (one line per sample, each newline-terminated).
pub fn render_jsonl(samples: &[Sample]) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&s.to_jsonl());
        out.push('\n');
    }
    out
}

/// Renders samples as CSV: a `t_us` column, every value series in name
/// order, and one `<name>.n` observation-count column per histogram.
/// Series missing from a sample render as empty cells.
pub fn render_csv(samples: &[Sample]) -> String {
    let mut value_cols: Vec<&str> = Vec::new();
    let mut hist_cols: Vec<&str> = Vec::new();
    for s in samples {
        for k in s.values.keys() {
            if let Err(pos) = value_cols.binary_search(&k.as_str()) {
                value_cols.insert(pos, k);
            }
        }
        for k in s.hists.keys() {
            if let Err(pos) = hist_cols.binary_search(&k.as_str()) {
                hist_cols.insert(pos, k);
            }
        }
    }
    let mut out = String::from("t_us");
    for c in &value_cols {
        let _ = write!(out, ",{c}");
    }
    for c in &hist_cols {
        let _ = write!(out, ",{c}.n");
    }
    out.push('\n');
    for s in samples {
        let _ = write!(out, "{}", s.at.as_micros());
        for c in &value_cols {
            match s.values.get(*c) {
                Some(v) => {
                    let _ = write!(out, ",{v}");
                }
                None => out.push(','),
            }
        }
        for c in &hist_cols {
            match s.hists.get(*c) {
                Some(buckets) => {
                    let n: u64 = buckets.iter().map(|&(_, c)| c).sum();
                    let _ = write!(out, ",{n}");
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// One series of a sample: a name, or a per-site name rendered under the
/// canonical `s<site>.` prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Series(Option<SiteId>, &'static str);

impl Series {
    /// The series' name in a [`Sample`].
    fn key(self) -> String {
        match self.0 {
            None => self.1.to_owned(),
            Some(site) => format!("s{}.{}", site.0, self.1),
        }
    }
}

/// Collects the values of one sample. The simulation reuses one writer
/// for every sample, and a call naming the series the previous sample set at
/// the same position only stores the value, so a sample whose series
/// repeat allocates nothing. Setting a name twice keeps the last value.
#[derive(Debug, Default)]
pub struct SampleWriter {
    /// The series set so far, then the previous sample's beyond `len`.
    series: Vec<Series>,
    /// Their values.
    row: Vec<u64>,
    /// Series set in this sample.
    len: usize,
}

impl SampleWriter {
    /// Sets a value (gauge or counter snapshot).
    ///
    /// # Panics
    /// Panics (debug builds) if `name` leaves the `[a-z0-9._]` alphabet.
    pub fn set(&mut self, name: &'static str, v: u64) {
        self.put(Series(None, name), v);
    }

    /// Sets a per-site value under the canonical `s<site>.` prefix.
    pub fn set_site(&mut self, site: SiteId, name: &'static str, v: u64) {
        self.put(Series(Some(site), name), v);
    }

    fn put(&mut self, series: Series, v: u64) {
        debug_assert!(name_ok(series.1), "bad metric name {:?}", series.1);
        if self.series.get(self.len) != Some(&series) {
            self.series.truncate(self.len);
            self.row.truncate(self.len);
            self.series.push(series);
            self.row.push(0);
        }
        self.row[self.len] = v;
        self.len += 1;
    }
}

/// The names behind a run of consecutive samples that set the same series
/// in the same order and snapshotted the same histograms.
#[derive(Debug)]
struct Table {
    samples: usize,
    series: Vec<Series>,
    hists: Vec<&'static str>,
}

/// The shared metric store of one run: push-side counters, gauges, and
/// histograms, plus the accumulated samples.
///
/// Counters and gauges written through [`StatsHandle`] are folded into
/// every subsequent sample; histograms are snapshotted cumulatively.
#[derive(Debug)]
pub struct StatsRegistry {
    interval: SimDuration,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    /// Name tables, oldest first.
    tables: Vec<Table>,
    /// Every sample's row, back to back: its time, its values in its
    /// table's order, then per histogram the number of non-empty buckets
    /// and their `bucket, count` pairs.
    rows: Vec<u64>,
}

impl StatsRegistry {
    /// Creates a registry sampling every `interval` of virtual time.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "metrics need a nonzero interval");
        StatsRegistry {
            interval,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            tables: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The sampling period.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Folds the push-side state into the sample `w` holds, stores it as
    /// one row stamped `at`, and readies `w` for the next sample.
    pub fn commit_sample(&mut self, at: SimTime, w: &mut SampleWriter) {
        for (&k, &v) in self.counters.iter().chain(&self.gauges) {
            w.set(k, v);
        }
        w.series.truncate(w.len);
        w.row.truncate(w.len);
        w.len = 0;
        match self.tables.last_mut() {
            Some(t) if t.series == w.series && t.hists.iter().eq(self.hists.keys()) => {
                t.samples += 1;
            }
            _ => self.tables.push(Table {
                samples: 1,
                series: w.series.clone(),
                hists: self.hists.keys().copied().collect(),
            }),
        }
        self.rows.push(at.as_micros());
        self.rows.extend_from_slice(&w.row);
        for h in self.hists.values() {
            let buckets = h.counts.iter().enumerate().filter(|&(_, &c)| c > 0);
            self.rows.push(buckets.clone().count() as u64);
            self.rows.extend(buckets.flat_map(|(b, &c)| [b as u64, c]));
        }
    }

    /// The samples taken so far, oldest first, rebuilt from their rows.
    pub fn samples(&self) -> Vec<Sample> {
        let mut cells = self.rows.iter().copied();
        let mut next = move || cells.next().expect("a row holds what its table names");
        let mut out = Vec::new();
        for table in &self.tables {
            for _ in 0..table.samples {
                let mut s = Sample::new(SimTime::from_micros(next()));
                for series in &table.series {
                    s.values.insert(series.key(), next());
                }
                for &name in &table.hists {
                    let buckets = (0..next()).map(|_| (next() as u8, next())).collect();
                    s.hists.insert(name.to_owned(), buckets);
                }
                out.push(s);
            }
        }
        out
    }

    /// A push-side histogram's current state (`None` if never observed).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }
}

/// A cheap, cloneable handle to a run's [`StatsRegistry`] — or to nothing.
///
/// Mirrors [`Tracer`](crate::telemetry::Tracer): components hold a handle
/// unconditionally and record through it; when no registry is attached
/// every method is one branch and metrics cost nothing. Handles are
/// reference-counted and `!Send`, like the rest of a cluster.
#[derive(Debug, Clone, Default)]
pub struct StatsHandle {
    inner: Option<Rc<RefCell<StatsRegistry>>>,
}

impl StatsHandle {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A handle attached to `registry`.
    pub fn new(registry: Rc<RefCell<StatsRegistry>>) -> Self {
        StatsHandle {
            inner: Some(registry),
        }
    }

    /// True iff a registry is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sampling period, when attached.
    pub fn interval(&self) -> Option<SimDuration> {
        self.inner.as_ref().map(|r| r.borrow().interval())
    }

    /// Adds `delta` to counter `name`.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(reg) = &self.inner {
            *reg.borrow_mut().counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Counter `name`'s current total (zero when never bumped or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|reg| reg.borrow().counters.get(name).copied())
            .unwrap_or(0)
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&self, name: &'static str, v: u64) {
        if let Some(reg) = &self.inner {
            reg.borrow_mut().gauges.insert(name, v);
        }
    }

    /// Records one histogram observation.
    pub fn observe(&self, name: &'static str, v: u64) {
        debug_assert!(name_ok(name), "bad metric name {name:?}");
        if let Some(reg) = &self.inner {
            reg.borrow_mut().hists.entry(name).or_default().record(v);
        }
    }

    /// Folds the push-side state into the sample `w` holds and stores it,
    /// stamped `at`. Called by the simulation loop at each period
    /// boundary.
    pub fn commit_sample(&self, at: SimTime, w: &mut SampleWriter) {
        if let Some(reg) = &self.inner {
            reg.borrow_mut().commit_sample(at, w);
        }
    }

    /// The samples taken so far (empty when disabled).
    pub fn samples(&self) -> Vec<Sample> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |r| r.borrow().samples())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_zero_is_exactly_zero() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_lo(0), 0);
        assert_eq!(Histogram::bucket_hi(0), 0);
    }

    #[test]
    fn bucket_edges_land_where_documented() {
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_hi(64), u64::MAX);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 111);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 22);
        let snap = h.snapshot();
        assert_eq!(snap, vec![(0, 1), (1, 1), (3, 2), (7, 1)]);
    }

    #[test]
    fn sample_jsonl_round_trips() {
        let mut s = Sample::new(SimTime::from_micros(12345));
        s.values.insert("queue_depth".into(), 42);
        s.values.insert("s3.lock_waiters".into(), 7);
        s.hists
            .insert("batch.flush_msgs".into(), vec![(1, 5), (4, 2)]);
        let line = s.to_jsonl();
        let back = Sample::from_jsonl(&line).expect("parses");
        assert_eq!(back, s);
        assert_eq!(back.values["s3.lock_waiters"], 7);
    }

    #[test]
    fn empty_sample_round_trips() {
        let s = Sample::new(SimTime::from_micros(9));
        assert_eq!(s.to_jsonl(), "{\"t\":9}");
        assert_eq!(Sample::from_jsonl("{\"t\":9}").unwrap(), s);
    }

    #[test]
    fn names_outside_the_metric_alphabet_still_round_trip() {
        let mut s = Sample::new(SimTime::from_micros(1));
        s.values.insert("a\"b\n\u{e9}".into(), 1);
        s.hists.insert("h\\".into(), vec![(0, 1)]);
        assert_eq!(Sample::from_jsonl(&s.to_jsonl()).unwrap(), s);
    }

    #[test]
    fn bad_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"t\":}",
            "{\"x\":1}",
            "{\"t\":1} x",
            "{\"t\":1.5}",
            "{\"t\":1,\"t\":2}",
            "{\"t\":1,\"v\":{\"a\":-1}}",
            "{\"t\":1,\"h\":{\"a\":[[1,2,3]]}}",
            "{\"t\":1,\"h\":{\"a\":[[99,1]]}}",
        ] {
            assert!(Sample::from_jsonl(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn csv_unions_columns_and_leaves_gaps_empty() {
        let mut a = Sample::new(SimTime::from_micros(10));
        a.values.insert("x".into(), 1);
        let mut b = Sample::new(SimTime::from_micros(20));
        b.values.insert("y".into(), 2);
        b.hists.insert("h1".into(), vec![(0, 4)]);
        let csv = render_csv(&[a, b]);
        assert_eq!(csv, "t_us,x,y,h1.n\n10,1,,\n20,,2,4\n");
    }

    #[test]
    fn registry_folds_push_side_into_samples() {
        let reg = Rc::new(RefCell::new(StatsRegistry::new(SimDuration::from_millis(
            1,
        ))));
        let h = StatsHandle::new(reg.clone());
        h.counter_add("retrans", 3);
        h.counter_add("retrans", 2);
        h.gauge_set("depth", 9);
        h.observe("flush", 4);
        h.commit_sample(SimTime::from_micros(1000), &mut SampleWriter::default());
        let samples = h.samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(h.counter("retrans"), 5);
        assert_eq!(h.counter("depth"), 0, "a gauge is not a counter");
        assert_eq!(samples[0].values["retrans"], 5);
        assert_eq!(samples[0].values["depth"], 9);
        assert_eq!(samples[0].hists["flush"], vec![(3, 1)]);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let h = StatsHandle::disabled();
        assert!(!h.is_enabled());
        h.counter_add("x", 1);
        h.gauge_set("y", 2);
        h.observe("z", 3);
        h.commit_sample(SimTime::ZERO, &mut SampleWriter::default());
        assert_eq!(h.counter("x"), 0);
        assert!(h.samples().is_empty());
        assert_eq!(h.interval(), None);
    }

    #[test]
    #[should_panic(expected = "nonzero interval")]
    fn zero_interval_is_rejected() {
        let _ = StatsRegistry::new(SimDuration::ZERO);
    }

    /// The map-building store the rows replaced: a sample is a [`Sample`]
    /// filled name by name as the sampler calls in, then folded the way
    /// `StatsRegistry::commit_sample` once folded it.
    mod oracle {
        use super::super::*;

        pub fn set(s: &mut Sample, name: &str, v: u64) {
            s.values.insert(name.to_owned(), v);
        }

        pub fn set_site(s: &mut Sample, site: SiteId, name: &str, v: u64) {
            let mut key = String::with_capacity(name.len() + 5);
            let _ = write!(key, "s{}.", site.0);
            key.push_str(name);
            s.values.insert(key, v);
        }

        pub fn commit(reg: &StatsRegistry, mut sample: Sample) -> Sample {
            for (&k, &v) in &reg.counters {
                set(&mut sample, k, v);
            }
            for (&k, &v) in &reg.gauges {
                set(&mut sample, k, v);
            }
            for (&k, h) in &reg.hists {
                sample.hists.insert(k.to_owned(), h.snapshot());
            }
            sample
        }
    }

    /// Sampler-side names; `s1.x` is also what `x` at site 1 renders as.
    const NAMES: [&str; 5] = ["x", "queue_depth", "net.msgs_sent", "s1.x", "retrans"];
    /// Push-side names; `retrans` is a sampler-side name too.
    const PUSHED: [&str; 3] = ["retrans", "flush", "depth"];

    proptest! {
        /// The rows give back, sample for sample, what the map-building
        /// store built from the same calls, through series that appear
        /// mid-run, disappear, change places or are set twice in a sample,
        /// and push-side counters, gauges and histograms that start
        /// mid-run.
        #[test]
        fn rows_agree_with_the_map_store(
            start in proptest::collection::vec((0usize..NAMES.len(), 0usize..4), 1..6),
            steps in proptest::collection::vec((0u8..7, any::<u64>(), 0usize..8, 0u8..4), 1..16),
        ) {
            // A series is a name and a site code: 0 global, else site code - 1.
            let mut series = start;
            let reg = Rc::new(RefCell::new(StatsRegistry::new(SimDuration::from_millis(1))));
            let handle = StatsHandle::new(reg.clone());
            let mut writer = SampleWriter::default();
            let mut expected = Vec::new();
            for (i, &(edit, seed, pos, push)) in steps.iter().enumerate() {
                let (n, at) = (series.len(), pos % series.len());
                match edit {
                    3 if n > 1 => drop(series.remove(at)),
                    4 => series.insert(at, (seed as usize % NAMES.len(), (seed >> 8) as usize % 4)),
                    5 => series.swap(at, (at + 1) % n),
                    6 => series.insert(at, series[(at + 1) % n]),
                    _ => {}
                }
                let pushed = PUSHED[seed as usize % PUSHED.len()];
                match push {
                    1 => handle.counter_add(pushed, seed % 9),
                    2 => handle.gauge_set(pushed, seed),
                    3 => handle.observe(pushed, seed >> (seed % 64)),
                    _ => {}
                }
                let t = SimTime::from_micros(1_000 * (i as u64 + 1));
                let mut old = Sample::new(t);
                for (j, &(name, site)) in series.iter().enumerate() {
                    let (name, v) = (NAMES[name], seed.wrapping_add(j as u64));
                    if site == 0 {
                        writer.set(name, v);
                        oracle::set(&mut old, name, v);
                    } else {
                        writer.set_site(SiteId(site - 1), name, v);
                        oracle::set_site(&mut old, SiteId(site - 1), name, v);
                    }
                }
                handle.commit_sample(t, &mut writer);
                expected.push(oracle::commit(&reg.borrow(), old));
            }
            let samples = handle.samples();
            prop_assert_eq!(render_jsonl(&samples), render_jsonl(&expected));
            prop_assert_eq!(samples, expected);
        }

        /// Every value lands in exactly the bucket whose documented
        /// boundaries contain it, and the boundaries tile `u64` without
        /// gaps or overlap.
        #[test]
        fn bucket_boundaries_contain_their_values(v in any::<u64>()) {
            let b = Histogram::bucket_of(v);
            prop_assert!(b < HIST_BUCKETS);
            prop_assert!(Histogram::bucket_lo(b) <= v);
            prop_assert!(v <= Histogram::bucket_hi(b));
        }

        /// Adjacent buckets abut exactly: `hi(i) + 1 == lo(i+1)`.
        #[test]
        fn buckets_tile_without_gaps(i in 0usize..HIST_BUCKETS - 1) {
            prop_assert_eq!(
                Histogram::bucket_hi(i).wrapping_add(1),
                Histogram::bucket_lo(i + 1)
            );
        }

        /// JSONL serialization round-trips arbitrary samples built from
        /// the legal name alphabet.
        #[test]
        fn jsonl_round_trip(
            t in 0u64..u64::MAX / 2,
            vals in proptest::collection::vec((0u8..40, any::<u64>()), 0..6),
            hist in proptest::collection::vec((0u8..HIST_BUCKETS as u8, 1u64..1000), 0..5),
        ) {
            let mut s = Sample::new(SimTime::from_micros(t));
            s.values = vals
                .into_iter()
                .map(|(i, v)| (format!("m{i}.x_{}", i % 7), v))
                .collect();
            let mut buckets: Vec<(u8, u64)> = hist;
            buckets.sort_unstable();
            buckets.dedup_by_key(|p| p.0);
            if !buckets.is_empty() {
                s.hists.insert("h".into(), buckets);
            }
            let back = Sample::from_jsonl(&s.to_jsonl()).expect("round trip parses");
            prop_assert_eq!(back, s);
        }
    }
}
