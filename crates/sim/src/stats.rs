//! Deterministic, virtual-time metrics: every series is pulled from the
//! state that holds it, at fixed sim-clock boundaries.
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
//! Metrics flow one way. Nothing records into this module between samples:
//! at each boundary the driver asks the event queue, the network and every
//! [`Node`](crate::Node) to write what they hold into one reused
//! [`SampleWriter`] — gauges and counts per site, and cluster-wide sums and
//! log2-bucket [`Histogram`]s that each site adds its share to. A run
//! without metrics therefore pays nothing, and sampling never schedules
//! events: the driver samples *between* events, so enabling metrics cannot
//! perturb event sequence numbers, delivery order, or any simulation output.
//!
//! [`StatsRegistry`] stores each sample as one row of `u64`s, under a name
//! table shared by every consecutive sample that set the same series in the
//! same order; [`Sample`] is the read view, rebuilt from the rows by
//! [`StatsRegistry::samples`].
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
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of histogram buckets: one for zero plus one per power of two.
const HIST_BUCKETS: usize = 65;

/// A log2-bucket histogram of `u64` observations, kept as its bucket
/// counts, which is all a sample stores of it. Its owner records into it;
/// the sampler adds it in with [`SampleWriter::add_hist`].
///
/// Bucket `0` holds exactly the value `0`; bucket `i ≥ 1` holds the range
/// `[2^(i-1), 2^i - 1]`. Every `u64` maps to exactly one bucket, so the
/// bucket counts always sum to the observation count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram([u64; HIST_BUCKETS]);

impl Default for Histogram {
    fn default() -> Self {
        Histogram([0; HIST_BUCKETS])
    }
}

impl Histogram {
    /// The bucket index a value falls into.
    fn bucket_of(v: u64) -> usize {
        64 - v.leading_zeros() as usize
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.0[Self::bucket_of(v)] += 1;
    }

    /// Adds `other`'s observations to these.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    /// The non-empty buckets, as `(bucket, count)`.
    fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let counts = self.0.iter().enumerate();
        counts.filter(|&(_, &c)| c > 0).map(|(b, &c)| (b as u64, c))
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
    /// Every histogram added in the run, holding this sample's sum.
    hists: Vec<(&'static str, Histogram)>,
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

    /// Adds one site's share to the cluster-wide series `name` (no site
    /// prefix): the sample holds the sum of every share added to it since
    /// the name was last set.
    pub fn add(&mut self, name: &'static str, v: u64) {
        let series = Series(None, name);
        match self.series[..self.len].iter().rposition(|&s| s == series) {
            Some(i) => self.row[i] += v,
            None => self.put(series, v),
        }
    }

    /// Adds one site's observations to the cluster-wide histogram `name`:
    /// the sample holds the bucket-wise sum, and leaves it out while that
    /// holds no observation.
    pub fn add_hist(&mut self, name: &'static str, h: &Histogram) {
        debug_assert!(name_ok(name), "bad metric name {name:?}");
        match self.hists.iter_mut().find(|(n, _)| *n == name) {
            Some((_, sum)) => sum.merge(h),
            None if h.buckets().next().is_some() => self.hists.push((name, h.clone())),
            None => {}
        }
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
/// in the same order and added the same histograms.
#[derive(Debug, Clone)]
struct Table {
    samples: usize,
    series: Vec<Series>,
    hists: Vec<&'static str>,
}

/// The samples of one run, each stored as one row.
#[derive(Debug, Clone)]
pub struct StatsRegistry {
    interval: SimDuration,
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
            tables: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The sampling period.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Stores the sample `w` holds as one row stamped `at`, and readies
    /// `w` for the next sample.
    pub fn commit_sample(&mut self, at: SimTime, w: &mut SampleWriter) {
        w.series.truncate(w.len);
        w.row.truncate(w.len);
        w.len = 0;
        let hists = w.hists.iter().filter(|(_, h)| h.buckets().next().is_some());
        let names = hists.clone().map(|&(name, _)| name);
        match self.tables.last_mut() {
            Some(t) if t.series == w.series && t.hists.iter().copied().eq(names.clone()) => {
                t.samples += 1;
            }
            _ => self.tables.push(Table {
                samples: 1,
                series: w.series.clone(),
                hists: names.collect(),
            }),
        }
        self.rows.push(at.as_micros());
        self.rows.extend_from_slice(&w.row);
        for (_, h) in hists {
            self.rows.push(h.buckets().count() as u64);
            self.rows.extend(h.buckets().flat_map(|(b, c)| [b, c]));
        }
        for (_, h) in &mut w.hists {
            *h = Histogram::default();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Smallest value of bucket `i`, as the schema documents it.
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Largest value of bucket `i`, as the schema documents it.
    fn bucket_hi(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    #[test]
    fn bucket_edges_land_where_documented() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histograms_sample_as_sparse_bucket_counts() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 5, 5, 100] {
            h.record(v);
        }
        let mut reg = StatsRegistry::new(SimDuration::from_millis(1));
        let mut w = SampleWriter::default();
        w.add_hist("flush", &h);
        reg.commit_sample(SimTime::from_micros(1000), &mut w);
        assert_eq!(
            reg.samples()[0].hists["flush"],
            vec![(0, 1), (1, 1), (3, 2), (7, 1)]
        );
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

    /// Each sample sums the shares its sites add, with no site prefix, and
    /// starts from zero; a histogram no site recorded into stays out.
    #[test]
    fn cluster_series_sum_over_sites() {
        let mut reg = StatsRegistry::new(SimDuration::from_millis(1));
        let mut w = SampleWriter::default();
        let (mut flush, idle) = (Histogram::default(), Histogram::default());
        flush.record(4);
        for at in [1_000, 2_000] {
            for (site, n) in [(0, 3), (1, 0), (2, 2)] {
                w.set_site(SiteId(site), "retrans", n);
                w.add("retrans", n);
                w.add_hist("flush", &flush);
                w.add_hist("idle", &idle);
            }
            reg.commit_sample(SimTime::from_micros(at), &mut w);
        }
        let samples = reg.samples();
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert_eq!(s.values["retrans"], 5);
            assert_eq!(s.values["s0.retrans"], 3);
            assert_eq!(s.hists["flush"], vec![(3, 3)]);
            assert!(!s.hists.contains_key("idle"));
        }
        assert_eq!(reg.tables.len(), 1, "a repeated sample reuses its table");
    }

    #[test]
    #[should_panic(expected = "nonzero interval")]
    fn zero_interval_is_rejected() {
        let _ = StatsRegistry::new(SimDuration::ZERO);
    }

    /// The map-building store the rows replaced: a sample is a [`Sample`]
    /// filled name by name as the sampler calls in.
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

        pub fn add(s: &mut Sample, name: &str, v: u64) {
            *s.values.entry(name.to_owned()).or_insert(0) += v;
        }

        pub fn add_hist(s: &mut Sample, name: &str, h: &Histogram) {
            let mut sum = BTreeMap::new();
            for &(b, c) in s.hists.get(name).into_iter().flatten() {
                sum.insert(b, c);
            }
            for (b, &c) in h.0.iter().enumerate().filter(|&(_, &c)| c > 0) {
                *sum.entry(b as u8).or_insert(0) += c;
            }
            if !sum.is_empty() {
                s.hists.insert(name.to_owned(), sum.into_iter().collect());
            }
        }
    }

    /// Sampler-side names; `s1.x` is also what `x` at site 1 renders as.
    const NAMES: [&str; 5] = ["x", "queue_depth", "net.msgs_sent", "s1.x", "retrans"];
    /// Cluster-wide names; `retrans` is a sampler-side name too.
    const ADDED: [&str; 3] = ["retrans", "flush", "depth"];

    proptest! {
        /// The rows give back, sample for sample, what the map-building
        /// store built from the same calls, through series that appear
        /// mid-run, disappear, change places or are set twice in a sample,
        /// and cluster-wide counts and histograms, kept by two sites, that
        /// start mid-run (some histograms still empty).
        #[test]
        fn rows_agree_with_the_map_store(
            start in proptest::collection::vec((0usize..NAMES.len(), 0usize..4), 1..6),
            steps in proptest::collection::vec((0u8..7, any::<u64>(), 0usize..8, 0u8..4), 1..16),
        ) {
            // A series is a name and a site code: 0 global, else site code - 1.
            let mut series = start;
            // What each of two sites holds under a cluster-wide name.
            let mut counts: BTreeMap<(&str, u64), u64> = BTreeMap::new();
            let mut hists: BTreeMap<(&str, u64), Histogram> = BTreeMap::new();
            let mut reg = StatsRegistry::new(SimDuration::from_millis(1));
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
                let share = (ADDED[seed as usize % ADDED.len()], (seed >> 16) % 2);
                match push {
                    1 => *counts.entry(share).or_insert(0) += seed % 9,
                    2 => hists.entry(share).or_default().record(seed >> (seed % 64)),
                    3 => drop(hists.entry(share).or_default()),
                    _ => {}
                }
                let t = SimTime::from_micros(1_000 * (i as u64 + 1));
                let mut old = Sample::new(t);
                for (j, &(name, site)) in series.iter().enumerate() {
                    let (name, v) = (NAMES[name], seed.wrapping_add(j as u64) >> 1);
                    if site == 0 {
                        writer.set(name, v);
                        oracle::set(&mut old, name, v);
                    } else {
                        writer.set_site(SiteId(site - 1), name, v);
                        oracle::set_site(&mut old, SiteId(site - 1), name, v);
                    }
                }
                for (&(name, _), &v) in &counts {
                    writer.add(name, v);
                    oracle::add(&mut old, name, v);
                }
                for (&(name, _), h) in &hists {
                    writer.add_hist(name, h);
                    oracle::add_hist(&mut old, name, h);
                }
                reg.commit_sample(t, &mut writer);
                expected.push(old);
            }
            let samples = reg.samples();
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
            prop_assert!(bucket_lo(b) <= v);
            prop_assert!(v <= bucket_hi(b));
        }

        /// Adjacent buckets abut exactly: `hi(i) + 1 == lo(i+1)`.
        #[test]
        fn buckets_tile_without_gaps(i in 0usize..HIST_BUCKETS - 1) {
            prop_assert_eq!(
                bucket_hi(i).wrapping_add(1),
                bucket_lo(i + 1)
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
