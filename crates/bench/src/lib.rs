//! # bcastdb-bench
//!
//! The experiment harness: one table of experiments
//! ([`experiments::ALL`], one entry per table / figure of the reproduced
//! evaluation — `t1_messages`, `t2_failures`, `f1_latency_vs_n` …
//! `a3_loss_tolerance`, `chaos`) and one driver (`run_all`, alone for the
//! whole suite or with `--only <name>` for one entry).
//!
//! Every experiment is a `fn(&mut Run)`: the [`experiments::Run`] context
//! builds its clusters with tracing enabled ([`TRACE_CAPACITY`], plus the
//! `--trace-out` / `--metrics-out` files), runs its sweeps on
//! `BCASTDB_JOBS` worker threads ([`Sweep`]), validates each run
//! ([`experiments::Run::validated`], [`check_traced_run`]: the offline
//! trace invariant checker must accept the execution and the per-phase
//! message totals must sum to the flat counters), and prints through
//! [`Table`] (aligned console output, mirrored to
//! `$BCASTDB_RESULTS_DIR/<name>.csv` when that variable is set).
//! [`phase_headers`] / [`phase_cells`] append the per-phase breakdown
//! (`prepare,vote,ack,decision,retransmit,membership`) as extra columns.
//!
//! # Example
//!
//! ```
//! use bcastdb_bench::{phase_cells, phase_headers, Table};
//! use bcastdb_core::{Cluster, ProtocolKind, TxnSpec};
//! use bcastdb_sim::SiteId;
//!
//! let mut cluster = Cluster::builder()
//!     .sites(3)
//!     .protocol(ProtocolKind::ReliableBcast)
//!     .trace(1024)
//!     .seed(7)
//!     .build();
//! cluster.submit(SiteId(0), TxnSpec::new().write("x", 1));
//! cluster.run_to_quiescence();
//! bcastdb_bench::check_traced_run(&cluster, "doc-example");
//!
//! let mut headers = vec!["messages"];
//! headers.extend(phase_headers());
//! let mut table = Table::new("doc_example", &headers);
//! let mut cells = vec![cluster.messages_sent().to_string()];
//! cells.extend(phase_cells(&cluster.phase_counts()));
//! table.row_strings(&cells);
//! print!("{}", table.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Everything that links this crate counts its heap allocations: in a
/// deterministic simulator the count is exactly reproducible, making
/// `allocs/event` a noise-free cost metric next to the wall-clock
/// `events_per_sec` (see `PERFORMANCE.md`). The probe is a relaxed counter increment per
/// allocation — far below measurement noise.
#[global_allocator]
static ALLOC_PROBE: bcastdb_memprobe::CountingAllocator = bcastdb_memprobe::CountingAllocator;

pub mod experiments;
pub mod faultplan;
pub mod harness;
pub mod nemesis;
pub mod perfdiff;
pub mod perfetto;

pub use harness::{write_wallclock_json, LedgerEntry, Sweep, SweepOutcome};

use bcastdb_core::Cluster;
use bcastdb_sim::telemetry::{Phase, PhaseCounts, Segment, SegmentSummary};
use std::path::{Path, PathBuf};

/// Ring-buffer capacity the experiments pass to
/// [`bcastdb_core::ClusterBuilder::trace`]. Only the retained tail is
/// bounded by this; the streaming invariant checker sees every event.
pub const TRACE_CAPACITY: usize = 4096;

/// Per-phase breakdown column headers, in [`Phase::ALL`] order (the same
/// order [`phase_cells`] emits), for appending to a table's header row.
pub fn phase_headers() -> Vec<&'static str> {
    Phase::ALL.iter().map(|p| p.name()).collect()
}

/// The per-phase message tallies as table cells, in [`Phase::ALL`] order.
pub fn phase_cells(pc: &PhaseCounts) -> Vec<String> {
    Phase::ALL.iter().map(|p| pc.get(*p).to_string()).collect()
}

/// Per-segment latency column headers (`seg_<name>_ms`, mean milliseconds),
/// in [`Segment::ALL`] order — the same order [`segment_cells`] emits.
pub fn segment_headers() -> Vec<String> {
    Segment::ALL
        .iter()
        .map(|s| format!("seg_{}_ms", s.name()))
        .collect()
}

/// The mean per-segment latencies of a [`SegmentSummary`] as table cells
/// (milliseconds, two decimals), in [`Segment::ALL`] order. The cells sum
/// to the mean end-to-end commit latency up to integer-microsecond
/// truncation.
pub fn segment_cells(summary: &SegmentSummary) -> Vec<String> {
    Segment::ALL
        .iter()
        .map(|s| f2(summary.segment(*s).mean().as_millis_f64()))
        .collect()
}

/// Derives the per-run trace file for `label` from the `--trace-out` (or
/// `--metrics-out`) base path: `traces.jsonl` + `atomic` →
/// `traces-atomic.jsonl`. Experiments
/// that run one cluster per protocol/parameter must keep the runs in
/// separate files — transaction numbers restart per run, so concatenated
/// traces would trip `bcast-trace check`.
pub fn trace_out_for(base: &Path, label: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|e| e.to_str()).unwrap_or("jsonl");
    base.with_file_name(format!("{stem}-{label}.{ext}"))
}

/// Validates a traced experiment run: the trace invariant checker accepts
/// the execution.
///
/// # Panics
/// Panics with `label` on any violation — the experiments treat a bad
/// trace as a harness bug, not a data point.
pub fn check_traced_run(cluster: &Cluster, label: &str) {
    cluster
        .check_trace_invariants()
        .unwrap_or_else(|v| panic!("{label}: trace invariant violated: {v}"));
}

/// Like [`check_traced_run`], but tolerates transactions still in flight —
/// for experiments whose measured phenomenon *is* the wedged commit (the
/// causal protocol with keep-alives off on a quiet network).
///
/// # Panics
/// Panics with `label` on any other violation.
pub fn check_traced_run_allowing_pending(cluster: &Cluster, label: &str) {
    cluster
        .check_trace_invariants_allowing_pending()
        .unwrap_or_else(|v| panic!("{label}: trace invariant violated: {v}"));
}

/// A simple aligned-column table printer with optional CSV mirroring.
///
/// Every experiment prints its tables through this
/// ([`experiments::Run::emit`]), which also writes `<name>.csv` into
/// `BCASTDB_RESULTS_DIR` when that is set, so the series can be plotted.
#[derive(Debug)]
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given experiment name and column headers.
    pub fn new(name: &str, headers: &[impl AsRef<str>]) -> Self {
        Table {
            name: name.to_owned(),
            headers: headers.iter().map(|s| s.as_ref().to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row of formatted cells: sweep workers format their
    /// cells off-thread, the experiment appends them in config order.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row_strings(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// The CSV rendering of this table (headers + rows), exactly the bytes
    /// [`Table::write_csv`] writes.
    pub fn csv_bytes(&self) -> String {
        let mut csv = self.headers.join(",") + "\n";
        for r in &self.rows {
            csv.push_str(&r.join(","));
            csv.push('\n');
        }
        csv
    }

    /// Writes the table as `<dir>/<name>.csv`, creating `dir`, and returns
    /// the file's path.
    ///
    /// # Errors
    /// Any I/O error: an unwritable results directory fails the run
    /// instead of leaving it green with no CSVs.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        std::fs::write(&path, self.csv_bytes())?;
        Ok(path)
    }

    /// The console rendering: a `== name ==` banner, then right-aligned
    /// columns under a dashed rule.
    pub fn render(&self) -> String {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut text = format!("\n== {} ==\n", self.name);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        let header_line = header_line.join("  ");
        text.push_str(&header_line);
        text.push('\n');
        text.push_str(&"-".repeat(header_line.len()));
        text.push('\n');
        for r in &self.rows {
            let line: Vec<String> = r
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            text.push_str(&line.join("  "));
            text.push('\n');
        }
        text
    }
}

/// Formats a float with fixed precision for table cells.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as `x.xx×` (or `n/a` for a zero denominator).
pub fn ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        "n/a".to_owned()
    } else {
        format!("{:.2}x", num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_align() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row_strings(&["1".to_string(), "x".to_string()]);
        t.row_strings(&["22".to_string(), "yy".to_string()]);
        assert_eq!(
            t.render(),
            "\n== demo ==\n a  long-header\n---------------\n 1            x\n22           yy\n"
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.row_strings(&["1".to_string(), "2".to_string()]);
    }

    #[test]
    fn csv_write_errors_are_returned() {
        let file = std::env::temp_dir().join(format!("bcastdb-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "a regular file").expect("temp file");
        let t = Table::new("demo", &["a"]);
        let under_a_file = t.write_csv(&file.join("results"));
        let dir = std::env::temp_dir().join(format!("bcastdb-csv-dir-{}", std::process::id()));
        let written = t.write_csv(&dir).expect("writable dir");
        assert_eq!(std::fs::read_to_string(&written).expect("csv"), "a\n");
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(under_a_file.is_err(), "a results dir under a regular file");
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(1.0, 0.0), "n/a");
        assert_eq!(ratio(3.0, 2.0), "1.50x");
    }

    #[test]
    fn f2_formats_two_decimals() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f2(2.5), "2.50");
    }

    #[test]
    fn trace_out_for_labels_per_run() {
        assert_eq!(
            trace_out_for(Path::new("/tmp/traces.jsonl"), "atomic"),
            Path::new("/tmp/traces-atomic.jsonl")
        );
        assert_eq!(
            trace_out_for(Path::new("out"), "p2p"),
            Path::new("out-p2p.jsonl")
        );
    }

    #[test]
    fn segment_columns_match_segments() {
        let headers = segment_headers();
        assert_eq!(headers.len(), Segment::ALL.len());
        assert_eq!(headers[0], "seg_read_ms");
        let cells = segment_cells(&SegmentSummary::new());
        assert_eq!(cells.len(), headers.len());
        assert!(cells.iter().all(|c| c == "0.00"));
    }
}
