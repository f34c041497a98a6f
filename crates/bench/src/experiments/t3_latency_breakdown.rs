//! **T3 — Where does commit latency go, per protocol.**
//!
//! Reconstructs per-transaction spans from the trace of a fixed workload
//! and decomposes every committed update's latency into the five segments
//! (read / disseminate / order_wait / votes / decide), per protocol. This
//! is the per-phase story behind figure F1: the point-to-point baseline's
//! time sits in `disseminate` (per-operation ack round trips), the
//! reliable protocol's in the vote round, the causal protocol's in the
//! implicit-acknowledgement wait, and the atomic protocol's in the
//! ordering wait.
//!
//! The decomposition is exact: for every committed update transaction the
//! five segments sum to the end-to-end latency in `Metrics`, to the
//! microsecond (asserted here on every run, and by the tier-1 test
//! `tests/span_decomposition.rs`).
//!
//! With `--trace-out <base.jsonl>` each protocol's full trace is written
//! to `<base>-<protocol>.jsonl` for `bcast-trace` to consume, and with
//! `--metrics-out <base.jsonl>` the deterministic metrics sampler's 1 ms
//! samples land in `<base>-<protocol>.jsonl` — feed both to `bcast-trace
//! export` for a Perfetto view of the run.

use super::Run;
use crate::{f2, segment_cells, segment_headers};
use bcastdb_core::{Cluster, ProtocolKind};
use bcastdb_sim::telemetry::{summarize, Segment};
use bcastdb_sim::SimDuration;
use bcastdb_workload::{WorkloadConfig, WorkloadRun};

pub(super) fn run(run: &mut Run) {
    let cfg = WorkloadConfig {
        n_keys: 1000,
        theta: 0.6,
        reads_per_txn: 2,
        writes_per_txn: 2,
        readonly_fraction: 0.0,
        ..WorkloadConfig::default()
    };
    let mut headers = vec!["protocol".to_string(), "commits".to_string()];
    headers.extend(segment_headers());
    headers.extend(["mean_ms", "p95_ms", "dominant"].map(String::from));

    let name = "t3_latency_breakdown";
    run.sweep(name, &headers, ProtocolKind::ALL.to_vec(), |run, &proto| {
        let builder = Cluster::builder().sites(5).protocol(proto).seed(23);
        let mut cluster = run.cluster(builder, proto.name());
        let workload = WorkloadRun::new(cfg.clone(), 230);
        let report = workload.open_loop(&mut cluster, 40, SimDuration::from_millis(15));
        Run::validated(&report, &cluster, proto.name());

        let spans = cluster.txn_spans();
        let summary = summarize(spans.values());

        // The whole point of the decomposition: per transaction, the five
        // segments sum exactly to the latency the metrics layer recorded.
        let mut span_totals: Vec<u64> = spans
            .values()
            .filter(|s| !s.read_only)
            .filter_map(|s| s.decompose())
            .map(|b| b.total().as_micros())
            .collect();
        let mut recorded: Vec<u64> = report.metrics.update_latency.samples().to_vec();
        span_totals.sort_unstable();
        recorded.sort_unstable();
        assert_eq!(
            span_totals, recorded,
            "{proto}: segment sums must equal recorded end-to-end latencies"
        );

        // Dominant segment of the mean breakdown (largest mean segment).
        let dominant = Segment::ALL
            .iter()
            .max_by_key(|s| summary.segment(**s).mean().as_micros())
            .expect("nonempty");
        let mut cells = vec![proto.name().to_string(), summary.count().to_string()];
        cells.extend(segment_cells(&summary));
        cells.push(f2(summary.end_to_end.mean().as_millis_f64()));
        cells.push(f2(summary.end_to_end.p95().as_millis_f64()));
        cells.push(dominant.name().to_string());

        (cells, run.finish(cluster))
    });
}
