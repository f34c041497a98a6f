//! **F1 — Commit latency vs number of replicas.**
//!
//! Mean (and p95) update-commit latency for all four protocols as the
//! system grows. Expected shape: the point-to-point baseline grows fastest
//! (per-operation ack round trips), the reliable protocol pays a fixed
//! vote round, the causal protocol sits near it (acks ride on traffic),
//! and the atomic protocol is flattest (one ordered broadcast, no
//! acknowledgements).
//!
//! Each row also carries the mean per-segment latency decomposition
//! (`seg_*_ms`, reconstructed from the trace) so the growth can be
//! attributed: the baseline's curve lives in `seg_disseminate_ms`, the
//! reliable protocol's in `seg_votes_ms`, the atomic protocol's in
//! `seg_order_wait_ms`. With `--trace-out <base.jsonl>` each run's full
//! trace lands in `<base>-<protocol>-<sites>.jsonl` for `bcast-trace`.

use super::{cross, Run};
use crate::{segment_cells, segment_headers};
use bcastdb_core::{Cluster, ProtocolKind};
use bcastdb_sim::telemetry::summarize;
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
    let mut headers = [
        "sites", "protocol", "commits", "aborts", "mean_ms", "p95_ms",
    ]
    .map(String::from)
    .to_vec();
    headers.extend(segment_headers());

    let configs = cross(&[3usize, 5, 7, 9, 13], &ProtocolKind::ALL);
    run.sweep("f1_latency_vs_n", &headers, configs, |run, &(n, proto)| {
        let label = format!("{proto}-{n}");
        let builder = Cluster::builder().sites(n).protocol(proto).seed(7);
        let mut cluster = run.cluster(builder, &label);
        let workload = WorkloadRun::new(cfg.clone(), 70 + n as u64);
        let report = workload.open_loop(&mut cluster, 30, SimDuration::from_millis(20));
        Run::validated(&report, &cluster, &label);
        let summary = summarize(cluster.txn_spans().values());
        let m = report.metrics;
        let mut cells = vec![
            n.to_string(),
            proto.name().to_string(),
            m.commits().to_string(),
            m.aborts().to_string(),
            format!("{:.3}", m.update_latency.mean().as_millis_f64()),
            format!("{:.3}", m.update_latency.p95().as_millis_f64()),
        ];
        cells.extend(segment_cells(&summary));
        (cells, run.finish(cluster))
    });
}
