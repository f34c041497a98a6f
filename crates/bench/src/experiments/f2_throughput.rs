//! **F2 — Throughput vs multiprogramming level.**
//!
//! Closed-loop: every site runs `MPL` clients, each submitting its next
//! transaction the moment the previous one terminates. Committed
//! transactions per virtual second, for all four protocols on a 5-site
//! cluster. Expected shape: throughput rises with MPL until contention
//! (and, for the baseline, per-operation ack round trips) flattens it;
//! the atomic protocol peaks highest, the baseline lowest.
//!
//! Commits are also bucketed into a per-run time series
//! ([`bcastdb_sim::trace::TimeSeries`], 50 ms windows): the
//! `win_commits_*` columns show how commit throughput ramps over the run
//! and `peak_tps` is the busiest window's rate — the sustained-vs-burst
//! distinction a single `tps` number hides.

use super::{cross, Run};
use crate::f2;
use bcastdb_core::{Cluster, ProtocolKind};
use bcastdb_sim::SimDuration;
use bcastdb_workload::{WorkloadConfig, WorkloadRun};

/// Commit time-series bucket width.
const WINDOW_MS: u64 = 50;
/// How many leading windows get their own CSV column.
const SHOWN_WINDOWS: usize = 4;

pub(super) fn run(run: &mut Run) {
    let cfg = WorkloadConfig {
        n_keys: 500,
        theta: 0.8,
        reads_per_txn: 2,
        writes_per_txn: 2,
        readonly_fraction: 0.2,
        ..WorkloadConfig::default()
    };
    let mut headers = ["mpl", "protocol", "commits", "aborts", "tps", "mean_lat_ms"]
        .map(String::from)
        .to_vec();
    for i in 0..SHOWN_WINDOWS {
        headers.push(format!("win_commits_{i}"));
    }
    headers.push("peak_tps".to_string());
    let configs = cross(&[1usize, 2, 4, 8, 16], &ProtocolKind::ALL);
    run.sweep("f2_throughput", &headers, configs, |run, &(mpl, proto)| {
        eprintln!("[f2] mpl={mpl} protocol={}", proto.name());
        let label = format!("{proto}-mpl{mpl}");
        let builder = Cluster::builder()
            .sites(5)
            .protocol(proto)
            .commit_window(SimDuration::from_millis(WINDOW_MS))
            .seed(11);
        let mut cluster = run.cluster(builder, &label);
        let workload = WorkloadRun::new(cfg.clone(), 110 + mpl as u64);
        let report = workload.closed_loop(&mut cluster, mpl, 12);
        Run::validated(&report, &cluster, &label);
        let m = report.metrics;
        let series = m
            .commit_series
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: commit series not recorded"));
        assert_eq!(
            series.total(),
            m.commits(),
            "{label}: commit series must account for every commit"
        );
        let buckets = series.buckets();
        let peak_tps = series
            .peak()
            .map(|(_, c)| c as f64 * 1000.0 / WINDOW_MS as f64)
            .unwrap_or(0.0);
        let mut cells = vec![
            mpl.to_string(),
            proto.name().to_string(),
            m.commits().to_string(),
            m.aborts().to_string(),
            f2(report.throughput_tps),
            format!("{:.3}", m.update_latency.mean().as_millis_f64()),
        ];
        for i in 0..SHOWN_WINDOWS {
            cells.push(buckets.get(i).copied().unwrap_or(0).to_string());
        }
        cells.push(f2(peak_tps));
        (cells, run.finish(cluster))
    });
}
