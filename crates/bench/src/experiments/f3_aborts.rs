//! **F3 — Abort rate vs data contention.**
//!
//! The database shrinks from 1000 keys to 5 while the offered load stays
//! fixed, driving up conflicts. Reported per protocol: abort fraction and
//! the dominant abort reason. Expected shape: all protocols abort more as
//! contention rises; the baseline adds timeout (deadlock) aborts, the
//! causal protocol converts conflicts into deterministic concurrent-loser
//! aborts, and the atomic protocol into certification failures.

use super::{cross, Run};
use crate::f2;
use bcastdb_core::{Cluster, ProtocolKind};
use bcastdb_sim::SimDuration;
use bcastdb_workload::{WorkloadConfig, WorkloadRun};

const HEADERS: [&str; 10] = [
    "keys",
    "protocol",
    "commits",
    "aborts",
    "abort_rate",
    "wounded",
    "concurrent",
    "certif",
    "timeout",
    "neg_vote",
];

pub(super) fn run(run: &mut Run) {
    let configs = cross(&[1000usize, 100, 50, 20, 10, 5], &ProtocolKind::ALL);
    run.sweep("f3_aborts", &HEADERS, configs, |run, &(n_keys, proto)| {
        let cfg = WorkloadConfig {
            n_keys,
            theta: 0.8,
            reads_per_txn: 1,
            writes_per_txn: 2,
            readonly_fraction: 0.0,
            ..WorkloadConfig::default()
        };
        let label = format!("{proto}-{n_keys}");
        let builder = Cluster::builder().sites(5).protocol(proto).seed(13);
        let mut cluster = run.cluster(builder, &label);
        let workload = WorkloadRun::new(cfg, 130 + n_keys as u64);
        let report = workload.open_loop(&mut cluster, 20, SimDuration::from_millis(4));
        Run::validated(&report, &cluster, &label);
        let m = report.metrics;
        let cells = vec![
            n_keys.to_string(),
            proto.name().to_string(),
            m.commits().to_string(),
            m.aborts().to_string(),
            f2(m.abort_rate()),
            m.counters.get("abort_wounded").to_string(),
            m.counters.get("abort_concurrent").to_string(),
            m.counters.get("abort_certification").to_string(),
            m.counters.get("abort_timeout").to_string(),
            m.counters.get("abort_negative_vote").to_string(),
        ];
        (cells, run.finish(cluster))
    });
}
