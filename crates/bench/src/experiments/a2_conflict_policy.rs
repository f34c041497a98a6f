//! **A2 (ablation) — Wound-wait vs wait-die in the reliable protocol.**
//!
//! The §3 protocol prevents deadlock with a priority scheme; this ablation
//! compares the two classical choices under rising contention. Expected
//! shape: wait-die aborts more (every younger requester dies immediately)
//! but keeps latencies slightly lower; wound-wait aborts fewer and favours
//! old transactions.

use super::{cross, Run};
use crate::f2;
use bcastdb_core::{Cluster, ConflictPolicy, ProtocolKind};
use bcastdb_sim::SimDuration;
use bcastdb_workload::{WorkloadConfig, WorkloadRun};

const HEADERS: [&str; 6] = [
    "keys",
    "policy",
    "commits",
    "aborts",
    "abort_rate",
    "mean_ms",
];

pub(super) fn run(run: &mut Run) {
    let policies = [
        ("wound-wait", ConflictPolicy::WoundWait),
        ("wait-die", ConflictPolicy::WaitDie),
    ];
    let configs = cross(&[200usize, 50, 20, 10, 5], &policies);
    let table = "a2_conflict_policy";
    run.sweep(
        table,
        &HEADERS,
        configs,
        |run, &(n_keys, (name, policy))| {
            let cfg = WorkloadConfig {
                n_keys,
                theta: 0.8,
                reads_per_txn: 1,
                writes_per_txn: 2,
                ..WorkloadConfig::default()
            };
            let label = format!("{name}-{n_keys}");
            let builder = Cluster::builder()
                .sites(5)
                .protocol(ProtocolKind::ReliableBcast)
                .policy(policy)
                .seed(31);
            let mut cluster = run.cluster(builder, &label);
            let workload = WorkloadRun::new(cfg, 310 + n_keys as u64);
            let report = workload.open_loop(&mut cluster, 20, SimDuration::from_millis(4));
            Run::validated(&report, &cluster, &label);
            let m = report.metrics;
            let cells = vec![
                n_keys.to_string(),
                name.to_string(),
                m.commits().to_string(),
                m.aborts().to_string(),
                f2(m.abort_rate()),
                format!("{:.3}", m.update_latency.mean().as_millis_f64()),
            ];
            (cells, run.finish(cluster))
        },
    );
}
