//! **F5 — Effect of the read-only fraction.**
//!
//! Read-only transactions execute entirely locally in every protocol, but
//! their *guarantees* differ: the reliable and causal protocols never abort
//! them (writers wait or are vetoed), while the atomic protocol wounds
//! conflicting local readers to keep applies acknowledgement-free.
//!
//! Reported per protocol as the read-only fraction grows: throughput,
//! read-only commit latency, and read-only aborts (nonzero only for the
//! atomic protocol under contention).

use super::{cross, Run};
use crate::f2;
use bcastdb_core::{Cluster, ProtocolKind};
use bcastdb_sim::SimDuration;
use bcastdb_workload::{WorkloadConfig, WorkloadRun};

const HEADERS: [&str; 8] = [
    "ro_frac",
    "protocol",
    "commits",
    "ro_commits",
    "aborts",
    "ro_aborted",
    "ro_latency_ms",
    "tps",
];

pub(super) fn run(run: &mut Run) {
    let configs = cross(&[0.0f64, 0.25, 0.5, 0.75, 1.0], &ProtocolKind::ALL);
    run.sweep("f5_readonly", &HEADERS, configs, |run, &(ro, proto)| {
        let cfg = WorkloadConfig {
            n_keys: 40,
            theta: 0.9,
            reads_per_txn: 1,
            writes_per_txn: 2,
            reads_per_ro_txn: 6,
            readonly_fraction: ro,
        };
        let label = format!("{proto}-ro{ro}");
        let builder = Cluster::builder()
            .sites(5)
            .protocol(proto)
            // Clients issue reads sequentially (1ms think time): read
            // phases overlap remote applies, which is where the
            // protocols' read-only guarantees actually differ.
            .think_time(SimDuration::from_millis(1))
            .seed(23);
        let mut cluster = run.cluster(builder, &label);
        let workload = WorkloadRun::new(cfg, 230 + (ro * 100.0) as u64);
        let report = workload.open_loop(&mut cluster, 25, SimDuration::from_millis(3));
        Run::validated(&report, &cluster, &label);
        let m = report.metrics;
        let cells = vec![
            format!("{ro:.2}"),
            proto.name().to_string(),
            m.commits().to_string(),
            m.readonly_latency.count().to_string(),
            m.aborts().to_string(),
            m.counters.get("aborts_readonly").to_string(),
            format!("{:.3}", m.readonly_latency.mean().as_millis_f64()),
            f2(report.throughput_tps),
        ];
        (cells, run.finish(cluster))
    });
    run.say(
        "\nGuarantee check: in the reliable and causal protocols every submitted\n\
         read-only transaction commits; only the atomic protocol trades read-only\n\
         stability for acknowledgement-free commitment.",
    );
}
