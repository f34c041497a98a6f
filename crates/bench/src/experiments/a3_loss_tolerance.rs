//! **A3 (ablation) — The price of loss tolerance.**
//!
//! Reliable broadcast's *agreement* property is what the replication
//! protocols buy their simplicity with. On a lossless network the direct
//! implementation (one copy per receiver) suffices; tolerating message
//! loss costs an eager relay flood plus keep-alive/retransmission traffic.
//! This ablation measures that price and verifies the guarantees survive
//! actual loss.

use super::{cross, Run};
use crate::f2;
use bcastdb_core::{Cluster, ProtocolKind};
use bcastdb_sim::{NetworkConfig, SimDuration};
use bcastdb_workload::{WorkloadConfig, WorkloadRun};

const HEADERS: [&str; 7] = [
    "protocol", "loss", "relay", "commits", "aborts", "messages", "mean_ms",
];

pub(super) fn run(run: &mut Run) {
    let cfg = WorkloadConfig {
        n_keys: 300,
        theta: 0.5,
        reads_per_txn: 1,
        writes_per_txn: 2,
        ..WorkloadConfig::default()
    };
    let networks = [
        (0.0, false),
        (0.0, true),
        (0.02, true),
        (0.05, true),
        (0.10, true),
    ];
    let protocols = [ProtocolKind::ReliableBcast, ProtocolKind::CausalBcast];
    let configs = cross(&protocols, &networks);
    let table = "a3_loss_tolerance";
    run.sweep(table, &HEADERS, configs, |run, &(proto, (loss, relay))| {
        // Loss 0 runs with and without the relay: the label says which.
        let label = format!("{proto}-loss{loss}-{relay}");
        let builder = Cluster::builder()
            .sites(4)
            .protocol(proto)
            .network(NetworkConfig::lan().with_loss(loss))
            .relay(relay)
            .seed(83);
        let mut cluster = run.cluster(builder, &label);
        let workload = WorkloadRun::new(cfg.clone(), 830);
        let report = workload.open_loop(&mut cluster, 15, SimDuration::from_millis(8));
        Run::validated(&report, &cluster, &label);
        let m = report.metrics;
        let cells = vec![
            proto.name().to_string(),
            format!("{:.0}%", loss * 100.0),
            relay.to_string(),
            m.commits().to_string(),
            m.aborts().to_string(),
            report.messages.to_string(),
            f2(m.update_latency.mean().as_millis_f64()),
        ];
        (cells, run.finish(cluster))
    });
    run.say(
        "\nEvery lossy run stayed one-copy serializable with all replicas converged —\n\
         the relay flood plus origin-retransmission buys agreement under loss.",
    );
}
