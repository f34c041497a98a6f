//! Wide-area replication: the same protocols over ~20ms links instead of
//! a ~1ms LAN. The message-round differences between the protocols turn
//! into tens of milliseconds of commit latency — the baseline's
//! per-operation acknowledgement rounds become ruinous, while the atomic
//! protocol's single ordered broadcast barely notices.
//!
//! Run with: `cargo run --release --example wan_replication`

use bcastdb::prelude::*;
use bcastdb::protocols::ProtocolKind;
use bcastdb::sim::NetworkConfig;
use bcastdb::workload::{WorkloadConfig, WorkloadRun};

fn main() {
    println!("5 replicas over a WAN (≈20ms one-way), moderate-contention workload\n");
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>12}",
        "protocol", "commits", "aborts", "mean-commit", "p95-commit"
    );
    for proto in ProtocolKind::ALL {
        let mut cluster = Cluster::builder()
            .sites(5)
            .protocol(proto)
            .network(NetworkConfig::wan())
            // Null-message keep-alives tuned up for WAN round trips.
            .tick_every(SimDuration::from_millis(25))
            .p2p_timeout(SimDuration::from_secs(5))
            .seed(3)
            .build();
        let cfg = WorkloadConfig {
            n_keys: 200,
            theta: 0.8,
            readonly_fraction: 0.2,
            ..WorkloadConfig::default()
        };
        let run = WorkloadRun::new(cfg, 33);
        let report = run.open_loop(&mut cluster, 25, SimDuration::from_millis(120));
        cluster
            .check_serializability()
            .unwrap_or_else(|v| panic!("{proto}: {v}"));
        let m = report.metrics;
        println!(
            "{:<10} {:>8} {:>8} {:>12} {:>12}",
            proto.name(),
            m.commits(),
            m.aborts(),
            format!("{}", m.update_latency.mean()),
            format!("{}", m.update_latency.p95()),
        );
    }
    println!(
        "\nNote the gap between the baseline (2 round trips per WRITE plus the\n\
         vote round) and the atomic protocol (one ordered broadcast, no acks)."
    );
}
