//! Work-count gates: exact, deterministic counts of what a layer does per
//! unit of work, read from the `sim::stats` registry. A count does not
//! depend on the machine, so these hold on a noisy box where a timing
//! could not.

use bcastdb::prelude::*;
use bcastdb::protocols::ProtocolKind;

/// Peers P-CB's commit evaluation examines per transaction, closed loop on
/// uniform keys, `txns_per_client` transactions from each of 4 clients at
/// each of 5 sites.
fn pcb_peers_examined_per_txn(txns_per_client: usize) -> f64 {
    let cfg = WorkloadConfig {
        n_keys: 500,
        theta: 0.0,
        reads_per_txn: 2,
        writes_per_txn: 2,
        readonly_fraction: 0.0,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::CausalBcast)
        .seed(11)
        .metrics(SimDuration::from_secs(1))
        .build();
    let report = WorkloadRun::new(cfg, 11).closed_loop(&mut c, 4, txns_per_client);
    assert!(report.quiesced && report.converged && report.all_terminated());
    c.check_serializability().expect("serializable");
    c.metrics_counter("cb.decide_peers_examined") as f64 / report.submitted as f64
}

/// P-CB's decision must look only at transactions still live on the keys
/// it writes: the work per transaction may not grow with the length of the
/// run. (Walking every transaction the site has seen, as `try_decide` once
/// did, or an index that is never pruned, both grow ~4x here.)
#[test]
fn pcb_decision_work_does_not_grow_with_history() {
    let short = pcb_peers_examined_per_txn(15);
    let long = pcb_peers_examined_per_txn(60);
    assert!(short > 0.0, "the counter is wired: {short}");
    assert!(
        long < 1.25 * short,
        "peers examined per transaction grew {:.2}x ({short:.3} -> {long:.3}) over a 4x longer run",
        long / short
    );
}
