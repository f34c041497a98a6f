//! The constructive side of the correctness proof: after any run, the
//! cluster can produce an equivalent *serial* order of the committed
//! transactions (a topological order of the one-copy serialization graph),
//! plus a Graphviz rendering of the graph itself.
//!
//! Run with: `cargo run --example serialization_order`

use bcastdb::db::HistoryRecorder;
use bcastdb::prelude::*;
use bcastdb::protocols::ProtocolKind;

fn main() {
    let mut cluster = Cluster::builder()
        .sites(3)
        .protocol(ProtocolKind::ReliableBcast)
        .seed(5)
        .build();

    // A small dependent chain plus an independent writer.
    let t1 = cluster.submit_at(
        SimTime::from_micros(1_000),
        SiteId(0),
        TxnSpec::new().write("x", 10),
    );
    let t2 = cluster.submit_at(
        SimTime::from_micros(40_000),
        SiteId(1),
        TxnSpec::new().read("x").write("y", 20),
    );
    let t3 = cluster.submit_at(
        SimTime::from_micros(80_000),
        SiteId(2),
        TxnSpec::new().read("y").read("x"),
    );
    let t4 = cluster.submit_at(
        SimTime::from_micros(80_000),
        SiteId(0),
        TxnSpec::new().write("z", 30),
    );
    cluster.run_to_quiescence();
    for t in [t1, t2, t3, t4] {
        assert!(cluster.is_committed(t), "{t} should commit");
    }

    let order = cluster
        .serialization_order()
        .expect("history is one-copy serializable");
    println!("equivalent serial order: {order:?}\n");

    // Rebuild the recorder to render the graph (the cluster API exposes the
    // checker; the dot export lives on the recorder itself).
    let mut h = HistoryRecorder::new();
    for site in cluster.sites().collect::<Vec<_>>() {
        let st = cluster.replica(site).state();
        for rec in &st.commits {
            h.record_commit_ref(rec.txn, st.reads.run(&rec.reads), &rec.writes);
        }
        h.record_site_order(site, &st.store);
    }
    println!("one-copy serialization graph (Graphviz):\n{}", h.to_dot());

    // The order respects the visible dependencies.
    let pos = |t: TxnId| order.iter().position(|&x| x == t).expect("in order");
    assert!(pos(t1) < pos(t2), "t2 read t1's write");
    assert!(pos(t2) < pos(t3), "t3 read t2's write");
    println!("dependency positions verified ✓");
}
