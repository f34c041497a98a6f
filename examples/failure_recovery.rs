//! Fault tolerance: a replica crashes mid-run, the majority installs a new
//! view and keeps committing — "as long as the view has majority
//! membership, the system remains operational".
//!
//! Also demonstrates redo-log recovery: the crashed replica's log replays
//! to exactly the state it had committed before the crash.
//!
//! Run with: `cargo run --example failure_recovery`

use bcastdb::db::LogRecord;
use bcastdb::prelude::*;

fn main() {
    let mut cluster = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::ReliableBcast)
        .seed(21)
        .membership(true) // heartbeat failure detector + majority views
        .suspect_after(SimDuration::from_millis(60))
        .build();

    // Phase 1: normal operation.
    let t1 = cluster.submit_at(
        SimTime::from_micros(1_000),
        SiteId(1),
        TxnSpec::new().write("x", 1),
    );
    cluster.run_until(SimTime::from_micros(200_000));
    assert!(cluster.is_committed(t1), "pre-crash transaction commits");

    // Phase 2: site 4 crashes (fail-stop).
    println!("crashing s4 at {}", cluster.now());
    cluster.crash(SiteId(4));

    // Phase 3: let the failure detector work, then submit more load.
    cluster.run_until(SimTime::from_micros(600_000));
    let survivors: Vec<SiteId> = (0..4).map(SiteId).collect();
    for s in &survivors {
        let view = cluster.replica(*s).view_members();
        println!(
            "{s}: view={:?} operational={}",
            view,
            cluster.replica(*s).is_operational()
        );
        assert!(!view.contains(&SiteId(4)), "crashed site evicted at {s}");
    }

    let t2 = cluster.submit_at(
        SimTime::from_micros(700_000),
        SiteId(0),
        TxnSpec::new().read("x").write("x", 2),
    );
    cluster.run_until(SimTime::from_micros(1_500_000));
    assert!(
        cluster.is_committed(t2),
        "majority view keeps committing after the crash"
    );
    for s in &survivors {
        assert_eq!(cluster.committed_value(*s, "x"), Some(2));
    }
    cluster
        .check_serializability_among(&survivors)
        .expect("surviving history one-copy serializable");

    // Phase 4: the crashed replica recovers its committed state from its
    // redo log — everything it had applied before failing.
    let crashed_log = &cluster.replica(SiteId(4)).state().log;
    let recovered = crashed_log.replay();
    assert_eq!(
        recovered.value(&Key::new("x")),
        1,
        "pre-crash state recovered"
    );
    println!(
        "s4 recovered {} committed txns from its redo log",
        crashed_log
            .records()
            .filter(|r| matches!(r, LogRecord::Commit { .. }))
            .count()
    );
    println!("failure + recovery scenario complete ✓");
}
