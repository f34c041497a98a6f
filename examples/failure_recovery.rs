//! Fault tolerance: a replica crashes mid-run, the majority installs a new
//! view and keeps committing — "as long as the view has majority
//! membership, the system remains operational".
//!
//! Then the crashed replica recovers by state transfer from a live member,
//! is re-admitted to the view, and serves the committed state it missed.
//!
//! Run with: `cargo run --example failure_recovery`

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

    // Phase 4: s4 recovers by state transfer from s0 — the store and
    // verdicts a live member holds — and membership re-admits it.
    cluster.recover(SiteId(4), SiteId(0));
    cluster.run_until(SimTime::from_micros(2_100_000));
    for s in cluster.sites().collect::<Vec<_>>() {
        assert!(
            cluster.replica(s).view_members().contains(&SiteId(4)),
            "{s} re-admitted s4"
        );
    }
    assert_eq!(
        cluster.committed_value(SiteId(4), "x"),
        Some(2),
        "s4 holds the commit it missed"
    );
    cluster
        .check_serializability()
        .expect("whole history one-copy serializable");
    println!("s4 recovered from s0 and rejoined at {}", cluster.now());
    println!("failure + recovery scenario complete ✓");
}
