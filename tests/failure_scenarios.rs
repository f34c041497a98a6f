//! Failure-injection integration tests: crashes, view changes, majority
//! operation, and recovery from the redo log.

use bcastdb::prelude::*;
use bcastdb::protocols::ProtocolKind;
use bcastdb::workload::WorkloadConfig;
use proptest::prelude::*;

fn failure_cluster(proto: ProtocolKind, sites: usize, seed: u64) -> Cluster {
    Cluster::builder()
        .sites(sites)
        .protocol(proto)
        .seed(seed)
        .membership(true)
        .suspect_after(SimDuration::from_millis(60))
        .build()
}

#[test]
fn majority_keeps_committing_after_crash() {
    for proto in [ProtocolKind::ReliableBcast, ProtocolKind::CausalBcast] {
        let mut c = failure_cluster(proto, 5, 31);
        let t1 = c.submit_at(
            SimTime::from_micros(1_000),
            SiteId(1),
            TxnSpec::new().write("x", 1),
        );
        c.run_until(SimTime::from_micros(150_000));
        assert!(c.is_committed(t1), "{proto}: pre-crash commit");

        c.crash(SiteId(4));
        c.run_until(SimTime::from_micros(500_000));
        for s in (0..4).map(SiteId) {
            assert!(
                !c.replica(s).view_members().contains(&SiteId(4)),
                "{proto}: crashed site still in view at {s}"
            );
            assert!(
                c.replica(s).is_operational(),
                "{proto}: {s} not operational"
            );
        }

        let t2 = c.submit_at(
            SimTime::from_micros(600_000),
            SiteId(0),
            TxnSpec::new().read("x").write("x", 2),
        );
        c.run_until(SimTime::from_micros(1_400_000));
        assert!(c.is_committed(t2), "{proto}: post-crash commit");
        let survivors: Vec<SiteId> = (0..4).map(SiteId).collect();
        c.check_serializability_among(&survivors)
            .unwrap_or_else(|v| panic!("{proto}: {v}"));
    }
}

#[test]
fn atomic_protocol_survives_sequencer_crash() {
    // Site 0 is the fixed sequencer; crashing it forces failover to the
    // next view coordinator.
    let mut c = failure_cluster(ProtocolKind::AtomicBcast, 5, 37);
    let t1 = c.submit_at(
        SimTime::from_micros(1_000),
        SiteId(2),
        TxnSpec::new().write("a", 1),
    );
    c.run_until(SimTime::from_micros(150_000));
    assert!(c.is_committed(t1));

    c.crash(SiteId(0));
    c.run_until(SimTime::from_micros(600_000));
    for s in (1..5).map(SiteId) {
        assert!(
            c.replica(s).is_operational(),
            "{s} operational after failover"
        );
    }

    let t2 = c.submit_at(
        SimTime::from_micros(700_000),
        SiteId(1),
        TxnSpec::new().read("a").write("a", 2),
    );
    c.run_until(SimTime::from_micros(1_600_000));
    assert!(
        c.is_committed(t2),
        "commits continue under the new sequencer"
    );
    let survivors: Vec<SiteId> = (1..5).map(SiteId).collect();
    for s in &survivors {
        assert_eq!(c.committed_value(*s, "a"), Some(2));
    }
    c.check_serializability_among(&survivors)
        .expect("serializable");
}

/// The coordinator of the atomic broadcast crashes under load: site 0, the
/// sequencer (and the ring's coordinator), dies at 200 ms while every site
/// submits a transaction every 2 ms. Every transaction a survivor
/// submitted must terminate, no survivor may be left undecided, and the
/// survivors must stay 1SR and converged. Before the view change ran one
/// repair round for both backends, the sequencer's survivors lost every
/// submission in flight to the dead sequencer for good: 132 of their 800
/// transactions stayed pending.
#[test]
fn atomic_coordinator_crash_under_load_terminates_everything() {
    use bcastdb::protocols::AbcastImpl;
    use bcastdb::sim::DetRng;
    let wl = WorkloadConfig {
        n_keys: 300,
        theta: 0.5,
        reads_per_txn: 1,
        writes_per_txn: 2,
        ..WorkloadConfig::default()
    };
    let zipf = wl.sampler();
    for imp in [AbcastImpl::Sequencer, AbcastImpl::Ring] {
        let mut c = Cluster::builder()
            .sites(5)
            .protocol(ProtocolKind::AtomicBcast)
            .abcast(imp)
            .seed(1)
            .membership(true)
            .suspect_after(SimDuration::from_millis(60))
            .build();
        let mut submitted = Vec::new();
        for site in 0..5 {
            let mut rng = DetRng::new(1).fork(site as u64);
            for k in 1..=200 {
                let at = SimTime::from_micros(2_000 * k);
                let id = c.submit_at(at, SiteId(site), wl.gen_txn(&zipf, &mut rng));
                submitted.push(id);
            }
        }
        c.run_until(SimTime::from_micros(200_000));
        c.crash(SiteId(0));
        c.run_until(SimTime::from_micros(2_000_000));
        let survivors: Vec<SiteId> = (1..5).map(SiteId).collect();
        let pending = (submitted.iter())
            .filter(|id| id.origin != SiteId(0) && c.outcome(**id) == TxnOutcome::Pending)
            .count();
        assert_eq!(pending, 0, "{imp:?}: survivors' transactions left pending");
        for s in &survivors {
            let st = c.replica(*s).state();
            assert!(!st.has_undecided(), "{imp:?}: {s} left undecided");
            let first = &c.replica(survivors[0]).state().store;
            assert!(st.store.converged_with(first), "{imp:?}: {s} diverged");
        }
        c.check_serializability_among(&survivors)
            .unwrap_or_else(|v| panic!("{imp:?}: {v}"));
    }
}

#[test]
fn minority_partition_blocks() {
    // 2 of 5 sites cannot form a majority view: they stop committing.
    let mut c = failure_cluster(ProtocolKind::ReliableBcast, 5, 41);
    c.run_until(SimTime::from_micros(50_000));
    // Crash three sites: the remaining two are a minority.
    for s in [2, 3, 4] {
        c.crash(SiteId(s));
    }
    c.run_until(SimTime::from_micros(500_000));
    for s in [SiteId(0), SiteId(1)] {
        assert!(
            !c.replica(s).is_operational(),
            "{s} must block outside a majority view"
        );
    }
    // A transaction submitted at a blocked site is not accepted.
    let t = c.submit_at(
        SimTime::from_micros(600_000),
        SiteId(0),
        TxnSpec::new().write("x", 9),
    );
    c.run_until(SimTime::from_micros(900_000));
    assert_eq!(c.outcome(t), TxnOutcome::Pending, "minority cannot commit");
}

#[test]
fn redo_log_recovers_committed_state() {
    let mut c = failure_cluster(ProtocolKind::ReliableBcast, 3, 43);
    let t1 = c.submit_at(
        SimTime::from_micros(1_000),
        SiteId(0),
        TxnSpec::new().write("x", 1),
    );
    let t2 = c.submit_at(
        SimTime::from_micros(100_000),
        SiteId(1),
        TxnSpec::new().read("x").write("y", 2),
    );
    c.run_until(SimTime::from_micros(300_000));
    assert!(c.is_committed(t1) && c.is_committed(t2));

    // Crash site 2 and replay its log onto a fresh store.
    c.crash(SiteId(2));
    let log = &c.replica(SiteId(2)).state().log;
    let recovered = log.replay();
    let live = &c.replica(SiteId(0)).state().store;
    assert!(
        recovered.converged_with(live),
        "log replay reproduces the committed state"
    );
}

/// The redo log is what a replica's store can be rebuilt from: at
/// quiescence, on every protocol, replaying a site's log gives the store
/// that site serves. (Skip the append in `apply_commit` and the replay
/// comes back empty.)
#[test]
fn redo_log_replay_equals_the_live_store_on_every_protocol() {
    let cfg = WorkloadConfig {
        n_keys: 40,
        theta: 0.5,
        reads_per_txn: 1,
        writes_per_txn: 2,
        readonly_fraction: 0.2,
        ..WorkloadConfig::default()
    };
    for proto in ProtocolKind::ALL {
        let mut c = Cluster::builder().sites(4).protocol(proto).seed(71).build();
        let report = WorkloadRun::new(cfg.clone(), 71).closed_loop(&mut c, 3, 20);
        assert!(report.quiesced && report.converged, "{proto}");
        assert!(report.metrics.commits() > 0, "{proto}: nothing committed");
        for s in c.sites() {
            let st = c.replica(s).state();
            assert!(!st.store.is_empty(), "{proto}: {s} installed nothing");
            assert!(
                st.log.replay().converged_with(&st.store),
                "{proto}: {s}'s log does not replay to its store"
            );
        }
    }
}

/// A site's verdicts on its own transactions survive its crash and state
/// transfer: a transaction it aborted before broadcasting anything (here:
/// wounded in its read phase) is known nowhere else, so the donor's
/// outcome table cannot supply it.
#[test]
fn rejoined_site_remembers_its_own_early_aborts() {
    let mut c = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::ReliableBcast)
        .seed(73)
        .membership(true)
        .suspect_after(SimDuration::from_millis(60))
        .think_time(SimDuration::from_millis(2))
        .build();
    // An older writer of `x` from site 0, and a younger transaction at
    // site 4 that holds a read lock on `x` while it thinks before its
    // second read: the delivered write wounds it, locally and silently.
    let writer = c.submit_at(
        SimTime::from_micros(1_000),
        SiteId(0),
        TxnSpec::new().write("x", 1),
    );
    let wounded = c.submit_at(
        SimTime::from_micros(1_100),
        SiteId(4),
        TxnSpec::new().read("x").read("y").write("z", 2),
    );
    let later = c.submit_at(
        SimTime::from_micros(50_000),
        SiteId(4),
        TxnSpec::new().read("x").write("w", 3),
    );
    c.run_until(SimTime::from_micros(150_000));
    assert_eq!(c.outcome(writer), TxnOutcome::Committed);
    assert_eq!(c.outcome(later), TxnOutcome::Committed);
    assert_eq!(
        c.outcome(wounded),
        TxnOutcome::Aborted,
        "the scenario wounds"
    );

    c.crash(SiteId(4));
    c.run_until(SimTime::from_micros(600_000));
    c.recover(SiteId(4), SiteId(0));
    c.run_until(SimTime::from_micros(1_200_000));
    let after = c.submit_at(
        SimTime::from_micros(1_300_000),
        SiteId(4),
        TxnSpec::new().read("w").write("v", 4),
    );
    c.run_until(SimTime::from_micros(2_000_000));
    assert_eq!(
        c.outcome(after),
        TxnOutcome::Committed,
        "rejoined site serves"
    );
    for (id, was) in [
        (writer, TxnOutcome::Committed),
        (wounded, TxnOutcome::Aborted),
        (later, TxnOutcome::Committed),
    ] {
        assert_eq!(c.outcome(id), was, "{id:?} after crash, recover and rejoin");
    }
}

#[test]
fn in_flight_transactions_from_crashed_origin_abort() {
    // Crash an origin right after submission: under every protocol the
    // survivors must not keep its transaction pending forever once the
    // view changes. The termination mechanism differs — explicit votes
    // (reliable), implicit acks (causal), the total order (atomic), or
    // the engine's departed-origin sweep (p2p) — but the obligation is
    // the same.
    for proto in ProtocolKind::ALL {
        let mut c = failure_cluster(proto, 5, 47);
        c.run_until(SimTime::from_micros(20_000));
        // Submit at site 4 and crash it almost immediately — before votes
        // can complete (the suspicion timeout far exceeds the commit
        // latency, so pick a crash instant right after the submit timer).
        c.submit_at(
            SimTime::from_micros(21_000),
            SiteId(4),
            TxnSpec::new().write("z", 9),
        );
        c.run_until(SimTime::from_micros(21_500));
        c.crash(SiteId(4));
        c.run_until(SimTime::from_micros(800_000));
        // Survivors either committed it (decision raced the crash) or
        // aborted it via the view change; nobody may be stuck undecided.
        for s in (0..4).map(SiteId) {
            let st = c.replica(s).state();
            assert!(
                !st.has_undecided(),
                "{proto}: {s} still has undecided transactions after view change"
            );
        }
        let survivors: Vec<SiteId> = (0..4).map(SiteId).collect();
        c.check_serializability_among(&survivors)
            .unwrap_or_else(|v| panic!("{proto}: {v}"));
    }
}

#[test]
fn crashed_site_recovers_by_state_transfer_and_rejoins() {
    for proto in [
        ProtocolKind::ReliableBcast,
        ProtocolKind::CausalBcast,
        ProtocolKind::AtomicBcast,
    ] {
        let mut c = failure_cluster(proto, 5, 53);
        // Phase 1: normal load, then crash site 4.
        let t1 = c.submit_at(
            SimTime::from_micros(1_000),
            SiteId(0),
            TxnSpec::new().write("x", 1),
        );
        c.run_until(SimTime::from_micros(150_000));
        assert!(c.is_committed(t1), "{proto}");
        c.crash(SiteId(4));
        // Phase 2: the majority commits without it.
        let t2 = c.submit_at(
            SimTime::from_micros(400_000),
            SiteId(1),
            TxnSpec::new().read("x").write("x", 2),
        );
        c.run_until(SimTime::from_micros(900_000));
        assert!(c.is_committed(t2), "{proto}");
        assert_eq!(
            c.committed_value(SiteId(4), "x"),
            Some(1),
            "{proto}: crashed site is stale"
        );
        // Phase 3: recover site 4 from site 0 and let membership re-admit it.
        c.recover(SiteId(4), SiteId(0));
        c.run_until(SimTime::from_micros(1_500_000));
        assert_eq!(
            c.committed_value(SiteId(4), "x"),
            Some(2),
            "{proto}: state transfer missed committed data"
        );
        for s in c.sites().collect::<Vec<_>>() {
            assert!(
                c.replica(s).view_members().contains(&SiteId(4)),
                "{proto}: {s} did not re-admit the recovered site"
            );
        }
        // Phase 4: the recovered site serves new transactions.
        let t3 = c.submit_at(
            SimTime::from_micros(1_600_000),
            SiteId(4),
            TxnSpec::new().read("x").write("y", 3),
        );
        c.run_until(SimTime::from_micros(2_400_000));
        assert!(c.is_committed(t3), "{proto}: recovered site cannot commit");
        for s in c.sites().collect::<Vec<_>>() {
            assert_eq!(c.committed_value(s, "y"), Some(3), "{proto} at {s}");
        }
    }
}

#[test]
fn partition_and_heal_round_trip() {
    // A 2/3 partition of five sites: the majority keeps committing, the
    // minority blocks; after healing, the minority reconciles by state
    // transfer and the cluster serves everyone again.
    let mut c = failure_cluster(ProtocolKind::ReliableBcast, 5, 59);
    c.run_until(SimTime::from_micros(50_000));

    let majority: Vec<SiteId> = (0..3).map(SiteId).collect();
    let minority: Vec<SiteId> = (3..5).map(SiteId).collect();
    c.partition(&majority, &minority);
    c.run_until(SimTime::from_micros(400_000));

    for s in &majority {
        assert!(c.replica(*s).is_operational(), "{s} majority side blocked");
    }
    for s in &minority {
        assert!(
            !c.replica(*s).is_operational(),
            "{s} minority side kept running"
        );
    }

    // Majority-side commit during the partition.
    let t = c.submit_at(
        SimTime::from_micros(450_000),
        SiteId(0),
        TxnSpec::new().write("p", 1),
    );
    c.run_until(SimTime::from_micros(900_000));
    assert!(
        c.is_committed(t),
        "majority must commit during the partition"
    );

    // Heal; minority catches up via state transfer and rejoins.
    c.heal_partitions();
    c.recover(SiteId(3), SiteId(0));
    c.recover(SiteId(4), SiteId(0));
    c.run_until(SimTime::from_micros(1_600_000));
    for s in c.sites().collect::<Vec<_>>() {
        assert_eq!(
            c.committed_value(s, "p"),
            Some(1),
            "{s} missing partition-era commit"
        );
        assert!(
            c.replica(s).is_operational(),
            "{s} not operational after heal"
        );
    }

    let t2 = c.submit_at(
        SimTime::from_micros(1_700_000),
        SiteId(4),
        TxnSpec::new().read("p").write("q", 2),
    );
    c.run_until(SimTime::from_micros(2_500_000));
    assert!(
        c.is_committed(t2),
        "healed minority site must serve transactions"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 0, // each case is two full simulations; don't shrink
    })]

    /// A partition that is fully healed before any traffic crosses it must
    /// leave no trace: the same workload then produces *byte-identical*
    /// metrics to a run that was never partitioned. This is the symmetry
    /// contract of `Network::sever`/`heal` — if healing ever restored only
    /// one direction of a link, the surviving cut would drop messages and
    /// the metrics would diverge.
    #[test]
    fn healed_partition_is_indistinguishable_from_no_partition(
        proto in prop_oneof![
            Just(ProtocolKind::PointToPoint),
            Just(ProtocolKind::ReliableBcast),
            Just(ProtocolKind::CausalBcast),
            Just(ProtocolKind::AtomicBcast),
        ],
        sites in 3usize..6,
        seed in 0u64..500,
        cut in 1usize..5,
        n_keys in 5usize..40,
        txns_per_site in 2usize..6,
        gap_us in 500u64..10_000,
    ) {
        let cut = cut.min(sites - 1);
        let cfg = WorkloadConfig {
            n_keys,
            theta: 0.4,
            reads_per_txn: 1,
            writes_per_txn: 2,
            reads_per_ro_txn: 2,
            readonly_fraction: 0.2,
        };
        let run_metrics = |partitioned: bool| {
            let mut c = Cluster::builder()
                .sites(sites)
                .protocol(proto)
                .seed(seed)
                .build();
            if partitioned {
                let group_a: Vec<SiteId> = (0..cut).map(SiteId).collect();
                let group_b: Vec<SiteId> = (cut..sites).map(SiteId).collect();
                c.partition(&group_a, &group_b);
            }
            // Idle window while (possibly) severed, then heal everything
            // before the first message is submitted.
            c.run_until(SimTime::from_micros(30_000));
            c.heal_partitions();
            let report = WorkloadRun::new(cfg.clone(), seed ^ 0x5a5a).open_loop(
                &mut c,
                txns_per_site,
                SimDuration::from_micros(gap_us),
            );
            prop_assert!(report.quiesced, "{proto}: did not quiesce");
            Ok(format!("{:?}", report.metrics))
        };
        let healed = run_metrics(true)?;
        let pristine = run_metrics(false)?;
        prop_assert_eq!(
            healed, pristine,
            "{}: a healed partition left residue in the metrics", proto
        );
    }
}
