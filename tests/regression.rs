//! Regression tests pinning down bugs found during development — each of
//! these configurations once produced a serializability violation, a
//! replica divergence, or a wedge.

use bcastdb::prelude::*;
use bcastdb::protocols::ProtocolKind;
use bcastdb::workload::WorkloadConfig;

/// A transaction's write operations are not a causal unit: one op can
/// causally precede a peer's while the next is concurrent with it. The
/// causal protocol once classified concurrency by the first op only, let
/// two conflicting transactions both commit, and diverged the replicas
/// (seed 13, 50 keys, sites 5 — the exact f3 configuration that failed).
#[test]
fn causal_per_operation_concurrency_straddle() {
    let cfg = WorkloadConfig {
        n_keys: 50,
        theta: 0.8,
        reads_per_txn: 1,
        writes_per_txn: 2,
        readonly_fraction: 0.0,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::CausalBcast)
        .seed(13)
        .build();
    let run = WorkloadRun::new(cfg, 130 + 50);
    let report = run.open_loop(&mut c, 20, SimDuration::from_millis(4));
    assert!(report.quiesced);
    assert!(
        report.converged,
        "first-op-only classification diverged here"
    );
    c.check_serializability().expect("serializable");
}

/// The same workload shape at 10 keys — a second seed-specific divergence
/// from the same root cause.
#[test]
fn causal_per_operation_concurrency_straddle_small_db() {
    let cfg = WorkloadConfig {
        n_keys: 10,
        theta: 0.8,
        reads_per_txn: 1,
        writes_per_txn: 2,
        readonly_fraction: 0.0,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::CausalBcast)
        .seed(13)
        .build();
    let run = WorkloadRun::new(cfg, 130 + 10);
    let report = run.open_loop(&mut c, 20, SimDuration::from_millis(4));
    assert!(report.quiesced && report.converged);
    c.check_serializability().expect("serializable");
}

/// Two transactions prepared (YES-voted) at their own origins and queued
/// behind each other at the opposite site once deadlocked the reliable
/// protocol: votes cannot be retracted, so the older requester must be
/// doomed instead of waiting (seed 13, 5 keys, 4 sites).
#[test]
fn reliable_cross_prepared_conflict_resolves() {
    let cfg = WorkloadConfig {
        n_keys: 5,
        theta: 0.9,
        reads_per_txn: 1,
        writes_per_txn: 2,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(4)
        .protocol(ProtocolKind::ReliableBcast)
        .seed(13)
        .build();
    let run = WorkloadRun::new(cfg, 44);
    let report = run.open_loop(&mut c, 8, SimDuration::from_millis(2));
    assert!(report.quiesced, "cross-prepared transactions wedged");
    assert!(report.converged);
    c.check_serializability().expect("serializable");
}

/// The causal protocol's NACK is itself an implicit acknowledgement of the
/// commit request it rejects; crediting the ack before recording the NACK
/// once committed a transaction off the clock of its own rejection.
#[test]
fn causal_nack_recorded_before_its_own_ack() {
    let cfg = WorkloadConfig {
        n_keys: 50,
        theta: 0.8,
        reads_per_txn: 2,
        writes_per_txn: 2,
        readonly_fraction: 0.25,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(4)
        .protocol(ProtocolKind::CausalBcast)
        .seed(1)
        .build();
    let run = WorkloadRun::new(cfg, 31);
    let report = run.open_loop(&mut c, 15, SimDuration::from_millis(5));
    assert!(report.quiesced && report.converged);
    c.check_serializability().expect("serializable");
}

/// Priority-ranked lock queues once let an older *reader* jump a queued
/// write and observe later transactions applied before earlier ones.
#[test]
fn readers_never_jump_queued_writers() {
    let cfg = WorkloadConfig {
        n_keys: 20,
        theta: 0.9,
        reads_per_txn: 1,
        writes_per_txn: 2,
        reads_per_ro_txn: 5,
        readonly_fraction: 0.5,
    };
    let mut c = Cluster::builder()
        .sites(4)
        .protocol(ProtocolKind::CausalBcast)
        .seed(8)
        .build();
    let run = WorkloadRun::new(cfg, 88);
    let report = run.open_loop(&mut c, 20, SimDuration::from_millis(2));
    assert!(report.quiesced && report.converged);
    c.check_serializability().expect("serializable");
}

/// Under wait-die an older writer legally queues behind an unvoted younger
/// holder; when the holder then casts its YES vote, the elder would wait
/// forever on an irrevocable vote. The prepared rule must therefore also
/// fire at vote time, and must cover the voter's *read* locks: the wedge
/// that pinned this down was a write-skew pair blocked by each other's
/// origin-side shared locks (seed 31, 10 keys, wait-die).
#[test]
fn wait_die_vote_time_doom_covers_read_locks() {
    use bcastdb::protocols::ConflictPolicy;
    let cfg = WorkloadConfig {
        n_keys: 10,
        theta: 0.8,
        reads_per_txn: 1,
        writes_per_txn: 2,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::ReliableBcast)
        .policy(ConflictPolicy::WaitDie)
        .seed(31)
        .build();
    let run = WorkloadRun::new(cfg, 320);
    let report = run.open_loop(&mut c, 20, SimDuration::from_millis(4));
    assert!(report.quiesced);
    assert_eq!(
        report.metrics.commits() + report.metrics.aborts(),
        100,
        "every transaction must terminate"
    );
    assert!(report.converged);
    c.check_serializability().expect("serializable");
}

/// The closed-loop reliable workload that exposed the distributed
/// reader/writer cycle (seed 11, 8 clients per site): every transaction
/// must terminate — silent wedges drain the event queue while leaving
/// transactions pending forever.
#[test]
fn reliable_closed_loop_never_wedges() {
    let cfg = WorkloadConfig {
        n_keys: 500,
        theta: 0.8,
        reads_per_txn: 2,
        writes_per_txn: 2,
        readonly_fraction: 0.2,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::ReliableBcast)
        .seed(11)
        .build();
    let run = WorkloadRun::new(cfg, 118);
    let report = run.closed_loop(&mut c, 8, 12);
    assert!(report.quiesced);
    assert_eq!(
        report.metrics.commits() + report.metrics.aborts(),
        5 * 8 * 12,
        "every transaction must terminate"
    );
    c.check_serializability().expect("serializable");
}

/// Wait-die mixes wait directions once prepared holders enter the picture:
/// its normal edges point older→younger while younger-waits-for-prepared
/// points the other way, so cycles can close across sites. Under wait-die a
/// requester conflicting with a prepared holder must die regardless of age
/// (seed 31, 50 keys — the a2 configuration that wedged 41 transactions).
#[test]
fn wait_die_dies_on_prepared_holders() {
    use bcastdb::protocols::ConflictPolicy;
    let cfg = WorkloadConfig {
        n_keys: 50,
        theta: 0.8,
        reads_per_txn: 1,
        writes_per_txn: 2,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::ReliableBcast)
        .policy(ConflictPolicy::WaitDie)
        .seed(31)
        .build();
    let run = WorkloadRun::new(cfg, 360);
    let report = run.open_loop(&mut c, 20, SimDuration::from_millis(4));
    assert!(report.quiesced);
    assert!(report.all_terminated(), "wedged transactions remain");
    assert!(report.converged);
    c.check_serializability().expect("serializable");
}

/// With two sites, a commit request's implicit-ack set completes the
/// instant the remote site delivers it — so every origin-side veto (the
/// reader gate, early conflict detection against the origin's own ops)
/// must happen *before* the commit request is broadcast, or the remote
/// commits a transaction its origin is about to reject. Found by the
/// serializability property test.
///
/// This is the checked-in proptest shrink from
/// `tests/prop_serializability.proptest-regressions` (`CausalBcast,
/// sites = 2, seed = 303, n_keys = 54, …`), promoted to a named
/// deterministic test so the scenario survives even if that seed file is
/// ever pruned. Every literal below comes from the shrink; change neither
/// without the other.
#[test]
fn causal_origin_vetoes_precede_commit_request() {
    let cfg = WorkloadConfig {
        n_keys: 54,
        theta: 0.6231374462664311,
        reads_per_txn: 1,
        writes_per_txn: 3,
        reads_per_ro_txn: 3,
        readonly_fraction: 0.23811042714157357,
    };
    let mut c = Cluster::builder()
        .sites(2)
        .protocol(ProtocolKind::CausalBcast)
        .seed(303)
        .build();
    let run = WorkloadRun::new(cfg, 303 ^ 0xABCD);
    let report = run.open_loop(&mut c, 9, SimDuration::from_micros(14448));
    assert!(report.quiesced && report.all_terminated());
    assert_eq!(
        report.metrics.commits() + report.metrics.aborts(),
        18,
        "2 sites x 9 txns must all terminate exactly once"
    );
    assert!(
        report.converged,
        "origin veto raced the remote's instant ack"
    );
    c.check_serializability().expect("serializable");
}

/// Seeds of `seeds` whose closed-loop P-CB run on skewed keys (`theta`)
/// is not one-copy serializable.
fn pcb_skewed_keys_violations(theta: f64, seeds: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let cfg = WorkloadConfig {
        n_keys: 500,
        theta,
        reads_per_txn: 2,
        writes_per_txn: 2,
        reads_per_ro_txn: 4,
        readonly_fraction: 0.2,
    };
    let violations = seeds.into_iter().filter(|&seed| {
        let mut c = Cluster::builder()
            .sites(5)
            .protocol(ProtocolKind::CausalBcast)
            .seed(seed)
            .network(bcastdb::sim::NetworkConfig::lan())
            .build();
        let report = WorkloadRun::new(cfg.clone(), seed).closed_loop(&mut c, 4, 150);
        assert!(report.quiesced && report.all_terminated(), "seed {seed}");
        c.check_serializability().is_err()
    });
    violations.collect()
}

/// On a hot key two conflicting P-CB transactions once both committed and
/// the replicas installed them in different orders. Two faults, two seeds
/// each:
/// - 118 and 138: one wire unblocked two commit requests at a site, and a
///   NACK sent while handling the first was stamped with the engine's
///   clock, which already covered the second. Another site took that for
///   an implicit YES to the second, whose reader gate had not run yet and
///   then vetoed it;
/// - 158 and 370: the commit evaluation counted an older concurrent rival
///   only if this site had held it undecided, which depends on delivery
///   interleaving, so one site committed what the others aborted.
#[test]
fn pcb_skewed_keys_install_in_one_order() {
    assert_eq!(
        pcb_skewed_keys_violations(0.8, [118, 138, 158, 370]),
        Vec::<u64>::new()
    );
}

/// The sweep those seeds came from, at two skews. About ten seconds in a
/// release build: `cargo test --release --test regression -- --ignored`.
#[test]
#[ignore = "a release-build sweep"]
fn pcb_skewed_keys_sweep_is_serializable() {
    assert_eq!(pcb_skewed_keys_violations(0.8, 100..200), Vec::<u64>::new());
    assert_eq!(pcb_skewed_keys_violations(0.99, 0..50), Vec::<u64>::new());
}
