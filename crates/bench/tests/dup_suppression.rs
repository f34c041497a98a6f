//! Duplicate-delivery suppression across every protocol configuration.
//!
//! A 20% wildcard duplication plan (second copies arrive late and
//! *reordered* — they bypass the FIFO clamp) must be invisible at the
//! database layer: each of the five chaos cells runs a disjoint-key
//! workload twice, fault-free and under duplication, and the two runs
//! must end in the same committed state. Disjoint keys make the final
//! state independent of message timing (no conflicts, so every
//! transaction commits), which turns "the duplicate was suppressed"
//! into an exact equality: any double-apply shows up as a duplicated
//! writer in a key's install order, any dropped-as-duplicate original
//! as a missing write.

use bcastdb_bench::faultplan::ChaosCell;
use bcastdb_bench::TRACE_CAPACITY;
use bcastdb_core::Cluster;
use bcastdb_db::TxnSpec;
use bcastdb_sim::{FaultClause, FaultKind, FaultPlan, SimDuration, SimTime, SiteId};

const SITES: usize = 4;
/// Transactions per site; each writes two keys nobody else touches.
const TXNS_PER_SITE: u64 = 12;
const DEADLINE: SimTime = SimTime::from_micros(2_000_000);

fn dup_plan() -> FaultPlan {
    FaultPlan {
        clauses: vec![FaultClause {
            from: None,
            to: None,
            start: SimTime::ZERO,
            end: DEADLINE,
            kind: FaultKind::Duplicate {
                p: 0.2,
                extra_delay: SimDuration::from_micros(1_500),
            },
        }],
    }
}

/// Runs the disjoint-key workload for `cell`, returning the cluster
/// after the deadline.
fn run(cell: ChaosCell, seed: u64, plan: FaultPlan) -> Cluster {
    let mut builder = Cluster::builder()
        .sites(SITES)
        .protocol(cell.protocol())
        .seed(seed)
        .trace(TRACE_CAPACITY)
        .fault_plan(plan);
    if cell.relay() {
        builder = builder.relay(true);
    }
    if let Some(imp) = cell.abcast() {
        builder = builder.abcast(imp);
    }
    let mut cluster = builder.build();
    for site in 0..SITES {
        for j in 0..TXNS_PER_SITE {
            let at = SimTime::from_micros(1_000 + j * 15_000);
            let spec = TxnSpec::new()
                .write(key(site, j, 0), (100 * j + 1) as i64)
                .write(key(site, j, 1), (100 * j + 2) as i64);
            cluster.submit_at(at, SiteId(site), spec);
        }
    }
    cluster.run_until(DEADLINE);
    cluster
}

fn key(site: usize, j: u64, k: u64) -> String {
    format!("d{site}_{j}_{k}")
}

#[test]
fn duplicated_packets_never_double_apply_or_change_the_final_state() {
    for cell in ChaosCell::ALL {
        for seed in 1..=3u64 {
            let label = format!("{cell}/seed {seed}");
            let clean = run(cell, seed, FaultPlan::none());
            let dup = run(cell, seed, dup_plan());
            assert!(
                dup.network().messages_duplicated() > 0,
                "{label}: the duplication clause never engaged"
            );

            for (cluster, which) in [(&clean, "clean"), (&dup, "dup")] {
                cluster
                    .check_trace_invariants()
                    .unwrap_or_else(|v| panic!("{label}/{which}: {v}"));
                for site in 0..SITES {
                    assert!(
                        !cluster.replica(SiteId(site)).state().has_undecided(),
                        "{label}/{which}: site {site} undecided at the deadline"
                    );
                }
                assert!(
                    cluster.replicas_converged(),
                    "{label}/{which}: replicas diverged"
                );
                // Disjoint write sets: every transaction commits.
                let m = cluster.metrics();
                assert_eq!(
                    (m.commits(), m.aborts()),
                    ((SITES as u64) * TXNS_PER_SITE, 0),
                    "{label}/{which}: conflict-free workload must fully commit"
                );
            }

            // Exactly-once apply per (origin, seq): each key has one
            // writer, installed exactly once at every site — and the dup
            // run's final state equals the fault-free run's.
            for site in 0..SITES {
                let clean_store = &clean.replica(SiteId(site)).state().store;
                let dup_store = &dup.replica(SiteId(site)).state().store;
                let mut orders = std::collections::BTreeMap::<_, Vec<_>>::new();
                for (key, txn) in dup_store.installs() {
                    orders.entry(key).or_default().push(txn);
                }
                for origin in 0..SITES {
                    for j in 0..TXNS_PER_SITE {
                        for k in 0..2 {
                            let key = bcastdb_db::Key::new(key(origin, j, k));
                            let installs = orders.get(&key).cloned().unwrap_or_default();
                            assert_eq!(
                                installs.len(),
                                1,
                                "{label}: site {site} applied {key:?} {} times: {installs:?}",
                                installs.len()
                            );
                            assert_eq!(
                                dup_store.read(&key),
                                clean_store.read(&key),
                                "{label}: site {site} diverged from the fault-free run on {key:?}"
                            );
                        }
                    }
                }
                assert_eq!(
                    dup_store.applied_writes(),
                    clean_store.applied_writes(),
                    "{label}: site {site} applied a different number of writes"
                );
            }
        }
    }
}
