//! **T1 — Message complexity per update transaction.**
//!
//! The paper's central cost argument: each protocol needs progressively
//! fewer messages to commit one update transaction of `w` write operations
//! over `N` sites.
//!
//! Analytic model (point-to-point messages, commit of one update txn, no
//! contention, origin ≠ sequencer):
//!
//! | protocol | messages |
//! |---|---|
//! | p2p-2pc   | `w(N-1)` writes + `w(N-1)` acks + `(N-1)` commit-req + `N(N-1)` votes |
//! | reliable  | `w(N-1)` writes + `(N-1)` commit-req + `N(N-1)` votes |
//! | causal    | `w(N-1)` writes + `(N-1)` commit-req (+ ≤ `N-1` null keep-alives when quiet) |
//! | atomic    | `w(N-1)` causal writes + `1` submit + `(N-1)` ordered |
//!
//! This experiment measures the real counts in the simulator and prints
//! them next to the analytic values, decomposed per protocol phase (prepare
//! / vote / ack / decision / retransmit / membership) so the table shows
//! *where* each protocol spends its messages, not just how many.

use super::{cross, Run};
use crate::{check_traced_run, phase_cells, phase_headers};
use bcastdb_core::{Cluster, ProtocolKind, TxnSpec};
use bcastdb_sim::{SimDuration, SiteId};
use bcastdb_workload::{WorkloadConfig, WorkloadRun};

const WRITES: usize = 2;

fn analytic(proto: ProtocolKind, n: u64, w: u64) -> u64 {
    match proto {
        ProtocolKind::PointToPoint => w * (n - 1) * 2 + (n - 1) + n * (n - 1),
        ProtocolKind::ReliableBcast => w * (n - 1) + (n - 1) + n * (n - 1),
        ProtocolKind::CausalBcast => w * (n - 1) + (n - 1), // + keep-alives
        ProtocolKind::AtomicBcast => w * (n - 1) + 1 + (n - 1),
    }
}

pub(super) fn run(run: &mut Run) {
    let configs = cross(&[3usize, 5, 7, 9, 13], &ProtocolKind::ALL);

    let mut headers = vec!["sites", "protocol", "analytic", "measured", "per-site"];
    headers.extend(phase_headers());
    run.sweep(
        "t1_messages",
        &headers,
        configs.clone(),
        |run, &(n, proto)| {
            let label = format!("{proto}-{n}");
            let builder = Cluster::builder().sites(n).protocol(proto).seed(1);
            let mut cluster = run.cluster(builder, &label);
            // One update transaction with WRITES writes from a
            // non-coordinator site.
            let mut spec = TxnSpec::new().read("r0");
            for i in 0..WRITES {
                spec = spec.write(format!("w{i}").as_str(), i as i64);
            }
            let id = cluster.submit(SiteId(1), spec);
            cluster.run_to_quiescence();
            assert!(cluster.is_committed(id), "{label}: txn failed");
            cluster.check_serializability().expect("serializable");
            check_traced_run(&cluster, &label);
            let measured = cluster.messages_sent();
            let pc = cluster.phase_counts();
            // Lossless network: the per-phase totals account for every
            // message the network carried.
            assert_eq!(pc.total(), measured, "{label}: phase accounting leak");
            let a = analytic(proto, n as u64, WRITES as u64);
            let mut cells = vec![
                n.to_string(),
                proto.name().to_string(),
                a.to_string(),
                measured.to_string(),
                format!("{:.1}", measured as f64 / n as f64),
            ];
            cells.extend(phase_cells(&pc));
            (cells, run.finish(cluster))
        },
    );
    run.say(
        "\nSingle isolated transaction: the causal protocol's keep-alive nulls cost as\n\
         much as the votes they replace — the paper's own caveat about quiet systems.\n\
         Amortized over a busy stream the implicit acks ride on real traffic:",
    );

    // Phase 2: messages per transaction amortized over a dense stream.
    let mut headers = vec!["sites", "protocol", "txns", "messages", "msgs_per_txn"];
    headers.extend(phase_headers());
    let cfg = WorkloadConfig {
        n_keys: 5000,
        theta: 0.0,
        reads_per_txn: 1,
        writes_per_txn: WRITES,
        ..WorkloadConfig::default()
    };
    let name = "t1_messages_amortized";
    run.sweep(name, &headers, configs, |run, &(n, proto)| {
        let label = format!("{proto}-{n}-amortized");
        let builder = Cluster::builder().sites(n).protocol(proto).seed(2);
        let mut cluster = run.cluster(builder, &label);
        let workload = WorkloadRun::new(cfg.clone(), 20 + n as u64);
        let report = workload.open_loop(&mut cluster, 40, SimDuration::from_millis(5));
        Run::validated(&report, &cluster, &label);
        let done = report.metrics.commits() + report.metrics.aborts();
        let mut cells = vec![
            n.to_string(),
            proto.name().to_string(),
            done.to_string(),
            report.messages.to_string(),
            format!("{:.1}", report.messages as f64 / done.max(1) as f64),
        ];
        cells.extend(phase_cells(&cluster.phase_counts()));
        (cells, run.finish(cluster))
    });
}
