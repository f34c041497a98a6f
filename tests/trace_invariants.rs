//! Tier-1 integration tests for the structured trace subsystem: real
//! workloads across all four protocols must produce traces the offline
//! invariant checker accepts, the per-phase message accounting must sum to
//! the flat counters, events must round-trip through the JSON-Lines
//! format, and corrupted traces must be rejected.

use bcastdb::prelude::*;
use bcastdb::sim::telemetry::{
    check_trace, JsonlSink, Phase, TraceEvent, TraceSink, TraceViolation,
};

const TRACE_CAPACITY: usize = 200_000;

fn traced_run(proto: ProtocolKind, seed: u64) -> Cluster {
    let mut cluster = Cluster::builder()
        .sites(4)
        .protocol(proto)
        .trace(TRACE_CAPACITY)
        .seed(seed)
        .build();
    let cfg = WorkloadConfig {
        n_keys: 60,
        theta: 0.7,
        reads_per_txn: 1,
        writes_per_txn: 2,
        readonly_fraction: 0.25,
        ..WorkloadConfig::default()
    };
    let run = WorkloadRun::new(cfg, seed.wrapping_mul(31));
    let report = run.open_loop(&mut cluster, 15, SimDuration::from_millis(4));
    assert!(report.quiesced, "{proto}: did not quiesce");
    assert!(report.all_terminated(), "{proto}: wedged transactions");
    cluster
}

/// A contended workload on every protocol produces a trace the invariant
/// checker accepts: every delivery was sent, every submitted transaction
/// terminated exactly once, commits follow the total order.
#[test]
fn every_protocol_passes_the_invariant_checker_under_load() {
    for proto in ProtocolKind::ALL {
        let cluster = traced_run(proto, 41);
        cluster
            .check_trace_invariants()
            .unwrap_or_else(|v| panic!("{proto}: {v}"));
        assert_eq!(cluster.trace_evicted(), 0, "{proto}: ring too small");
        assert!(!cluster.trace_events().is_empty(), "{proto}");
    }
}

/// The per-phase totals sum to the flat per-kind counters (both are
/// incremented at the engine's single send site) and, on a lossless
/// network, to the network's own message count.
#[test]
fn phase_totals_sum_to_flat_message_counts() {
    for proto in ProtocolKind::ALL {
        let cluster = traced_run(proto, 43);
        let pc = cluster.phase_counts();
        assert_eq!(
            pc.total(),
            cluster.metrics().messages_by_kind(),
            "{proto}: phase totals must sum to the flat kind totals"
        );
        assert_eq!(
            pc.total(),
            cluster.messages_sent(),
            "{proto}: lossless run, counters must match the network"
        );
    }
}

/// Each protocol's phase breakdown has the shape the paper's cost argument
/// predicts: everyone pays prepare traffic; only the vote-based protocols
/// pay votes; the atomic protocol is the only one with decision
/// (ordered-delivery) traffic on the happy path.
#[test]
fn phase_breakdown_matches_each_protocols_cost_shape() {
    let votes = |proto| traced_run(proto, 47).phase_counts();

    let p2p = votes(ProtocolKind::PointToPoint);
    assert!(p2p.prepare > 0 && p2p.vote > 0 && p2p.ack > 0, "{p2p:?}");

    let reliable = votes(ProtocolKind::ReliableBcast);
    assert!(reliable.prepare > 0 && reliable.vote > 0, "{reliable:?}");

    let causal = votes(ProtocolKind::CausalBcast);
    assert_eq!(causal.vote, 0, "causal never votes: {causal:?}");
    assert!(causal.prepare > 0, "{causal:?}");

    let atomic = votes(ProtocolKind::AtomicBcast);
    assert_eq!(atomic.vote, 0, "atomic never votes: {atomic:?}");
    assert!(
        atomic.decision > 0,
        "atomic pays ordered-delivery traffic: {atomic:?}"
    );
}

/// Every event of a real execution survives the JSON-Lines round trip —
/// through the in-memory strings and through an actual [`JsonlSink`].
#[test]
fn trace_round_trips_through_jsonl() {
    let cluster = traced_run(ProtocolKind::AtomicBcast, 53);
    let events = cluster.trace_events();
    assert!(!events.is_empty());

    // String round trip.
    for ev in &events {
        let line = ev.to_jsonl();
        let back = TraceEvent::from_jsonl(&line)
            .unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
        assert_eq!(&back, ev);
    }

    // Sink round trip: write all events to a buffer, read them back, and
    // re-run the invariant checker over the reconstruction.
    let mut sink = JsonlSink::new(Vec::new());
    for ev in &events {
        sink.record(ev.clone());
    }
    let buf = sink.into_inner().expect("in-memory writer cannot fail");
    let reparsed: Vec<TraceEvent> = String::from_utf8(buf)
        .expect("utf8")
        .lines()
        .map(|l| TraceEvent::from_jsonl(l).expect("parse"))
        .collect();
    assert_eq!(reparsed, events);
    check_trace(&reparsed).expect("reconstructed trace stays clean");
}

/// A corrupted trace is rejected: injecting a delivery that was never sent
/// trips the checker, as does erasing a transaction's termination.
#[test]
fn corrupted_traces_are_rejected() {
    let cluster = traced_run(ProtocolKind::ReliableBcast, 59);
    let events = cluster.trace_events();
    check_trace(&events).expect("pristine trace passes");

    // Corruption 1: a phantom delivery on a link/phase with no sends.
    let mut phantom = events.clone();
    phantom.push(TraceEvent::Deliver {
        at: SimTime::ZERO,
        from: SiteId(0),
        to: SiteId(1),
        phase: Phase::Retransmit,
    });
    assert!(matches!(
        check_trace(&phantom),
        Err(TraceViolation::UnsentDelivery { .. })
    ));

    // Corruption 2: erase one transaction's commit/abort records.
    let victim = events
        .iter()
        .find_map(|ev| match ev {
            TraceEvent::Submit { txn, .. } => Some(*txn),
            _ => None,
        })
        .expect("a transaction was submitted");
    let unterminated: Vec<TraceEvent> = events
        .iter()
        .filter(|ev| {
            !matches!(ev,
                TraceEvent::Commit { site, txn, .. } | TraceEvent::Abort { site, txn, .. }
                    if *txn == victim && *site == victim.origin)
        })
        .cloned()
        .collect();
    assert!(matches!(
        check_trace(&unterminated),
        Err(TraceViolation::MissingTermination { txn }) if txn == victim
    ));
}

/// A run with a site crash still passes: the recorded crash relaxes the
/// must-terminate invariant for the transactions the crash stranded.
#[test]
fn crashed_runs_pass_with_the_relaxed_termination_rule() {
    let mut cluster = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::ReliableBcast)
        .membership(true)
        .suspect_after(SimDuration::from_millis(60))
        .trace(TRACE_CAPACITY)
        .seed(61)
        .build();
    for i in 0..6u64 {
        let site = SiteId((i % 5) as usize);
        cluster.submit_at(
            SimTime::from_micros(1_000 + i * 5_000),
            site,
            TxnSpec::new().read("k").write("k", i as i64),
        );
    }
    cluster.run_until(SimTime::from_micros(40_000));
    cluster.crash(SiteId(4));
    cluster.run_until(SimTime::from_micros(2_000_000));
    cluster
        .check_trace_invariants()
        .expect("crash relaxes termination");
    assert!(cluster
        .trace_events()
        .iter()
        .any(|ev| matches!(ev, TraceEvent::Crash { site, .. } if *site == SiteId(4))));
}
