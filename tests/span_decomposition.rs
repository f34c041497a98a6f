//! Tier-1 tests for the span/decomposition layer: for every protocol, the
//! per-segment latency decomposition reconstructed from the trace must sum
//! *exactly* (to the microsecond of virtual time) to the end-to-end commit
//! latencies the metrics layer records — the identity the `bcast-trace`
//! CLI and the T3 experiment rely on. Plus a property test that every
//! [`TraceEvent`] variant survives the JSON-Lines round trip.

use bcastdb::prelude::*;
use bcastdb::sim::telemetry::{Segment, SpanBuilder, TraceEvent, TxnRef};
use proptest::prelude::*;

const TRACE_CAPACITY: usize = 200_000;

fn run_cluster(proto: ProtocolKind, seed: u64) -> (Cluster, bcastdb::protocols::Metrics) {
    let mut cluster = Cluster::builder()
        .sites(5)
        .protocol(proto)
        .trace(TRACE_CAPACITY)
        .seed(seed)
        .build();
    let cfg = WorkloadConfig {
        n_keys: 80,
        theta: 0.7,
        reads_per_txn: 2,
        writes_per_txn: 2,
        readonly_fraction: 0.25,
        ..WorkloadConfig::default()
    };
    let run = WorkloadRun::new(cfg, seed.wrapping_mul(17));
    let report = run.open_loop(&mut cluster, 20, SimDuration::from_millis(5));
    assert!(report.quiesced, "{proto}: did not quiesce");
    assert!(report.all_terminated(), "{proto}: wedged transactions");
    (cluster, report.metrics)
}

/// The headline identity: for every committed update transaction, the five
/// segments sum to exactly the latency `Metrics` recorded at the origin.
/// Compared as sorted multisets — same committed transactions, same
/// microsecond values, no tolerance.
#[test]
fn segment_sums_equal_metrics_latencies_for_every_protocol() {
    for proto in ProtocolKind::ALL {
        let (cluster, metrics) = run_cluster(proto, 61);
        let spans = cluster.txn_spans();
        assert!(!spans.is_empty(), "{proto}: no spans reconstructed");

        let mut update_totals: Vec<u64> = spans
            .values()
            .filter(|s| !s.read_only && s.committed())
            .map(|s| {
                let d = s.decompose().unwrap_or_else(|| {
                    panic!("{proto}: committed update {:?} must decompose", s.txn)
                });
                assert_eq!(
                    Some(d.total()),
                    s.latency(),
                    "{proto}: segments must telescope to the span latency"
                );
                d.total().as_micros()
            })
            .collect();
        let mut recorded: Vec<u64> = metrics.update_latency.samples().to_vec();
        update_totals.sort_unstable();
        recorded.sort_unstable();
        assert_eq!(
            update_totals, recorded,
            "{proto}: update decomposition must match Metrics exactly"
        );

        let mut ro_totals: Vec<u64> = spans
            .values()
            .filter(|s| s.read_only && s.committed())
            .map(|s| s.latency().expect("committed").as_micros())
            .collect();
        let mut ro_recorded: Vec<u64> = metrics.readonly_latency.samples().to_vec();
        ro_totals.sort_unstable();
        ro_recorded.sort_unstable();
        assert_eq!(
            ro_totals, ro_recorded,
            "{proto}: read-only span latencies must match Metrics exactly"
        );
    }
}

/// Every protocol's dominant segment matches its mechanism: per-operation
/// ack round trips (p2p) land in `disseminate`, explicit votes (reliable)
/// and implicit acknowledgements (causal) in `votes`, and the sequencer
/// round (atomic) in `order_wait`.
#[test]
fn dominant_segments_match_protocol_mechanisms() {
    let expect = [
        (ProtocolKind::PointToPoint, Segment::Disseminate),
        (ProtocolKind::ReliableBcast, Segment::Votes),
        (ProtocolKind::CausalBcast, Segment::Votes),
        (ProtocolKind::AtomicBcast, Segment::OrderWait),
    ];
    for (proto, want) in expect {
        // Low contention, no read-only traffic: lock waits stay negligible
        // so the protocol's own mechanism is the biggest segment.
        let mut cluster = Cluster::builder()
            .sites(5)
            .protocol(proto)
            .trace(TRACE_CAPACITY)
            .seed(67)
            .build();
        let cfg = WorkloadConfig {
            n_keys: 1000,
            theta: 0.6,
            reads_per_txn: 2,
            writes_per_txn: 2,
            readonly_fraction: 0.0,
            ..WorkloadConfig::default()
        };
        let run = WorkloadRun::new(cfg, 670);
        let report = run.open_loop(&mut cluster, 20, SimDuration::from_millis(15));
        assert!(report.quiesced, "{proto}: did not quiesce");
        let summary = bcastdb::sim::telemetry::summarize(cluster.txn_spans().values());
        assert!(summary.count() > 0, "{proto}: nothing committed");
        let dominant = Segment::ALL
            .iter()
            .copied()
            .max_by_key(|s| summary.segment(*s).mean().as_micros())
            .unwrap();
        assert_eq!(dominant, want, "{proto}: unexpected dominant segment");
    }
}

/// The same spans fall out of the serialized trace: writing the events to
/// JSONL, parsing them back, and re-folding them through [`SpanBuilder`]
/// reproduces the cluster's own span map — the offline CLI sees exactly
/// what the in-process accounting saw.
#[test]
fn offline_span_reconstruction_matches_in_process() {
    let (cluster, _) = run_cluster(ProtocolKind::AtomicBcast, 71);
    assert_eq!(cluster.trace_evicted(), 0, "ring too small for this test");
    let mut rebuilt = SpanBuilder::new();
    for ev in cluster.trace_events() {
        let line = ev.to_jsonl();
        let back = TraceEvent::from_jsonl(&line).expect("round trip");
        rebuilt.ingest(&back);
    }
    assert_eq!(*rebuilt.spans(), cluster.txn_spans());
}

fn site() -> impl Strategy<Value = SiteId> {
    (0usize..64).prop_map(SiteId)
}

fn txn() -> impl Strategy<Value = TxnRef> {
    ((0usize..64), (0u64..10_000)).prop_map(|(o, n)| TxnRef {
        origin: SiteId(o),
        num: n,
    })
}

fn time() -> impl Strategy<Value = SimTime> {
    (0u64..u64::MAX / 2).prop_map(SimTime::from_micros)
}

fn phase() -> impl Strategy<Value = Phase> {
    prop_oneof![
        Just(Phase::Prepare),
        Just(Phase::Vote),
        Just(Phase::Ack),
        Just(Phase::Decision),
        Just(Phase::Retransmit),
        Just(Phase::Membership),
    ]
}

fn reason() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("abort_wounded".to_string()),
        Just("abort_timeout".to_string()),
        Just("abort_concurrent_conflict".to_string()),
        // Exercise the JSON string escaping paths.
        Just("quoted \"reason\"".to_string()),
        Just("back\\slash".to_string()),
        Just(String::new()),
        // Non-ASCII must come back as written, control characters must not
        // break the one-event-one-line rule.
        Just("café ✓".to_string()),
        Just("line\nbreak\ttab\r".to_string()),
        Just("nul\u{0}bell\u{7}esc\u{1b}del\u{7f}".to_string()),
    ]
}

fn event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (time(), site(), site(), phase()).prop_map(|(at, from, to, phase)| TraceEvent::Send {
            at,
            from,
            to,
            phase
        }),
        (time(), site(), site(), phase()).prop_map(|(at, from, to, phase)| TraceEvent::Deliver {
            at,
            from,
            to,
            phase
        }),
        (time(), site(), site(), phase()).prop_map(|(at, from, to, phase)| TraceEvent::Drop {
            at,
            from,
            to,
            phase
        }),
        (time(), txn(), any::<bool>()).prop_map(|(at, txn, read_only)| TraceEvent::Submit {
            at,
            txn,
            read_only
        }),
        (time(), txn()).prop_map(|(at, txn)| TraceEvent::LocksAcquired { at, txn }),
        (time(), txn()).prop_map(|(at, txn)| TraceEvent::CommitReqOut { at, txn }),
        (time(), site(), txn(), any::<bool>()).prop_map(|(at, site, txn, yes)| TraceEvent::Vote {
            at,
            site,
            txn,
            yes
        }),
        (time(), site(), txn(), any::<bool>()).prop_map(|(at, site, txn, commit)| {
            TraceEvent::Decided {
                at,
                site,
                txn,
                commit,
            }
        }),
        (time(), site(), txn()).prop_map(|(at, site, txn)| TraceEvent::Commit { at, site, txn }),
        (time(), site(), txn(), reason()).prop_map(|(at, site, txn, reason)| TraceEvent::Abort {
            at,
            site,
            txn,
            reason: reason.into()
        }),
        (time(), site(), txn(), 0u64..1_000_000).prop_map(|(at, site, txn, gseq)| {
            TraceEvent::TotalOrder {
                at,
                site,
                txn,
                gseq,
            }
        }),
        (time(), site(), proptest::collection::vec(site(), 0..8))
            .prop_map(|(at, site, members)| TraceEvent::ViewChange { at, site, members }),
        (time(), site()).prop_map(|(at, site)| TraceEvent::Crash { at, site }),
        (time(), site(), site(), 1u64..64, 0u64..1_000_000).prop_map(
            |(at, from, to, msgs, bytes)| TraceEvent::BatchFlushed {
                at,
                from,
                to,
                msgs,
                bytes,
            }
        ),
        (time(), site(), site()).prop_map(|(at, site, suspect)| TraceEvent::Suspect {
            at,
            site,
            suspect
        }),
        (time(), site(), txn()).prop_map(|(at, site, txn)| TraceEvent::FastDecide {
            at,
            site,
            txn
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        max_shrink_iters: 64,
    })]

    /// Every variant, with adversarial field values (huge timestamps,
    /// empty member lists, reasons containing quotes, backslashes, non-ASCII
    /// and control characters), survives `to_jsonl` → `from_jsonl` unchanged.
    #[test]
    fn every_trace_event_round_trips_through_jsonl(ev in event()) {
        let line = ev.to_jsonl();
        prop_assert!(!line.contains('\n'), "one event per line");
        let back = TraceEvent::from_jsonl(&line)
            .map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
        prop_assert_eq!(&ev, &back, "line: {}", line);
        // And the serialization is stable (parse → print is identity too).
        prop_assert_eq!(back.to_jsonl(), line);
    }
}
