//! **F6 — Wire-message batching under bandwidth-limited links.**
//!
//! Sweeps the broadcast-layer batching window (off, 100 µs, 500 µs, 2 ms)
//! for all four protocols on a 4-site cluster whose links have finite
//! bandwidth, so per-message serialization delay — the cost batching
//! amortises — is visible. The workload is open-loop and conflict-free
//! (one key per transaction): submissions happen at fixed virtual times
//! and no wound/certification decision can flip with delivery timing, so
//! the *logical* per-phase message counts are a pure function of the
//! transaction structure. The harness asserts exactly that:
//!
//! * every batched run's per-phase counts equal the unbatched run's
//!   (batching changes the wire, never the protocol), and
//! * at the largest window the wire-message count drops ≥ 2×.
//!
//! Columns: `wire_msgs` is what the network carried (batch envelopes when
//! batching is on), `logical_msgs` the protocol-level sends that travelled
//! inside them, `reduction` their ratio versus the unbatched baseline.
//! `mean_lat_ms` shows the price: held-back messages add up to one window
//! of commit latency.
//!
//! `--smoke` is the fast CI-sized run (fewer transactions, same
//! assertions). The baseline comparisons and rows are evaluated after the
//! sweep, in config order, so every assertion is the same at any job count.

use super::{cross, Run};
use crate::{check_traced_run, f2, Table};
use bcastdb_core::{Cluster, ProtocolKind, TxnSpec};
use bcastdb_sim::telemetry::{Phase, PhaseCounts};
use bcastdb_sim::{NetworkConfig, SimDuration, SimTime, SiteId};

/// Batch windows swept, in microseconds (`None` = batching off).
const WINDOWS_US: [Option<u64>; 4] = [None, Some(100), Some(500), Some(2_000)];
/// Per-link bandwidth (bytes/second) — slow enough that serialization
/// delay dominates propagation and batching has something to amortise.
const BANDWIDTH: u64 = 200_000;
/// Virtual-time gap between consecutive submissions.
const SUBMIT_GAP_US: u64 = 250;

struct RunStats {
    phases: PhaseCounts,
    /// Null keep-alives (`msg_null`): the causal protocol's silence-filling
    /// implicit-ack carriers. They adapt to *timing* by design — a held-back
    /// delivery leaves a transaction undecided over more ticks — so they are
    /// excluded from the "batching never changes the logical traffic"
    /// assertion, which covers every protocol-round message.
    nulls: u64,
    commits: u64,
    aborts: u64,
    /// Logical messages that travelled inside wire batches.
    batched: u64,
    wire: u64,
    batches: u64,
    bytes: u64,
    mean_lat_ms: f64,
    events: u64,
}

impl RunStats {
    /// Per-phase counts, in [`Phase::ALL`] order, minus the
    /// timing-adaptive null keep-alives (which are recorded under
    /// [`Phase::Ack`]).
    fn protocol_phases(&self) -> [u64; Phase::ALL.len()] {
        Phase::ALL.map(|p| self.phases.get(p) - if p == Phase::Ack { self.nulls } else { 0 })
    }
}

fn run_once(
    run: &Run,
    proto: ProtocolKind,
    window_us: Option<u64>,
    txns: u64,
    sites: usize,
) -> RunStats {
    let mut b = Cluster::builder()
        .sites(sites)
        .protocol(proto)
        .network(NetworkConfig::lan().with_bandwidth(BANDWIDTH))
        .seed(42);
    if let Some(us) = window_us {
        b = b.batch_window(SimDuration::from_micros(us));
    }
    let label = match window_us {
        Some(us) => format!("{proto}-window-{us}"),
        None => format!("{proto}-window-off"),
    };
    let mut c = run.cluster(b, &label);
    for i in 0..txns {
        let key = format!("k{i}");
        c.submit_at(
            SimTime::from_micros(i * SUBMIT_GAP_US),
            SiteId((i % sites as u64) as usize),
            TxnSpec::new()
                .read(key.as_str())
                .write(key.as_str(), i as i64),
        );
    }
    c.run_to_quiescence();
    check_traced_run(&c, &label);
    assert!(c.replicas_converged(), "{label}: replicas diverged");
    let m = c.metrics();
    RunStats {
        phases: c.phase_counts(),
        nulls: m.counters.get("msg_null"),
        commits: m.commits(),
        aborts: m.aborts(),
        batched: m.wire_batched_msgs(),
        wire: c.messages_sent(),
        batches: m.wire_batches(),
        bytes: m.counters.get("wire_batched_bytes"),
        mean_lat_ms: m.update_latency.mean().as_millis_f64(),
        events: run.finish(c),
    }
}

pub(super) fn run(run: &mut Run) {
    let txns: u64 = if run.smoke() { 12 } else { 48 };
    let sites = 4usize;
    let mut table = Table::new(
        "f6_batching",
        &[
            "protocol",
            "window_us",
            "commits",
            "aborts",
            "logical_msgs",
            "wire_msgs",
            "wire_batches",
            "wire_kb",
            "mean_lat_ms",
            "reduction",
        ],
    );
    let configs = cross(&ProtocolKind::ALL, &WINDOWS_US);
    let per_run = |run: &Run, &(proto, window_us): &(ProtocolKind, Option<u64>)| {
        eprintln!("[f6] protocol={} window={window_us:?}", proto.name());
        run_once(run, proto, window_us, txns, sites)
    };
    let results = run.measure("f6_batching", configs.clone(), per_run, |stats| {
        stats.events
    });

    // The baseline comparisons run on the collected results, in config
    // order: each protocol's unbatched run comes first and anchors the
    // assertions for its batched runs.
    let mut baseline: Option<&RunStats> = None;
    for ((proto, window_us), stats) in configs.iter().zip(&results) {
        let proto = *proto;
        match (&baseline, window_us) {
            (_, None) => {
                assert_eq!(stats.batches, 0, "{proto}: unbatched run recorded batches");
                assert_eq!(
                    stats.wire,
                    stats.phases.total(),
                    "{proto}: without batching the network carries each logical message"
                );
                baseline = None;
            }
            (Some(off), Some(us)) => {
                // The invariant the whole design hangs on: batching
                // must be invisible to the protocol layer. Null
                // keep-alives are excluded — see [`RunStats::nulls`].
                assert_eq!(
                    off.protocol_phases(),
                    stats.protocol_phases(),
                    "{proto}@{us}us: logical per-phase counts changed under batching"
                );
                assert_eq!(
                    off.commits, stats.commits,
                    "{proto}@{us}us: outcomes changed under batching"
                );
                assert_eq!(
                    stats.wire, stats.batches,
                    "{proto}@{us}us: every batched-run transmission is an envelope"
                );
                assert_eq!(
                    stats.batched,
                    stats.phases.total(),
                    "{proto}@{us}us: every logical message travels in some batch"
                );
                if *us == WINDOWS_US.iter().flatten().max().copied().unwrap_or(0) {
                    assert!(
                        stats.wire * 2 <= off.wire,
                        "{proto}@{us}us: expected >= 2x wire reduction, got {} vs {}",
                        stats.wire,
                        off.wire
                    );
                }
            }
            _ => unreachable!("baseline row runs first"),
        }
        let reduction = baseline.map_or_else(
            || "1.00".to_string(),
            |off| f2(off.wire as f64 / stats.wire as f64),
        );
        table.row_strings(&[
            proto.name().to_string(),
            window_us.map_or_else(|| "off".to_string(), |us| us.to_string()),
            stats.commits.to_string(),
            stats.aborts.to_string(),
            stats.phases.total().to_string(),
            stats.wire.to_string(),
            stats.batches.to_string(),
            f2(stats.bytes as f64 / 1024.0),
            format!("{:.3}", stats.mean_lat_ms),
            reduction,
        ]);
        if baseline.is_none() {
            baseline = Some(stats);
        }
    }
    run.emit(&table);
}
