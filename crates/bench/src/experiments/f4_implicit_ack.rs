//! **F4 — The causal protocol's implicit-acknowledgement latency.**
//!
//! The paper's own caveat about §4: "the causal broadcast protocol with
//! implicit positive acknowledgment ... is most appropriate for situations
//! where all sites broadcast messages fairly frequently; otherwise the wait
//! for 'implicit' acknowledgments can become a drawback resulting in
//! substantial delays for transaction commitment."
//!
//! Two sweeps quantify that:
//!
//! 1. **Background traffic density** (null messages off): commit latency of
//!    a sparse probe stream as unrelated update traffic gets denser.
//!    Latency tracks the traffic gap.
//! 2. **Null-message period** (the paper's mitigation): commit latency on a
//!    quiet cluster as a function of the keep-alive period. Latency tracks
//!    the tick.
//!
//! Each row carries the per-phase message breakdown: the `ack` column is
//! where the keep-alive nulls land, making the implicit-acknowledgement
//! cost directly visible next to the latency it buys. The `seg_*_ms`
//! columns decompose the commit latency from the reconstructed spans —
//! the implicit-acknowledgement wait is the `seg_votes_ms` share, and it
//! shrinks as traffic densifies or the keep-alive tick tightens.

use super::Run;
use crate::{
    check_traced_run, check_traced_run_allowing_pending, phase_cells, phase_headers, segment_cells,
    segment_headers,
};
use bcastdb_core::{Cluster, ProtocolKind, TxnSpec};
use bcastdb_sim::telemetry::summarize;
use bcastdb_sim::{DetRng, SimDuration, SimTime, SiteId};
use bcastdb_workload::{WorkloadConfig, WorkloadRun};

/// One probe-latency measurement: which series, and its swept parameter.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// Background traffic with the given submission gap, keep-alives off.
    TrafficGap { gap_ms: u64 },
    /// Quiet cluster, keep-alives on with the given period.
    NullPeriod { tick_ms: u64 },
    /// The reliable protocol's explicit votes on the same quiet cluster.
    ReliableReference,
}

/// Submits ten spread-out probe transactions at site 0, drains the
/// cluster, and returns the finished table row (`series`, `x`, ...).
fn probe(
    run: &Run,
    mut cluster: Cluster,
    label: &str,
    series: &str,
    x: String,
    allow_pending: bool,
) -> (Vec<String>, u64) {
    // Ten probe transactions spread out at site 0, no key overlap with
    // background traffic.
    let mut ids = Vec::new();
    for i in 0..10u64 {
        let at = SimTime::from_micros(5_000 + i * 50_000);
        ids.push(cluster.submit_at(
            at,
            SiteId(0),
            TxnSpec::new().write(format!("probe{i}").as_str(), i as i64),
        ));
    }
    cluster.run_to_quiescence();
    if allow_pending {
        // With keep-alives off a probe past the background traffic's end
        // never hears its implicit acks — the wedged commit is the data
        // point, not a harness bug.
        check_traced_run_allowing_pending(&cluster, label);
    } else {
        check_traced_run(&cluster, label);
    }
    let m = cluster.metrics();
    let committed = ids.iter().filter(|t| cluster.is_committed(**t)).count();
    let mut cells = vec![
        series.to_string(),
        x,
        committed.to_string(),
        format!("{:.3}", m.update_latency.mean().as_millis_f64()),
        format!("{:.3}", m.update_latency.p95().as_millis_f64()),
    ];
    cells.extend(phase_cells(&cluster.phase_counts()));
    cells.extend(segment_cells(&summarize(cluster.txn_spans().values())));
    (cells, run.finish(cluster))
}

fn run_probe(run: &Run, cfg: &Probe) -> (Vec<String>, u64) {
    match *cfg {
        Probe::TrafficGap { gap_ms } => {
            let builder = Cluster::builder()
                .sites(5)
                .protocol(ProtocolKind::CausalBcast)
                .null_messages(false)
                .seed(17);
            let label = format!("traffic-gap-{gap_ms}ms");
            let mut cluster = run.cluster(builder, &label);
            // Background: steady unrelated updates from sites 1..4.
            let cfg = WorkloadConfig {
                n_keys: 2000,
                theta: 0.0,
                reads_per_txn: 0,
                writes_per_txn: 1,
                ..WorkloadConfig::default()
            };
            let workload = WorkloadRun::new(cfg, 170 + gap_ms);
            // Schedule background first (probe shares the cluster run).
            let zipf = workload.config.sampler();
            let mut rng = DetRng::new(workload.seed);
            for site in 1..5 {
                let mut at = SimTime::ZERO;
                let mut site_rng = rng.fork(site as u64);
                for _ in 0..40 {
                    at += SimDuration::from_millis(gap_ms);
                    let spec = workload.config.gen_txn(&zipf, &mut site_rng);
                    cluster.submit_at(at, SiteId(site), spec);
                }
            }
            let x = format!("{gap_ms}ms");
            probe(run, cluster, &label, "traffic-gap(nulls-off)", x, true)
        }
        Probe::NullPeriod { tick_ms } => {
            let builder = Cluster::builder()
                .sites(5)
                .protocol(ProtocolKind::CausalBcast)
                .tick_every(SimDuration::from_millis(tick_ms))
                .seed(18);
            let label = format!("null-period-{tick_ms}ms");
            let cluster = run.cluster(builder, &label);
            let x = format!("{tick_ms}ms");
            probe(run, cluster, &label, "null-period(quiet)", x, false)
        }
        Probe::ReliableReference => {
            // Reference: the reliable protocol's explicit votes on the same
            // quiet cluster (its latency does not depend on traffic at all).
            let builder = Cluster::builder()
                .sites(5)
                .protocol(ProtocolKind::ReliableBcast)
                .seed(19);
            let label = "reliable-reference";
            let cluster = run.cluster(builder, label);
            probe(run, cluster, label, label, "-".into(), false)
        }
    }
}

pub(super) fn run(run: &mut Run) {
    let mut headers = ["series", "x", "probe_commits", "mean_ms", "p95_ms"]
        .map(String::from)
        .to_vec();
    headers.extend(phase_headers().iter().map(|s| s.to_string()));
    headers.extend(segment_headers());

    let mut configs = Vec::new();
    for gap_ms in [2u64, 5, 10, 20, 50] {
        configs.push(Probe::TrafficGap { gap_ms });
    }
    for tick_ms in [1u64, 2, 5, 10, 20, 50] {
        configs.push(Probe::NullPeriod { tick_ms });
    }
    configs.push(Probe::ReliableReference);
    run.sweep("f4_implicit_ack", &headers, configs, run_probe);
}
