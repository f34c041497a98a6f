//! The repo benchmark: one workload, one pass, one process.
//!
//! ```text
//! bcastdb-benchmark --workload <name> [--seed 11] [--seconds 8] [--trace 0|1] [--out-dir benchmark/out]
//! ```
//!
//! `--trace 0` is the end-to-end pass: benchmark spans off, identical
//! repetitions for `--seconds` (at least five), medians reported.
//! `--trace 1` is the per-layer pass: one repetition under benchmark
//! spans, one under product tracing, the isolated layer kernels, and the
//! spans written to `<out-dir>/spans-<workload>.json`. Either way the
//! last line of standard output is the result as one JSON object, and the
//! exit code is non-zero if any validation failed. `run.py` next to this
//! package builds it and drives it; see `README.md`.

mod drivers;
mod kernels;
mod spans;
mod workloads;

use bcastdb_core::{AbcastImpl, ProtocolKind};
use bcastdb_sim::spans::Segment;
use bcastdb_sim::telemetry::Phase;
use drivers::{run_rep, Rep};
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Inputs, Workload};

/// Repetitions the end-to-end pass never goes below.
const MIN_REPS: usize = 5;
/// Setup is repeated until this many seconds have gone by, at least
/// [`MIN_SETUPS`] times, and the median reported: the smallest inputs take
/// two milliseconds to generate, and a median of hundreds holds still
/// where a median of five does not.
const SETUP_SECONDS: f64 = 1.0;
const MIN_SETUPS: usize = 5;

/// A named measurement.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report(Vec<Metric>);

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; a 0/0 share is "none of it".
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 8.0;
    let mut trace = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range over the median, quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them.
fn iqr_ratio(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Generates the inputs repeatedly; returns them with the median seconds
/// of one generation.
fn setup(w: &Workload, seed: u64) -> (Inputs, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = w.generate(seed);
        times.push(t.elapsed().as_secs_f64());
        let enough = started.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if times.len() >= MIN_SETUPS && enough {
            return (inputs, median(&times));
        }
    }
}

/// The counters that must repeat exactly from one repetition to the next.
fn fingerprint(rep: &Rep) -> [u64; 5] {
    [
        rep.log.submitted,
        rep.events,
        rep.metrics.commits(),
        rep.metrics.aborts(),
        rep.net.msgs,
    ]
}

/// Collects validation failures and checks repetitions against the first.
#[derive(Default)]
struct Checks {
    first: Option<[u64; 5]>,
    failures: Vec<String>,
    /// Transactions that never terminated, over all repetitions.
    wedged: u64,
}

impl Checks {
    /// Product tracing and benchmark spans only observe, so every
    /// repetition of a process must show the same counters.
    fn absorb(&mut self, label: &str, rep: &Rep) {
        for f in &rep.log.failures {
            self.failures.push(format!("{label}: {f}"));
        }
        self.wedged += rep.wedged;
        let fp = fingerprint(rep);
        match self.first {
            None => self.first = Some(fp),
            Some(first) if first != fp => self.failures.push(format!(
                "{label}: not deterministic: submitted/events/commits/aborts/messages {fp:?}, first repetition {first:?}"
            )),
            Some(_) => {}
        }
    }
}

/// The virtual-time and count metrics of one repetition (exact for a
/// given seed), in `BENCHMARK.json` order.
fn protocol_metrics(out: &mut Report, rep: &Rep) {
    let m = &rep.metrics;
    let commits = m.commits() as f64;
    let vsecs = rep
        .log
        .last_decision
        .saturating_since(rep.log.first_submit)
        .as_micros() as f64
        / 1e6;
    out.push(
        "commit_p50_ms",
        m.update_latency.p50().as_millis_f64(),
        "ms",
    );
    let latencies_us = m.update_latency.samples();
    out.push(
        "commit_mean_ms",
        latencies_us.iter().sum::<u64>() as f64 / latencies_us.len() as f64 / 1e3,
        "ms",
    );
    out.push(
        "commit_p99_ms",
        m.update_latency.p99().as_millis_f64(),
        "ms",
    );
    out.push("commits_per_vsec", commits / vsecs, "1/s");
    out.push("msgs_per_commit", rep.net.msgs as f64 / commits, "count");
    out.push(
        "wire_bytes_per_commit",
        rep.net.bytes as f64 / commits,
        "bytes",
    );
    out.push("commit_ratio", commits / rep.log.submitted as f64, "ratio");
}

/// End-to-end pass: identical repetitions with benchmark spans off.
fn end_to_end(a: &Args, inputs: &Inputs, setup_s: f64, checks: &mut Checks) -> (Report, u64) {
    let w = &a.workload;
    let mut spans = Spans::new(false);
    let mut walls = Vec::new();
    let mut allocs = Vec::new();
    let mut out = Report::default();
    let mut attempted = 0;
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < a.seconds {
        let rep = run_rep(w, inputs.clone(), a.seed, w.lossy, &a.out_dir, &mut spans);
        checks.absorb(&format!("rep {}", walls.len()), &rep);
        if walls.is_empty() {
            protocol_metrics(&mut out, &rep);
        }
        attempted += rep.log.submitted;
        walls.push(rep.wall_s);
        allocs.push(rep.allocs as f64 / rep.log.submitted as f64);
    }
    let submitted = attempted as f64 / walls.len() as f64;
    out.push("txns_per_sec", submitted / median(&walls), "1/s");
    out.push("allocs_per_txn", median(&allocs), "count");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.push("setup_s", setup_s, "s");
    eprintln!(
        "{}: {} repetitions, min {:.3} s, median {:.3} s, IQR/median {:.4}",
        w.name,
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        iqr_ratio(&walls)
    );
    (out, attempted)
}

/// Nanoseconds of broadcast-engine work per logical message, from the
/// kernel of the engine this workload runs on.
fn bcast_kernel_ns(w: &Workload, kernels: &BTreeMap<&'static str, f64>) -> f64 {
    let name = match (w.protocol, w.abcast) {
        (ProtocolKind::PointToPoint, _) => return 0.0,
        (ProtocolKind::ReliableBcast, _) => "kernel.rbcast_ns_per_delivery",
        (ProtocolKind::CausalBcast, _) => "kernel.cbcast_ns_per_delivery",
        (ProtocolKind::AtomicBcast, Some(AbcastImpl::Ring)) => "kernel.ring_abcast_ns_per_delivery",
        (ProtocolKind::AtomicBcast, _) => "kernel.seq_abcast_ns_per_delivery",
    };
    kernels[name]
}

/// Per-layer pass: plain, spanned and tracing-flipped repetitions plus the
/// layer kernels.
fn per_layer(a: &Args, inputs: &Inputs, setup_s: f64, checks: &mut Checks) -> (Report, u64) {
    let w = &a.workload;
    let mut off = Spans::new(false);
    let mut spans = Spans::new(true);
    let mut attempted = 0;
    let mut run = |label: &str, traced: bool, spans: &mut Spans, checks: &mut Checks| {
        let rep = run_rep(w, inputs.clone(), a.seed, traced, &a.out_dir, spans);
        checks.absorb(label, &rep);
        attempted += rep.log.submitted;
        rep
    };

    // Plain, spanned, plain: the span overhead is the spanned repetition
    // against the faster of its two neighbours.
    let plain_a = run("plain rep 0", w.lossy, &mut off, checks).wall_s;
    let s = run("spanned rep", w.lossy, &mut spans, checks);
    let plain_b = run("plain rep 1", w.lossy, &mut off, checks).wall_s;
    let plain_walls = [plain_a, plain_b];
    let plain_min = plain_a.min(plain_b);
    // The same input with product tracing flipped: on for the seven
    // untraced workloads (segments, gauges, telemetry volume), off for
    // the traced one (what tracing costs).
    let flipped = run("tracing-flipped rep", !w.lossy, &mut spans, checks);
    let (traced, untraced_wall) = if w.lossy {
        (&s, flipped.wall_s)
    } else {
        (&flipped, plain_min)
    };
    let t = traced.trace.as_ref().expect("traced under benchmark spans");
    let kernels = kernels::run_all(&mut spans);

    let mut out = Report::default();
    let m = &s.metrics;
    let txns = s.log.submitted as f64;
    let commits = m.commits() as f64;
    let aborts = m.aborts() as f64;
    let events = s.events as f64;
    let msgs = s.net.msgs as f64;
    let offered = msgs + s.net.dropped as f64;
    let loop_s = spans.total_under(s.span, "loop");
    let phases = m.phase_counts();
    let logical_msgs = phases.total() as f64;

    // sim
    out.push("sim.events", events, "count");
    out.push("sim.events_per_txn", events / txns, "count");
    out.push("sim.events_per_sec", events / loop_s, "1/s");
    out.push("sim.loop_s", loop_s, "s");
    out.push(
        "sim.allocs_per_event",
        s.log.loop_allocs as f64 / events,
        "count",
    );
    out.push("sim.wheel_far_share", s.wheel_far_share, "ratio");
    out.push("sim.queue_depth_max", t.queue_depth_max as f64, "count");
    // net
    out.push("net.msgs", msgs, "count");
    out.push("net.bytes", s.net.bytes as f64, "bytes");
    out.push("net.dropped_share", s.net.dropped as f64 / offered, "ratio");
    out.push("net.dup_share", s.net.duplicated as f64 / offered, "ratio");
    out.push(
        "net.reordered_share",
        s.net.reordered as f64 / offered,
        "ratio",
    );
    out.push("net.backlog_us_max", t.backlog_us_max as f64, "us");
    // broadcast
    out.push("batch.wire_batches", m.wire_batches() as f64, "count");
    out.push(
        "batch.msgs_per_wire_batch",
        m.wire_batched_msgs() as f64 / m.wire_batches() as f64,
        "count",
    );
    out.push("ring.inflight_max", t.ring_inflight_max as f64, "count");
    out.push("membership.evict_ms", s.log.evict_ms, "ms");
    out.push("membership.readmit_ms", s.log.readmit_ms, "ms");
    out.push("membership.unavail_ms", s.log.unavail_ms, "ms");
    // core
    out.push("core.build_s", spans.total_under(s.span, "build"), "s");
    out.push("core.submit_s", spans.total_under(s.span, "submit"), "s");
    out.push(
        "core.commit_samples",
        m.update_latency.count() as f64,
        "count",
    );
    for p in Phase::ALL {
        out.push(
            &format!("core.phase_{}_per_commit", p.name()),
            phases.get(p) as f64 / commits,
            "count",
        );
    }
    out.push(
        "core.retransmit_share",
        phases.get(Phase::Retransmit) as f64 / logical_msgs,
        "ratio",
    );
    out.push("core.abort_rate", aborts / txns, "ratio");
    for reason in [
        "wounded",
        "concurrent",
        "certification",
        "negative_vote",
        "timeout",
        "view_change",
    ] {
        out.push(
            &format!("core.abort_{reason}_share"),
            m.counters.get(&format!("abort_{reason}")) as f64 / aborts,
            "ratio",
        );
    }
    for seg in Segment::ALL {
        out.push(
            &format!("core.seg_{}_ms", seg.name()),
            t.segments.segment(seg).mean().as_millis_f64(),
            "ms",
        );
    }
    out.push(
        "core.fast_commits",
        m.counters.get("fast_commits") as f64,
        "count",
    );
    out.push("core.origin_commit_skew", t.commit_skew_ms, "ms");
    out.push(
        "core.converge_check_s",
        spans.total_under(s.span, "validate.converge"),
        "s",
    );
    let transit_ns = kernels[if w.lossy {
        "kernel.net_transit_fault_ns"
    } else {
        "kernel.net_transit_ns"
    }];
    let modelled_s = (events * kernels["kernel.event_queue_ns_per_op"]
        + offered * transit_ns
        + logical_msgs * bcast_kernel_ns(w, &kernels))
        / 1e9;
    out.push("core.residual_share", 1.0 - modelled_s / loop_s, "ratio");
    // db
    out.push("db.lock_waiters_max", t.lock_waiters_max as f64, "count");
    out.push("db.lock_keys_max", t.lock_keys_max as f64, "count");
    let sg_s = spans.total_under(s.span, "validate.sg");
    out.push("db.sg_check_s", sg_s, "s");
    out.push("db.sg_check_us_per_txn", sg_s * 1e6 / txns, "us");
    out.push(
        "db.recover_ms",
        spans.total_under(s.span, "recover") * 1e3,
        "ms",
    );
    // telemetry
    out.push("telemetry.trace_events", t.trace_events as f64, "count");
    out.push(
        "telemetry.events_per_txn",
        t.trace_events as f64 / txns,
        "count",
    );
    out.push("telemetry.sampler_samples", t.samples as f64, "count");
    out.push(
        "telemetry.invariants_check_s",
        spans.total_under(traced.span, "validate.invariants"),
        "s",
    );
    out.push("telemetry.spans_build_s", spans.total_s("spans.build"), "s");
    out.push(
        "telemetry.jsonl_flush_s",
        spans.total_under(traced.span, "trace.flush"),
        "s",
    );
    out.push(
        "telemetry.product_trace_overhead",
        traced.wall_s / untraced_wall,
        "ratio",
    );
    // workload / harness
    out.push(
        "workload.gen_us_per_txn",
        setup_s * 1e6 / inputs.txns() as f64,
        "us",
    );
    out.push("harness.reps", plain_walls.len() as f64, "count");
    out.push("harness.rep_min_s", plain_min, "s");
    out.push("harness.rep_iqr_ratio", iqr_ratio(&plain_walls), "ratio");
    out.push("harness.span_overhead_ratio", s.wall_s / plain_min, "ratio");
    out.push("harness.span_coverage", spans.rep_coverage(), "ratio");
    out.push(
        "harness.check_failures",
        checks.failures.len() as f64,
        "count",
    );
    for (name, value) in &kernels {
        let unit = if name.contains("_us_") { "us" } else { "ns" };
        out.push(name, *value, unit);
    }

    let path = a.out_dir.join(format!("spans-{}.json", w.name));
    if let Err(e) = std::fs::write(&path, spans.to_json(w.name, a.seed)) {
        checks
            .failures
            .push(format!("cannot write {}: {e}", path.display()));
    }
    (out, attempted)
}

fn to_json(correct: bool, attempted: u64, failed: u64, metrics: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn ensure_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| ensure_dir(&a.out_dir).map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bcastdb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    assert!(
        bcastdb_memprobe::allocation_count() > 0,
        "the counting allocator of bcastdb-bench is not installed"
    );
    let (inputs, setup_s) = setup(&args.workload, args.seed);
    let mut checks = Checks::default();
    let (metrics, attempted) = if args.trace {
        per_layer(&args, &inputs, setup_s, &mut checks)
    } else {
        end_to_end(&args, &inputs, setup_s, &mut checks)
    };
    // The traced workload's JSONL stream is scratch output.
    let _ = std::fs::remove_file(
        args.out_dir
            .join(format!("trace-{}.jsonl", args.workload.name)),
    );

    for m in &metrics.0 {
        println!(
            "{:<14} {:<40} {:>18.6} {}",
            args.workload.name, m.name, m.value, m.unit
        );
    }
    for f in &checks.failures {
        eprintln!("CHECK FAILED [{}]: {f}", args.workload.name);
    }
    let correct = checks.failures.is_empty();
    let failed = checks.wedged.max(checks.failures.len() as u64);
    println!("{}", to_json(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
