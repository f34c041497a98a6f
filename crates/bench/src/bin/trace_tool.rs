//! `bcast-trace` — offline analysis of bcastdb trace JSONL files.
//!
//! Reads a trace produced with `--trace-out` (or
//! `ClusterBuilder::trace_jsonl`) and reconstructs per-transaction spans:
//!
//! ```text
//! bcast-trace summary   <trace.jsonl>             per-segment latency breakdown
//! bcast-trace timeline  <origin:num> <trace.jsonl> one transaction across sites
//! bcast-trace slowest   [-n K] <trace.jsonl>      critical path of the K slowest commits
//! bcast-trace check     [--lossy] <trace.jsonl>   offline trace invariant run
//! bcast-trace export    <trace.jsonl> <out.json> [--metrics <samples.jsonl>]
//!                                                 Chrome Trace Event / Perfetto export
//! bcast-trace perf-diff <baseline.json> <current.json> [--max-regress F]
//!                       [--max-alloc-regress F]   wall-clock ledger regression gate
//! ```
//!
//! Exit status: `0` on success, `1` when the input is well-formed but a
//! check fails (trace invariant violation, perf regression), `2` on
//! usage errors and unreadable, empty, or malformed input.
//!
//! Traces written by the harness end in a `{"type":"trace_meta",...}`
//! trailer recording the event count and how many events the in-memory
//! ring evicted; `summary` and `check` warn loudly when the ring
//! overflowed, and every subcommand cross-checks the trailer's count
//! against the lines actually parsed.

use bcastdb_bench::perfdiff::{diff_ledgers, DiffConfig, WallclockLedger};
use bcastdb_bench::perfetto::export_chrome_trace;
use bcastdb_sim::stats::Sample;
use bcastdb_sim::telemetry::{
    render_summary, render_timeline, slowest, summarize, SpanBuilder, TraceEvent, TraceInvariants,
    TraceLine, TraceMeta, TxnRef,
};
use bcastdb_sim::SiteId;
use std::fs;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bcast-trace summary   <trace.jsonl>
  bcast-trace timeline  <origin:num> <trace.jsonl>
  bcast-trace slowest   [-n K] <trace.jsonl>
  bcast-trace check     [--lossy] <trace.jsonl>
  bcast-trace export    <trace.jsonl> <out.json> [--metrics <samples.jsonl>]
  bcast-trace perf-diff <baseline.json> <current.json> [--max-regress F] [--max-alloc-regress F]
  bcast-trace --help";

const HELP: &str = "bcast-trace — offline analysis of bcastdb trace JSONL files

subcommands:
  summary   <trace.jsonl>
      Per-segment latency breakdown (read/disseminate/order_wait/votes/
      decide) over every committed update transaction in the trace.

  timeline  <origin:num> <trace.jsonl>
      One transaction's milestones across all sites, as an ASCII timeline.

  slowest   [-n K] <trace.jsonl>
      The K slowest commits (default 5) with their dominant segment and
      full breakdown.

  check     [--lossy] <trace.jsonl>
      Replays the offline trace invariant checker and reports spans whose
      milestones needed clamping. Exits 1 on any violation. With --lossy,
      submitted transactions still in flight at the end of the trace are
      tolerated (for runs cut short by a fault schedule or packet loss);
      every other invariant — exactly-once termination, no unsent
      deliveries, total-order agreement — still applies.

  export    <trace.jsonl> <out.json> [--metrics <samples.jsonl>]
      Converts the trace (plus optional metrics samples from a run with
      --metrics-out) into Chrome Trace Event JSON: open out.json in
      ui.perfetto.dev or chrome://tracing. Sites become threads of the
      'cluster' process, committed transactions become nested async
      slices, metrics become counter tracks.

  perf-diff <baseline.json> <current.json> [--max-regress F] [--max-alloc-regress F]
      Compares two BENCH_wallclock.json ledgers experiment by experiment.
      Fails (exit 1) when events/sec regresses by more than F (default
      0.15), when allocs/event grows by more than the ratchet slack
      (default 0.10), or when a baseline experiment is missing from the
      current ledger.

exit status:
  0  success
  1  check failed: trace invariant violation or perf regression
  2  usage error, or unreadable / empty / malformed input

Traces written by the harness end in a trace_meta trailer line; summary,
check, and export warn when it records in-memory ring evictions
(in-process tail inspection was incomplete during the run — the file
itself holds the full stream), and a trailer event count that disagrees
with the parsed lines is an error.";

/// A CLI failure, split by exit code: `Check` is a well-formed input
/// failing a gate (exit 1), `Input` is a usage or IO problem (exit 2).
enum Failure {
    Check(String),
    Input(String),
}

impl Failure {
    fn input(msg: impl Into<String>) -> Failure {
        Failure::Input(msg.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Check(msg)) => {
            eprintln!("bcast-trace: {msg}");
            ExitCode::from(1)
        }
        Err(Failure::Input(msg)) => {
            eprintln!("bcast-trace: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), Failure> {
    let Some(cmd) = args.first() else {
        return Err(Failure::input(USAGE));
    };
    match cmd.as_str() {
        "--help" | "-h" | "help" => {
            println!("{HELP}");
            Ok(())
        }
        "summary" => {
            let path = one_operand(&args[1..])?;
            let (events, meta) = load(path)?;
            warn_on_evictions(path, &meta);
            let spans = build_spans(&events);
            let summary = summarize(spans.spans().values());
            if summary.count() == 0 {
                println!("no committed update transactions in {path}");
            } else {
                print!("{}", render_summary(&summary));
            }
            Ok(())
        }
        "timeline" => {
            let [txn, path] = two_operands(&args[1..])?;
            let txn = parse_txn(txn)?;
            let (events, _) = load(path)?;
            let spans = build_spans(&events);
            let span = spans.get(txn).ok_or_else(|| {
                Failure::input(format!(
                    "no events for txn {}:{} in {path}",
                    txn.origin.0, txn.num
                ))
            })?;
            print!("{}", render_timeline(span));
            Ok(())
        }
        "slowest" => {
            let (k, path) = parse_slowest(&args[1..])?;
            let (events, _) = load(path)?;
            let spans = build_spans(&events);
            let top = slowest(spans.spans().values(), k);
            if top.is_empty() {
                println!("no committed update transactions in {path}");
                return Ok(());
            }
            println!(
                "{:<10} {:>12} {:>14}  breakdown",
                "txn", "latency", "dominant"
            );
            for p in &top {
                let parts: Vec<String> = bcastdb_sim::telemetry::Segment::ALL
                    .iter()
                    .filter(|s| !p.breakdown.get(**s).is_zero())
                    .map(|s| format!("{}={}", s.name(), p.breakdown.get(*s)))
                    .collect();
                println!(
                    "{:<10} {:>12} {:>14}  {}",
                    format!("{}:{}", p.span.txn.origin.0, p.span.txn.num),
                    p.latency.to_string(),
                    p.dominant.name(),
                    parts.join(" ")
                );
            }
            Ok(())
        }
        "check" => {
            let (lossy, path) = parse_check(&args[1..])?;
            let (events, meta) = load(path)?;
            warn_on_evictions(path, &meta);
            let mut inv = TraceInvariants::new();
            for ev in &events {
                inv.ingest(ev);
            }
            let verdict = if lossy {
                inv.check_allowing_pending()
            } else {
                inv.check()
            };
            verdict.map_err(|v| Failure::Check(format!("invariant violated: {v}")))?;
            println!(
                "{}: {} events, invariants hold{}",
                path,
                events.len(),
                if lossy {
                    " (lossy: pending transactions tolerated)"
                } else {
                    ""
                }
            );
            // Non-monotonic milestone report: the span decomposition
            // clamps out-of-order milestones to keep its telescoping sum
            // exact; surface which spans needed that rather than hiding
            // the reordering.
            let spans = build_spans(&events);
            let noisy: Vec<String> = spans
                .spans()
                .iter()
                .filter_map(|(txn, span)| {
                    let b = span.decompose()?;
                    (b.clamped > 0)
                        .then(|| format!("{}:{} ({} milestones)", txn.origin.0, txn.num, b.clamped))
                })
                .collect();
            if noisy.is_empty() {
                println!("all committed spans have monotonic milestones");
            } else {
                println!(
                    "{} span(s) with non-monotonic milestones (clamped in decomposition):",
                    noisy.len()
                );
                for line in &noisy {
                    println!("  {line}");
                }
            }
            Ok(())
        }
        "export" => {
            let (trace_path, out_path, metrics_path) = parse_export(&args[1..])?;
            let (events, meta) = load(trace_path)?;
            warn_on_evictions(trace_path, &meta);
            let samples = match metrics_path {
                Some(p) => load_samples(p)?,
                None => Vec::new(),
            };
            let doc = export_chrome_trace(&events, &samples);
            fs::write(out_path, &doc)
                .map_err(|e| Failure::input(format!("cannot write {out_path}: {e}")))?;
            println!(
                "{out_path}: {} trace events, {} metrics samples -> open in ui.perfetto.dev",
                events.len(),
                samples.len()
            );
            Ok(())
        }
        "perf-diff" => {
            let (base_path, cur_path, config) = parse_perf_diff(&args[1..])?;
            let baseline = load_ledger(base_path)?;
            let current = load_ledger(cur_path)?;
            let report = diff_ledgers(&baseline, &current, config);
            print!("{}", report.render());
            if report.is_ok() {
                Ok(())
            } else {
                Err(Failure::Check(format!(
                    "{} perf violation(s) vs {base_path}",
                    report.violations().len()
                )))
            }
        }
        other => Err(Failure::input(format!(
            "unknown subcommand '{other}'\n{USAGE}"
        ))),
    }
}

fn one_operand(args: &[String]) -> Result<&String, Failure> {
    match args {
        [path] => Ok(path),
        _ => Err(Failure::input(USAGE)),
    }
}

fn two_operands(args: &[String]) -> Result<[&String; 2], Failure> {
    match args {
        [a, b] => Ok([a, b]),
        _ => Err(Failure::input(USAGE)),
    }
}

fn parse_check(args: &[String]) -> Result<(bool, &String), Failure> {
    match args {
        [path] => Ok((false, path)),
        [flag, path] if flag == "--lossy" => Ok((true, path)),
        _ => Err(Failure::input(USAGE)),
    }
}

fn parse_slowest(args: &[String]) -> Result<(usize, &String), Failure> {
    match args {
        [path] => Ok((5, path)),
        [flag, k, path] if flag == "-n" => {
            let k: usize = k
                .parse()
                .map_err(|_| Failure::input(format!("bad count '{k}'")))?;
            Ok((k, path))
        }
        _ => Err(Failure::input(USAGE)),
    }
}

fn parse_export(args: &[String]) -> Result<(&String, &String, Option<&String>), Failure> {
    match args {
        [trace, out] => Ok((trace, out, None)),
        [trace, out, flag, metrics] if flag == "--metrics" => Ok((trace, out, Some(metrics))),
        _ => Err(Failure::input(USAGE)),
    }
}

fn parse_perf_diff(args: &[String]) -> Result<(&String, &String, DiffConfig), Failure> {
    if args.len() < 2 {
        return Err(Failure::input(USAGE));
    }
    let (base, cur) = (&args[0], &args[1]);
    let mut rest = &args[2..];
    let mut config = DiffConfig::default();
    while !rest.is_empty() {
        match rest {
            [flag, value, tail @ ..] if flag == "--max-regress" => {
                config.max_regress = parse_fraction(flag, value)?;
                rest = tail;
            }
            [flag, value, tail @ ..] if flag == "--max-alloc-regress" => {
                config.max_alloc_regress = parse_fraction(flag, value)?;
                rest = tail;
            }
            _ => return Err(Failure::input(USAGE)),
        }
    }
    Ok((base, cur, config))
}

fn parse_fraction(flag: &str, value: &str) -> Result<f64, Failure> {
    let f: f64 = value
        .parse()
        .map_err(|_| Failure::input(format!("bad value '{value}' for {flag}")))?;
    if !(0.0..=10.0).contains(&f) {
        return Err(Failure::input(format!(
            "{flag} must be a fraction in [0, 10], got {value}"
        )));
    }
    Ok(f)
}

fn parse_txn(s: &str) -> Result<TxnRef, Failure> {
    let (origin, num) = s.split_once(':').ok_or_else(|| {
        Failure::input(format!(
            "bad transaction id '{s}' (expected origin:num, e.g. 0:3)"
        ))
    })?;
    let origin: usize = origin
        .parse()
        .map_err(|_| Failure::input(format!("bad origin site '{origin}'")))?;
    let num: u64 = num
        .parse()
        .map_err(|_| Failure::input(format!("bad transaction number '{num}'")))?;
    Ok(TxnRef {
        origin: SiteId(origin),
        num,
    })
}

fn warn_on_evictions(path: &str, meta: &Option<TraceMeta>) {
    if let Some(m) = meta {
        if m.ring_evicted > 0 {
            eprintln!(
                "bcast-trace: WARNING: {path}: the run's in-memory ring evicted {} event(s) \
                 (trace capacity exceeded) — in-process tail inspection was incomplete. This \
                 file itself holds the full stream (trailer count verified).",
                m.ring_evicted
            );
        }
    }
}

fn read(path: &str) -> Result<String, Failure> {
    fs::read_to_string(path).map_err(|e| Failure::input(format!("cannot read {path}: {e}")))
}

/// Loads a trace file: every JSONL event line plus the optional
/// `trace_meta` trailer. Errors (exit 2) on unreadable files, malformed
/// lines, an empty trace, or a trailer whose event count disagrees with
/// the lines actually parsed.
fn load(path: &str) -> Result<(Vec<TraceEvent>, Option<TraceMeta>), Failure> {
    let mut events = Vec::new();
    let mut meta = None;
    for (i, line) in read(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at_line = |e: String| Failure::input(format!("{path}:{}: {e}", i + 1));
        match TraceLine::from_jsonl(line).map_err(|e| at_line(format!("bad trace line: {e}")))? {
            TraceLine::Meta(_) if meta.is_some() => {
                return Err(at_line("duplicate trace_meta trailer".into()));
            }
            TraceLine::Meta(m) => meta = Some(m),
            TraceLine::Event(_) if meta.is_some() => {
                return Err(at_line("event line after the trace_meta trailer".into()));
            }
            TraceLine::Event(ev) => events.push(ev),
        }
    }
    if let Some(m) = &meta {
        if m.events != events.len() as u64 {
            return Err(Failure::input(format!(
                "{path}: trace_meta trailer claims {} events but {} were parsed \
                 (truncated or corrupted trace)",
                m.events,
                events.len()
            )));
        }
    }
    if events.is_empty() {
        return Err(Failure::input(format!("{path}: empty trace")));
    }
    Ok((events, meta))
}

/// Loads a metrics samples JSONL file (the `--metrics-out` output).
fn load_samples(path: &str) -> Result<Vec<Sample>, Failure> {
    let mut samples = Vec::new();
    for (i, line) in read(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let s = Sample::from_jsonl(line)
            .map_err(|e| Failure::input(format!("{path}:{}: bad metrics line: {e}", i + 1)))?;
        samples.push(s);
    }
    Ok(samples)
}

fn load_ledger(path: &str) -> Result<WallclockLedger, Failure> {
    WallclockLedger::parse(&read(path)?).map_err(|e| Failure::input(format!("{path}: {e}")))
}

fn build_spans(events: &[TraceEvent]) -> SpanBuilder {
    let mut spans = SpanBuilder::new();
    for ev in events {
        spans.ingest(ev);
    }
    spans
}
