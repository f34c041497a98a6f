//! Chrome Trace Event / Perfetto export of a simulated run.
//!
//! Converts a trace (the JSONL a run dumps via `--trace-out`), the
//! per-transaction spans reconstructed from it, and optional metrics
//! samples (`--metrics-out` JSONL) into one self-contained JSON document
//! in the [Chrome Trace Event format], loadable in `ui.perfetto.dev` or
//! `chrome://tracing`:
//!
//! * **pid 1 "cluster"** — one thread track per site (`tid = site + 1`).
//!   Transaction lifecycle milestones (`submit`, `vote`, `commit`, …)
//!   appear as instant events on the site that recorded them. Message
//!   transmissions (`Send`/`Deliver`/`Drop`/`BatchFlushed`) are *omitted*:
//!   they dominate event counts a thousandfold and Perfetto's counter and
//!   slice views tell the bandwidth story better.
//! * **async "txn" slices** — every committed transaction becomes a
//!   nestable async slice on its origin's track, from submission to
//!   origin commit, with one child slice per nonzero latency segment
//!   (`read`, `disseminate`, `order_wait`, `votes`, `decide` — the same
//!   decomposition `bcast-trace summary` prints).
//! * **pid 2 "metrics"** — every scalar in the metrics samples becomes a
//!   counter track (`ph: "C"`); histograms contribute their cumulative
//!   observation count as `<name>.n`.
//!
//! Timestamps are the simulator's virtual microseconds, which is exactly
//! the unit the trace viewer expects — wall-clock never enters the file,
//! so exports are byte-identical across machines and job counts.
//!
//! [Chrome Trace Event format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use bcastdb_sim::json::quote;
use bcastdb_sim::stats::Sample;
use bcastdb_sim::telemetry::{Segment, SpanBuilder, TraceEvent, TxnRef, TxnSpan};
use bcastdb_sim::SiteId;
use std::collections::BTreeSet;

/// The `pid` of the per-site lifecycle tracks.
pub const CLUSTER_PID: u64 = 1;

/// The `pid` of the metrics counter tracks.
pub const METRICS_PID: u64 = 2;

/// Renders a complete Chrome Trace Event JSON document
/// (`{"traceEvents":[...]}`) from a run's trace and metrics samples.
///
/// Pass an empty `samples` slice when the run had metrics off — the
/// metrics process is then omitted entirely.
pub fn export_chrome_trace(events: &[TraceEvent], samples: &[Sample]) -> String {
    let mut out = Vec::new();
    let sites = sites_in(events);

    // Process/thread metadata first, so every later (pid, tid) pair is
    // declared before use.
    out.push(meta_process(CLUSTER_PID, "cluster"));
    for &site in &sites {
        out.push(meta_thread(
            CLUSTER_PID,
            tid_for(site),
            &format!("site {}", site.0),
        ));
    }
    if !samples.is_empty() {
        out.push(meta_process(METRICS_PID, "metrics"));
    }

    let mut spans = SpanBuilder::new();
    for ev in events {
        spans.ingest(ev);
        if let Some(e) = instant_event(ev) {
            out.push(e);
        }
    }
    for span in spans.spans().values() {
        txn_slices(span, &mut out);
    }
    counter_events(samples, &mut out);

    let mut doc = String::from("{\"traceEvents\":[\n");
    doc.push_str(&out.join(",\n"));
    doc.push_str("\n]}\n");
    doc
}

fn tid_for(site: SiteId) -> u64 {
    site.0 as u64 + 1
}

/// The `origin:num` transaction label the CLI uses everywhere
/// (`bcast-trace timeline 0:3 ...`), numeric on both sides.
fn txn_label(txn: TxnRef) -> String {
    format!("{}:{}", txn.origin.0, txn.num)
}

fn sites_in(events: &[TraceEvent]) -> BTreeSet<SiteId> {
    let mut sites = BTreeSet::new();
    for ev in events {
        match ev {
            TraceEvent::Send { from, to, .. }
            | TraceEvent::Deliver { from, to, .. }
            | TraceEvent::Drop { from, to, .. }
            | TraceEvent::BatchFlushed { from, to, .. } => {
                sites.insert(*from);
                sites.insert(*to);
            }
            TraceEvent::Submit { txn, .. }
            | TraceEvent::LocksAcquired { txn, .. }
            | TraceEvent::CommitReqOut { txn, .. } => {
                sites.insert(txn.origin);
            }
            TraceEvent::Vote { site, .. }
            | TraceEvent::Decided { site, .. }
            | TraceEvent::Commit { site, .. }
            | TraceEvent::Abort { site, .. }
            | TraceEvent::TotalOrder { site, .. }
            | TraceEvent::ViewChange { site, .. }
            | TraceEvent::Crash { site, .. }
            | TraceEvent::Suspect { site, .. }
            | TraceEvent::FastDecide { site, .. } => {
                sites.insert(*site);
            }
        }
    }
    sites
}

fn meta_process(pid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
        quote(name)
    )
}

fn meta_thread(pid: u64, tid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
        quote(name)
    )
}

fn instant(name: &str, ts: u64, tid: u64, args: &str) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{CLUSTER_PID},\"tid\":{tid},\"args\":{{{args}}}}}",
        quote(name)
    )
}

/// The instant event for a lifecycle trace record; `None` for the
/// message-level records the export deliberately drops.
fn instant_event(ev: &TraceEvent) -> Option<String> {
    Some(match ev {
        TraceEvent::Send { .. }
        | TraceEvent::Deliver { .. }
        | TraceEvent::Drop { .. }
        | TraceEvent::BatchFlushed { .. } => return None,
        TraceEvent::Submit { at, txn, read_only } => instant(
            "submit",
            at.as_micros(),
            tid_for(txn.origin),
            &format!("\"txn\":\"{}\",\"read_only\":{read_only}", txn_label(*txn)),
        ),
        TraceEvent::LocksAcquired { at, txn } => instant(
            "locks_acquired",
            at.as_micros(),
            tid_for(txn.origin),
            &format!("\"txn\":\"{}\"", txn_label(*txn)),
        ),
        TraceEvent::CommitReqOut { at, txn } => instant(
            "commit_req_out",
            at.as_micros(),
            tid_for(txn.origin),
            &format!("\"txn\":\"{}\"", txn_label(*txn)),
        ),
        TraceEvent::Vote { at, site, txn, yes } => instant(
            "vote",
            at.as_micros(),
            tid_for(*site),
            &format!("\"txn\":\"{}\",\"yes\":{yes}", txn_label(*txn)),
        ),
        TraceEvent::Decided {
            at,
            site,
            txn,
            commit,
        } => instant(
            "decided",
            at.as_micros(),
            tid_for(*site),
            &format!("\"txn\":\"{}\",\"commit\":{commit}", txn_label(*txn)),
        ),
        TraceEvent::Commit { at, site, txn } => instant(
            "commit",
            at.as_micros(),
            tid_for(*site),
            &format!("\"txn\":\"{}\"", txn_label(*txn)),
        ),
        TraceEvent::Abort {
            at,
            site,
            txn,
            reason,
        } => instant(
            "abort",
            at.as_micros(),
            tid_for(*site),
            &format!(
                "\"txn\":\"{}\",\"reason\":{}",
                txn_label(*txn),
                quote(reason)
            ),
        ),
        TraceEvent::TotalOrder {
            at,
            site,
            txn,
            gseq,
        } => instant(
            "total_order",
            at.as_micros(),
            tid_for(*site),
            &format!("\"txn\":\"{}\",\"gseq\":{gseq}", txn_label(*txn)),
        ),
        TraceEvent::ViewChange { at, site, members } => {
            let members: Vec<String> = members.iter().map(|s| s.0.to_string()).collect();
            instant(
                "view_change",
                at.as_micros(),
                tid_for(*site),
                &format!("\"members\":[{}]", members.join(",")),
            )
        }
        TraceEvent::Crash { at, site } => instant("crash", at.as_micros(), tid_for(*site), ""),
        TraceEvent::Suspect { at, site, suspect } => instant(
            "suspect",
            at.as_micros(),
            tid_for(*site),
            &format!("\"suspect\":{}", suspect.0),
        ),
        TraceEvent::FastDecide { at, site, txn } => instant(
            "fast_decide",
            at.as_micros(),
            tid_for(*site),
            &format!("\"txn\":\"{}\"", txn_label(*txn)),
        ),
    })
}

fn async_event(ph: char, name: &str, id: &str, ts: u64, tid: u64) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"txn\",\"ph\":\"{ph}\",\"id\":{},\"ts\":{ts},\"pid\":{CLUSTER_PID},\"tid\":{tid}}}",
        quote(name),
        quote(id)
    )
}

/// Emits the nestable async slices for one committed transaction: an
/// outer `txn O:N` slice over its whole latency, with one child per
/// nonzero segment of the five-way decomposition. Aborted or pending
/// transactions emit nothing — their milestones are still visible as
/// instants.
fn txn_slices(span: &TxnSpan, out: &mut Vec<String>) {
    let Some(breakdown) = span.decompose() else {
        return;
    };
    let Some(submit) = span.submit else { return };
    let tid = tid_for(span.txn.origin);
    let id = txn_label(span.txn);
    let outer = format!("txn {id}");
    let start = submit.as_micros();
    let mut at = start;
    out.push(async_event('b', &outer, &id, start, tid));
    for seg in Segment::ALL {
        let d = breakdown.get(seg).as_micros();
        if d == 0 {
            continue;
        }
        out.push(async_event('b', seg.name(), &id, at, tid));
        at += d;
        out.push(async_event('e', seg.name(), &id, at, tid));
    }
    out.push(async_event('e', &outer, &id, at, tid));
}

/// Emits one counter event per scalar per sample on the metrics process,
/// plus a `<name>.n` cumulative-count track per histogram.
fn counter_events(samples: &[Sample], out: &mut Vec<String>) {
    for s in samples {
        let ts = s.at.as_micros();
        for (name, v) in &s.values {
            out.push(counter(name, ts, *v));
        }
        for (name, buckets) in &s.hists {
            let n: u64 = buckets.iter().map(|&(_, c)| c).sum();
            out.push(counter(&format!("{name}.n"), ts, n));
        }
    }
}

fn counter(name: &str, ts: u64, value: u64) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"C\",\"ts\":{ts},\"pid\":{METRICS_PID},\"args\":{{\"value\":{value}}}}}",
        quote(name)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcastdb_sim::telemetry::TxnRef;
    use bcastdb_sim::{SimDuration, SimTime};

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn txn(origin: usize, num: u64) -> TxnRef {
        TxnRef {
            origin: SiteId(origin),
            num,
        }
    }

    fn committed_txn_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Submit {
                at: t(100),
                txn: txn(0, 1),
                read_only: false,
            },
            TraceEvent::LocksAcquired {
                at: t(150),
                txn: txn(0, 1),
            },
            TraceEvent::CommitReqOut {
                at: t(200),
                txn: txn(0, 1),
            },
            TraceEvent::Vote {
                at: t(300),
                site: SiteId(1),
                txn: txn(0, 1),
                yes: true,
            },
            TraceEvent::Commit {
                at: t(400),
                site: SiteId(0),
                txn: txn(0, 1),
            },
        ]
    }

    #[test]
    fn document_is_wrapped_and_declares_processes() {
        let doc = export_chrome_trace(&committed_txn_events(), &[]);
        assert!(doc.starts_with("{\"traceEvents\":[\n"));
        assert!(doc.trim_end().ends_with("]}"));
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("\"name\":\"cluster\""));
        assert!(doc.contains("\"name\":\"site 0\""));
        assert!(doc.contains("\"name\":\"site 1\""));
        // Metrics process only appears when samples exist.
        assert!(!doc.contains("\"name\":\"metrics\""));
    }

    #[test]
    fn committed_txn_becomes_nested_async_slices() {
        let doc = export_chrome_trace(&committed_txn_events(), &[]);
        assert!(doc.contains("\"name\":\"txn 0:1\",\"cat\":\"txn\",\"ph\":\"b\""));
        assert!(doc.contains("\"name\":\"txn 0:1\",\"cat\":\"txn\",\"ph\":\"e\""));
        // The segment children share the outer slice's id.
        assert!(doc
            .contains("\"name\":\"read\",\"cat\":\"txn\",\"ph\":\"b\",\"id\":\"0:1\",\"ts\":100"));
        assert!(doc.contains(
            "\"name\":\"decide\",\"cat\":\"txn\",\"ph\":\"e\",\"id\":\"0:1\",\"ts\":400"
        ));
    }

    #[test]
    fn message_events_are_dropped_but_lifecycle_instants_kept() {
        let mut events = committed_txn_events();
        events.push(TraceEvent::Send {
            at: t(250),
            from: SiteId(0),
            to: SiteId(1),
            phase: bcastdb_sim::telemetry::Phase::Prepare,
        });
        let doc = export_chrome_trace(&events, &[]);
        assert!(!doc.contains("\"Send\""));
        assert!(doc.contains("\"name\":\"submit\""));
        assert!(doc.contains("\"name\":\"vote\""));
        assert!(doc.contains("\"name\":\"commit\""));
        // The Send's endpoints still get thread tracks.
        assert!(doc.contains("\"name\":\"site 1\""));
    }

    #[test]
    fn metrics_samples_become_counter_tracks() {
        let mut sample = Sample::new(t(1000));
        sample.values.insert("queue_depth".into(), 7);
        sample.hists.insert("lat".into(), vec![(3, 2), (4, 1)]);
        let doc = export_chrome_trace(&committed_txn_events(), &[sample]);
        assert!(doc.contains("\"name\":\"metrics\""));
        assert!(doc.contains(
            "{\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":1000,\"pid\":2,\"args\":{\"value\":7}}"
        ));
        assert!(doc.contains(
            "{\"name\":\"lat.n\",\"ph\":\"C\",\"ts\":1000,\"pid\":2,\"args\":{\"value\":3}}"
        ));
    }

    #[test]
    fn aborted_txns_emit_instants_but_no_slice() {
        let events = vec![
            TraceEvent::Submit {
                at: t(10),
                txn: txn(2, 5),
                read_only: false,
            },
            TraceEvent::Abort {
                at: t(20),
                site: SiteId(2),
                txn: txn(2, 5),
                reason: "abort_wounded".into(),
            },
        ];
        let doc = export_chrome_trace(&events, &[]);
        assert!(doc.contains("\"name\":\"abort\""));
        assert!(doc.contains("\"reason\":\"abort_wounded\""));
        assert!(!doc.contains("\"cat\":\"txn\",\"ph\":\"b\""));
    }
}
