//! Perf-regression gate over two `BENCH_wallclock.json` ledgers.
//!
//! [`write_wallclock_json`](crate::write_wallclock_json) records, per
//! experiment, the wall-clock throughput (`events_per_sec`) and the
//! deterministic allocation cost (`allocs_per_event`). This module parses
//! two such ledgers — a committed baseline and a fresh run — and compares
//! them experiment by experiment:
//!
//! * **events/sec** may regress by at most a configurable fraction
//!   ([`DiffConfig::max_regress`], default 15%). Wall-clock throughput is
//!   the one noisy number in the ledger, so the threshold is generous.
//! * **allocs/event** is a *ratchet*: in a deterministic simulator the
//!   allocation count is exactly reproducible, so any growth beyond a
//!   small slack ([`DiffConfig::max_alloc_regress`], default 10%) is a
//!   real cost regression, not noise.
//! * an experiment present in the baseline but **missing from the current
//!   ledger** is a violation — a silently dropped benchmark must not pass
//!   the gate.
//!
//! Experiments present only in the **current** ledger are *added*: they
//! are reported (with their fresh numbers and an `added` status) and
//! never fail the gate, so a PR that introduces a new experiment does not
//! have to regenerate the committed baseline just to get CI past the perf
//! gate. The CLI entry point is `bcast-trace perf-diff`; CI runs it
//! against the committed ledger (see `.github/workflows/ci.yml`).
//!
//! The ledger is read with `bcastdb_sim::json`, like every other JSON file
//! of the workspace.

use bcastdb_sim::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default allowed fractional `events_per_sec` regression (15%).
pub const DEFAULT_MAX_REGRESS: f64 = 0.15;

/// Default allowed fractional `allocs_per_event` growth (10%).
pub const DEFAULT_MAX_ALLOC_REGRESS: f64 = 0.10;

/// Thresholds for [`diff_ledgers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Maximum tolerated fractional drop in `events_per_sec`
    /// (`0.15` = a 15% slowdown fails).
    pub max_regress: f64,
    /// Maximum tolerated fractional growth in `allocs_per_event`.
    pub max_alloc_regress: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            max_regress: DEFAULT_MAX_REGRESS,
            max_alloc_regress: DEFAULT_MAX_ALLOC_REGRESS,
        }
    }
}

/// One experiment's row from a `BENCH_wallclock.json` ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPerf {
    /// Experiment (sweep) name, e.g. `f2_throughput`.
    pub experiment: String,
    /// Simulator events processed across all runs.
    pub events: u64,
    /// Wall-clock time for the experiment, milliseconds.
    pub wall_ms: f64,
    /// Events per wall-clock second (the throughput headline).
    pub events_per_sec: f64,
    /// Heap allocations per simulator event (deterministic).
    pub allocs_per_event: f64,
}

/// A parsed `BENCH_wallclock.json` ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct WallclockLedger {
    /// Git revision the ledger was recorded at.
    pub git_rev: String,
    /// Worker count (`BCASTDB_JOBS`) of the recording run.
    pub jobs: u64,
    /// Total wall-clock time across all experiments, milliseconds.
    pub total_wall_ms: f64,
    /// Per-experiment rows, in file order.
    pub experiments: Vec<ExperimentPerf>,
}

impl WallclockLedger {
    /// Parses the JSON text of a `BENCH_wallclock.json` file.
    pub fn parse(text: &str) -> Result<WallclockLedger, String> {
        let root = json::parse(text)?;
        let root = root.named("ledger");
        let experiments = root.get("experiments")?.arr()?.map(parse_experiment);
        Ok(WallclockLedger {
            git_rev: root.get("git_rev")?.str()?.to_owned(),
            jobs: root.get("jobs")?.u64()?,
            total_wall_ms: root.get("total_wall_ms")?.f64()?,
            experiments: experiments.collect::<Result<_, _>>()?,
        })
    }
}

fn parse_experiment(row: json::Field<'_>) -> Result<ExperimentPerf, String> {
    Ok(ExperimentPerf {
        experiment: row.get("experiment")?.str()?.to_owned(),
        events: row.get("events")?.u64()?,
        wall_ms: row.get("wall_ms")?.f64()?,
        events_per_sec: row.get("events_per_sec")?.f64()?,
        allocs_per_event: row.get("allocs_per_event")?.f64()?,
    })
}

/// How one experiment fared between the two ledgers.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffStatus {
    /// Within thresholds (possibly faster).
    Ok,
    /// Failed a threshold; the strings say which.
    Regressed(Vec<String>),
    /// Present in the baseline but absent from the current ledger.
    MissingInCurrent,
    /// Added: present only in the current ledger (informational, never a
    /// violation — new experiments must not force a baseline refresh).
    NewInCurrent,
}

/// One experiment's comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentDiff {
    /// Experiment name.
    pub experiment: String,
    /// Baseline row, when present.
    pub baseline: Option<ExperimentPerf>,
    /// Current row, when present.
    pub current: Option<ExperimentPerf>,
    /// The verdict for this experiment.
    pub status: DiffStatus,
}

/// The full comparison: one row per experiment seen in either ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Rows in baseline file order, then current-only rows.
    pub rows: Vec<ExperimentDiff>,
    /// The thresholds the report was produced under.
    pub config: DiffConfig,
}

impl DiffReport {
    /// True iff no experiment regressed or went missing.
    pub fn is_ok(&self) -> bool {
        self.rows
            .iter()
            .all(|r| matches!(r.status, DiffStatus::Ok | DiffStatus::NewInCurrent))
    }

    /// All violation messages, one per failed experiment check.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.rows {
            match &r.status {
                DiffStatus::Regressed(msgs) => {
                    for m in msgs {
                        out.push(format!("{}: {m}", r.experiment));
                    }
                }
                DiffStatus::MissingInCurrent => {
                    out.push(format!(
                        "{}: present in baseline but missing from current ledger",
                        r.experiment
                    ));
                }
                DiffStatus::Ok | DiffStatus::NewInCurrent => {}
            }
        }
        out
    }

    /// Human-readable table plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>14} {:>14} {:>8} {:>12} {:>12}  status",
            "experiment", "base ev/s", "cur ev/s", "delta", "base a/ev", "cur a/ev"
        );
        for r in &self.rows {
            let (beps, bape) = r.baseline.as_ref().map_or(("-".into(), "-".into()), |b| {
                (
                    format!("{:.0}", b.events_per_sec),
                    format!("{:.2}", b.allocs_per_event),
                )
            });
            let (ceps, cape) = r.current.as_ref().map_or(("-".into(), "-".into()), |c| {
                (
                    format!("{:.0}", c.events_per_sec),
                    format!("{:.2}", c.allocs_per_event),
                )
            });
            let delta = match (&r.baseline, &r.current) {
                (Some(b), Some(c)) if b.events_per_sec > 0.0 => format!(
                    "{:+.1}%",
                    (c.events_per_sec / b.events_per_sec - 1.0) * 100.0
                ),
                _ => "-".into(),
            };
            let status = match &r.status {
                DiffStatus::Ok => "ok".to_string(),
                DiffStatus::Regressed(_) => "REGRESSED".to_string(),
                DiffStatus::MissingInCurrent => "MISSING".to_string(),
                DiffStatus::NewInCurrent => "added".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<24} {:>14} {:>14} {:>8} {:>12} {:>12}  {status}",
                r.experiment, beps, ceps, delta, bape, cape
            );
        }
        let violations = self.violations();
        let added = self
            .rows
            .iter()
            .filter(|r| r.status == DiffStatus::NewInCurrent)
            .count();
        if violations.is_empty() {
            let added_note = if added > 0 {
                format!(", {added} added without baseline")
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "perf-diff: ok ({} experiments within thresholds: events/sec -{:.0}%, allocs/event +{:.0}%{added_note})",
                self.rows.len(),
                self.config.max_regress * 100.0,
                self.config.max_alloc_regress * 100.0
            );
        } else {
            let _ = writeln!(out, "perf-diff: {} violation(s):", violations.len());
            for v in &violations {
                let _ = writeln!(out, "  {v}");
            }
        }
        out
    }
}

/// Compares `current` against `baseline` under `config`.
pub fn diff_ledgers(
    baseline: &WallclockLedger,
    current: &WallclockLedger,
    config: DiffConfig,
) -> DiffReport {
    let cur_by_name: BTreeMap<&str, &ExperimentPerf> = current
        .experiments
        .iter()
        .map(|e| (e.experiment.as_str(), e))
        .collect();
    let base_names: std::collections::BTreeSet<&str> = baseline
        .experiments
        .iter()
        .map(|e| e.experiment.as_str())
        .collect();
    let mut rows = Vec::new();
    for b in &baseline.experiments {
        let row = match cur_by_name.get(b.experiment.as_str()) {
            None => ExperimentDiff {
                experiment: b.experiment.clone(),
                baseline: Some(b.clone()),
                current: None,
                status: DiffStatus::MissingInCurrent,
            },
            Some(c) => {
                let mut msgs = Vec::new();
                if b.events_per_sec > 0.0 {
                    let drop = 1.0 - c.events_per_sec / b.events_per_sec;
                    if drop > config.max_regress {
                        msgs.push(format!(
                            "events/sec regressed {:.1}% ({:.0} -> {:.0}, limit {:.0}%)",
                            drop * 100.0,
                            b.events_per_sec,
                            c.events_per_sec,
                            config.max_regress * 100.0
                        ));
                    }
                }
                if b.allocs_per_event > 0.0 {
                    let growth = c.allocs_per_event / b.allocs_per_event - 1.0;
                    if growth > config.max_alloc_regress {
                        msgs.push(format!(
                            "allocs/event ratchet broken: grew {:.1}% ({:.2} -> {:.2}, limit {:.0}%)",
                            growth * 100.0,
                            b.allocs_per_event,
                            c.allocs_per_event,
                            config.max_alloc_regress * 100.0
                        ));
                    }
                }
                ExperimentDiff {
                    experiment: b.experiment.clone(),
                    baseline: Some(b.clone()),
                    current: Some((*c).clone()),
                    status: if msgs.is_empty() {
                        DiffStatus::Ok
                    } else {
                        DiffStatus::Regressed(msgs)
                    },
                }
            }
        };
        rows.push(row);
    }
    for c in &current.experiments {
        if !base_names.contains(c.experiment.as_str()) {
            rows.push(ExperimentDiff {
                experiment: c.experiment.clone(),
                baseline: None,
                current: Some(c.clone()),
                status: DiffStatus::NewInCurrent,
            });
        }
    }
    DiffReport { rows, config }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(rows: &[(&str, f64, f64)]) -> WallclockLedger {
        WallclockLedger {
            git_rev: "deadbeef".into(),
            jobs: 1,
            total_wall_ms: 100.0,
            experiments: rows
                .iter()
                .map(|&(name, eps, ape)| ExperimentPerf {
                    experiment: name.into(),
                    events: 1000,
                    wall_ms: 10.0,
                    events_per_sec: eps,
                    allocs_per_event: ape,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_committed_ledger_schema() {
        let text = r#"{
  "git_rev": "906a4b849d0a",
  "jobs": 1,
  "total_wall_ms": 3270.112,
  "total_runs_wall_ms": 3269.990,
  "parallel_speedup": 1.000,
  "experiments": [
    { "experiment": "t1_messages", "runs": 20, "jobs": 1, "wall_ms": 2.522, "runs_wall_ms": 2.517, "speedup": 0.998, "events": 1509, "events_per_sec": 598334.7, "allocs": 10003, "allocs_per_event": 6.63 }
  ]
}"#;
        let l = WallclockLedger::parse(text).expect("parse");
        assert_eq!(l.git_rev, "906a4b849d0a");
        assert_eq!(l.jobs, 1);
        assert_eq!(l.experiments.len(), 1);
        let e = &l.experiments[0];
        assert_eq!(e.experiment, "t1_messages");
        assert_eq!(e.events, 1509);
        assert!((e.events_per_sec - 598334.7).abs() < 1e-6);
        assert!((e.allocs_per_event - 6.63).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_ledgers() {
        assert!(WallclockLedger::parse("").is_err());
        assert!(WallclockLedger::parse("[]").is_err());
        assert!(WallclockLedger::parse("{\"git_rev\": 3}").is_err());
        assert!(WallclockLedger::parse("{\"x\":1} trailing").is_err());
        assert!(
            WallclockLedger::parse(
                "{\"git_rev\":\"a\",\"jobs\":1,\"total_wall_ms\":1,\"experiments\":[{}]}"
            )
            .is_err(),
            "experiment entries must carry the perf fields"
        );
    }

    #[test]
    fn within_threshold_passes() {
        let base = ledger(&[("f2", 100_000.0, 5.0)]);
        let cur = ledger(&[("f2", 90_000.0, 5.2)]); // -10% eps, +4% allocs
        let report = diff_ledgers(&base, &cur, DiffConfig::default());
        assert!(report.is_ok(), "{:?}", report.violations());
        assert_eq!(report.rows[0].status, DiffStatus::Ok);
    }

    #[test]
    fn throughput_regression_fails() {
        let base = ledger(&[("f2", 100_000.0, 5.0)]);
        let cur = ledger(&[("f2", 80_000.0, 5.0)]); // -20% > 15%
        let report = diff_ledgers(&base, &cur, DiffConfig::default());
        assert!(!report.is_ok());
        let v = report.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("events/sec regressed 20.0%"), "{}", v[0]);
    }

    #[test]
    fn alloc_ratchet_break_fails() {
        let base = ledger(&[("f2", 100_000.0, 5.0)]);
        let cur = ledger(&[("f2", 100_000.0, 6.0)]); // +20% > 10%
        let report = diff_ledgers(&base, &cur, DiffConfig::default());
        assert!(!report.is_ok());
        let v = report.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("allocs/event ratchet broken"), "{}", v[0]);
    }

    #[test]
    fn improvement_passes_and_renders() {
        let base = ledger(&[("f2", 100_000.0, 5.0)]);
        let cur = ledger(&[("f2", 150_000.0, 4.0)]);
        let report = diff_ledgers(&base, &cur, DiffConfig::default());
        assert!(report.is_ok());
        let text = report.render();
        assert!(text.contains("+50.0%"), "{text}");
        assert!(text.contains("perf-diff: ok"), "{text}");
    }

    #[test]
    fn missing_experiment_is_a_violation() {
        let base = ledger(&[("f2", 100_000.0, 5.0), ("f3", 50_000.0, 4.0)]);
        let cur = ledger(&[("f2", 100_000.0, 5.0)]);
        let report = diff_ledgers(&base, &cur, DiffConfig::default());
        assert!(!report.is_ok());
        assert_eq!(report.rows[1].status, DiffStatus::MissingInCurrent);
        let v = report.violations();
        assert!(v[0].contains("missing from current ledger"), "{}", v[0]);
    }

    #[test]
    fn added_experiment_is_informational_and_passes_the_gate() {
        let base = ledger(&[("f2", 100_000.0, 5.0)]);
        let cur = ledger(&[("f2", 100_000.0, 5.0), ("f9", 10_000.0, 2.0)]);
        let report = diff_ledgers(&base, &cur, DiffConfig::default());
        assert!(report.is_ok(), "added experiments must not fail the gate");
        assert!(report.violations().is_empty());
        assert_eq!(report.rows[1].status, DiffStatus::NewInCurrent);
        let text = report.render();
        assert!(text.contains("added"), "{text}");
        assert!(text.contains("1 added without baseline"), "{text}");
        assert!(text.contains("perf-diff: ok"), "{text}");
    }

    /// The combination the satellite exists for: a PR adds an experiment
    /// *and* a baseline experiment regresses. The added row stays
    /// informational while the regression still fails — the two paths must
    /// not be lumped together.
    #[test]
    fn added_experiment_does_not_mask_a_real_regression() {
        let base = ledger(&[("f2", 100_000.0, 5.0)]);
        let cur = ledger(&[("f2", 50_000.0, 5.0), ("a1_saturation", 10_000.0, 2.0)]);
        let report = diff_ledgers(&base, &cur, DiffConfig::default());
        assert!(!report.is_ok());
        let v = report.violations();
        assert_eq!(v.len(), 1, "only the regression is a violation: {v:?}");
        assert!(v[0].contains("f2"), "{}", v[0]);
        assert_eq!(report.rows[1].status, DiffStatus::NewInCurrent);
    }

    #[test]
    fn custom_thresholds_apply() {
        let base = ledger(&[("f2", 100_000.0, 5.0)]);
        let cur = ledger(&[("f2", 95_000.0, 5.0)]); // -5%
        let tight = DiffConfig {
            max_regress: 0.02,
            max_alloc_regress: 0.0,
        };
        assert!(!diff_ledgers(&base, &cur, tight).is_ok());
        assert!(diff_ledgers(&base, &cur, DiffConfig::default()).is_ok());
    }
}
