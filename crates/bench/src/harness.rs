//! Parallel sweep harness for the experiments, and the tools' environment.
//!
//! Every experiment is a *sweep*: a list of independent `(config, seed)`
//! simulation runs whose outputs are assembled into one table. The runs
//! share nothing — each builds its own [`bcastdb_core::Cluster`] from a
//! fixed seed — so they can execute on worker threads, as long as the
//! *results* come back in config order: the console table, the mirrored
//! CSV, and `experiments_output.txt` must be byte-identical to a serial
//! run no matter how many workers raced.
//!
//! [`Sweep::run`] provides exactly that contract:
//!
//! * Workers claim config indices from a shared atomic counter and run the
//!   caller's closure entirely inside their own thread. The `Cluster` (and
//!   its `Rc`-based tracer) never crosses a thread boundary — only the
//!   `Send` result value does.
//! * Results land in an index-addressed slot table; the caller receives a
//!   plain `Vec` in config order. All printing, CSV emission, and
//!   cross-run assertions happen on the calling thread afterwards.
//! * Each run is timed with [`Instant`]; the [`SweepOutcome`] carries the
//!   per-run and whole-sweep wall-clock so its [`LedgerEntry`] can report
//!   the achieved speedup (`runs_wall_ms / wall_ms`).
//!
//! The worker count comes from `BCASTDB_JOBS` (default: the machine's
//! available parallelism). `BCASTDB_JOBS=1` forces the serial path, which
//! runs the closure on the calling thread — useful both as a baseline and
//! under a debugger.
//!
//! This module is also the one place the process environment and command
//! line are interpreted: the two `BCASTDB_*` variables are read here
//! ([`Options::from_env`]) and the tools' flag loops share [`flag_value`]
//! and [`usage_error`], so a bad value is one line on stderr and exit 2
//! everywhere. The wall-clock ledger (`BENCH_wallclock.json`) is written
//! by [`write_wallclock_json`] from the [`LedgerEntry`] each sweep leaves
//! in its [`Run`](crate::experiments::Run).

use bcastdb_sim::json::quote;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What the command line and environment select for a run.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Sweep worker threads (`BCASTDB_JOBS`; unset means the machine's
    /// available parallelism).
    pub jobs: usize,
    /// Mirror every table to `<dir>/<name>.csv` (`BCASTDB_RESULTS_DIR`).
    pub results_dir: Option<PathBuf>,
    /// `--smoke`: the CI-sized variant of a1 and f6 (same assertions).
    pub smoke: bool,
    /// `--trace-out <base>`: every cluster streams its JSONL trace to
    /// `<base>-<label>.jsonl` for `bcast-trace`.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-out <base>`: every cluster runs the deterministic metrics
    /// sampler (1 ms of virtual time) and writes `<base>-<label>.jsonl`.
    pub metrics_out: Option<PathBuf>,
    /// `--timing`: per-run wall-clock lines on stderr, to see which config
    /// of a sweep eats the time (PERFORMANCE.md, "Profiling").
    pub timing: bool,
}

impl Options {
    /// The options the environment sets; the flags stay off.
    ///
    /// # Errors
    /// `BCASTDB_JOBS` is set to something other than a positive integer.
    pub fn from_env() -> Result<Options, String> {
        Ok(Options {
            jobs: parse_jobs(std::env::var("BCASTDB_JOBS").ok().as_deref())?,
            results_dir: std::env::var_os("BCASTDB_RESULTS_DIR").map(PathBuf::from),
            ..Options::default()
        })
    }
}

/// `BCASTDB_JOBS`, parsed: a value that is not a positive integer is a
/// usage error, not a fallback.
fn parse_jobs(value: Option<&str>) -> Result<usize, String> {
    match value {
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("BCASTDB_JOBS={v:?} is not a positive integer")),
        },
    }
}

/// The value following `flag` on a command line.
///
/// # Errors
/// The flag was the last argument.
pub fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Reports a usage error as one `tool: message` line on stderr and exits 2
/// (the tools' 0 = ok / 1 = failed / 2 = bad invocation contract).
pub fn usage_error(tool: &str, message: &str) -> ! {
    eprintln!("{tool}: {message}");
    std::process::exit(2);
}

/// Writes `text` to stdout. A reader that went away (`| head`) ends the
/// tool with exit 1 and one line on stderr, not a `print!` panic.
pub fn print_stdout(tool: &str, text: &str) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_all(text.as_bytes()) {
        eprintln!("{tool}: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// A parallel sweep executor with a fixed worker count.
///
/// See the [module docs](self) for the ordering/determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    jobs: usize,
}

impl Sweep {
    /// A sweep with an explicit worker count (clamped to `jobs >= 1`).
    pub fn with_jobs(jobs: usize) -> Self {
        Sweep { jobs: jobs.max(1) }
    }

    /// Runs `run_one` over every config, on up to `jobs` worker
    /// threads, and returns the results **in config order** together with
    /// per-run wall-clock timings.
    ///
    /// A panic inside `run_one` (a failed experiment assertion) propagates
    /// to the caller once the scope joins, exactly as in a serial run.
    pub fn run<C, R, F>(&self, configs: Vec<C>, run_one: F) -> SweepOutcome<R>
    where
        C: Sync,
        R: Send,
        F: Fn(&C) -> R + Sync,
    {
        let started = Instant::now();
        let alloc_start = bcastdb_memprobe::allocation_count();
        let n = configs.len();
        let jobs = self.jobs.min(n.max(1));
        let mut timed: Vec<(R, Duration)> = Vec::with_capacity(n);
        if jobs <= 1 {
            for c in &configs {
                let t = Instant::now();
                let r = run_one(c);
                timed.push((r, t.elapsed()));
            }
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<(R, Duration)>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..jobs)
                    .map(|_| {
                        s.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let t = Instant::now();
                            let r = run_one(&configs[i]);
                            *slots[i].lock().expect("slot lock") = Some((r, t.elapsed()));
                        })
                    })
                    .collect();
                for w in workers {
                    // Re-raise a failed run's own panic payload (the
                    // experiment's assertion message) instead of the
                    // scope's generic "a scoped thread panicked".
                    if let Err(payload) = w.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
            for slot in slots {
                let filled = slot
                    .into_inner()
                    .expect("slot lock")
                    .expect("every index was claimed and completed");
                timed.push(filled);
            }
        }
        let mut results = Vec::with_capacity(n);
        let mut run_wall = Vec::with_capacity(n);
        for (r, d) in timed {
            results.push(r);
            run_wall.push(d);
        }
        SweepOutcome {
            results,
            run_wall,
            wall: started.elapsed(),
            allocs: bcastdb_memprobe::allocation_count() - alloc_start,
            jobs,
        }
    }
}

/// The results of one [`Sweep::run`], in config order, plus timings.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// One result per config, at the config's index.
    pub results: Vec<R>,
    /// Wall-clock of each run (same indexing as `results`).
    pub run_wall: Vec<Duration>,
    /// Wall-clock of the whole sweep (what the user actually waited).
    pub wall: Duration,
    /// Heap allocations performed during the sweep (exact and reproducible
    /// — this crate installs the `bcastdb-memprobe` counting allocator),
    /// the noise-free cost metric next to `wall`.
    pub allocs: u64,
    /// Worker threads actually used (clamped to the config count).
    pub jobs: usize,
}

impl<R> SweepOutcome<R> {
    /// Sum of the per-run wall-clocks — the serial-equivalent cost, and
    /// the numerator of the achieved speedup.
    pub fn total_run_wall(&self) -> Duration {
        self.run_wall.iter().sum()
    }
}

/// One experiment's row in the wall-clock ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Experiment (sweep) name, e.g. `f1_latency_vs_n`.
    pub experiment: String,
    /// Number of simulation runs in the sweep.
    pub runs: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Whole-sweep wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Sum of per-run wall-clocks, milliseconds (serial-equivalent cost).
    pub runs_wall_ms: f64,
    /// Total simulator events processed across the sweep's runs.
    pub events: u64,
    /// Heap allocations during the sweep (deterministic; see
    /// [`SweepOutcome::allocs`]).
    pub allocs: u64,
}

impl LedgerEntry {
    /// The row of one completed sweep. `events` is the total simulator
    /// event count across the sweep's runs (for events/sec).
    pub fn of<R>(name: &str, outcome: &SweepOutcome<R>, events: u64) -> Self {
        LedgerEntry {
            experiment: name.to_owned(),
            runs: outcome.results.len(),
            jobs: outcome.jobs,
            wall_ms: outcome.wall.as_secs_f64() * 1000.0,
            runs_wall_ms: outcome.total_run_wall().as_secs_f64() * 1000.0,
            events,
            allocs: outcome.allocs,
        }
    }

    /// Simulator events per wall-clock second (0.0 for an instant sweep).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events as f64 * 1000.0 / self.wall_ms
        } else {
            0.0
        }
    }

    /// Heap allocations per simulator event (0.0 for an event-free sweep).
    /// Exactly reproducible run to run, unlike any wall-clock metric.
    pub fn allocs_per_event(&self) -> f64 {
        if self.events > 0 {
            self.allocs as f64 / self.events as f64
        } else {
            0.0
        }
    }

    /// Achieved speedup: serial-equivalent cost over actual wall-clock.
    pub fn speedup(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.runs_wall_ms / self.wall_ms
        } else {
            1.0
        }
    }
}

/// The one-line timing summary `run_all --only` and `chaos` print to
/// stderr in place of a JSON ledger.
impl std::fmt::Display for LedgerEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[bench] {}: {} runs, {:.1} ms wall ({:.1} ms serial-equivalent, \
             {} jobs, {:.2}x, {:.0} events/s, {:.2} allocs/event)",
            self.experiment,
            self.runs,
            self.wall_ms,
            self.runs_wall_ms,
            self.jobs,
            self.speedup(),
            self.events_per_sec(),
            self.allocs_per_event(),
        )
    }
}

/// A ledger stamp: what `program args` prints, trimmed, or `"unknown"`
/// when that fails (outside a checkout, or with no `rustc` on the path).
fn stamp(program: &str, args: &str) -> String {
    std::process::Command::new(program)
        .args(args.split(' '))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Writes the wall-clock perf ledger as JSON. Schema (documented in
/// DESIGN.md §12):
///
/// ```json
/// {
///   "git_rev": "abc123def456",
///   "rustc": "rustc 1.80.0 (051478957 2024-07-21)",
///   "jobs": 4,
///   "total_wall_ms": 1234.5,
///   "total_runs_wall_ms": 4321.0,
///   "parallel_speedup": 3.50,
///   "experiments": [
///     { "experiment": "f1_latency_vs_n", "runs": 20, "jobs": 4,
///       "wall_ms": 100.0, "runs_wall_ms": 350.0, "speedup": 3.50,
///       "events": 123456, "events_per_sec": 1234560.0,
///       "allocs": 654321, "allocs_per_event": 5.30 }
///   ]
/// }
/// ```
pub fn write_wallclock_json(path: &Path, entries: &[LedgerEntry]) -> std::io::Result<()> {
    let total_wall: f64 = entries.iter().map(|e| e.wall_ms).sum();
    let total_runs_wall: f64 = entries.iter().map(|e| e.runs_wall_ms).sum();
    let jobs = entries.iter().map(|e| e.jobs).max().unwrap_or(1);
    let speedup = if total_wall > 0.0 {
        total_runs_wall / total_wall
    } else {
        1.0
    };
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let git_rev = stamp("git", "describe --always --dirty --abbrev=12 --exclude=*");
    let _ = writeln!(out, "  \"git_rev\": {},", quote(&git_rev));
    let _ = writeln!(out, "  \"rustc\": {},", quote(&stamp("rustc", "-V")));
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(out, "  \"total_wall_ms\": {total_wall:.3},");
    let _ = writeln!(out, "  \"total_runs_wall_ms\": {total_runs_wall:.3},");
    let _ = writeln!(out, "  \"parallel_speedup\": {speedup:.3},");
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"experiment\": {}, \"runs\": {}, \"jobs\": {}, \
             \"wall_ms\": {:.3}, \"runs_wall_ms\": {:.3}, \"speedup\": {:.3}, \
             \"events\": {}, \"events_per_sec\": {:.1}, \
             \"allocs\": {}, \"allocs_per_event\": {:.2} }}{}",
            quote(&e.experiment),
            e.runs,
            e.jobs,
            e.wall_ms,
            e.runs_wall_ms,
            e.speedup(),
            e.events,
            e.events_per_sec(),
            e.allocs,
            e.allocs_per_event(),
            comma,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_config_order() {
        let configs: Vec<usize> = (0..64).collect();
        for jobs in [1, 2, 4, 7] {
            let outcome = Sweep::with_jobs(jobs).run(configs.clone(), |&c| {
                // Make later indices finish earlier to shake out ordering.
                if c % 3 == 0 {
                    std::thread::yield_now();
                }
                c * 10
            });
            let expect: Vec<usize> = configs.iter().map(|c| c * 10).collect();
            assert_eq!(outcome.results, expect, "jobs={jobs}");
            assert_eq!(outcome.run_wall.len(), configs.len());
        }
    }

    #[test]
    fn jobs_clamp_to_config_count() {
        let outcome = Sweep::with_jobs(16).run(vec![1, 2], |&c| c);
        assert_eq!(outcome.jobs, 2);
        assert_eq!(outcome.results, vec![1, 2]);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let outcome = Sweep::with_jobs(4).run(Vec::<u32>::new(), |&c| c);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.total_run_wall(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "boom at 5")]
    fn worker_panics_propagate() {
        Sweep::with_jobs(3).run((0..8).collect::<Vec<u32>>(), |&c| {
            if c == 5 {
                panic!("boom at {c}");
            }
            c
        });
    }

    #[test]
    fn ledger_records_sweep_shape() {
        let outcome = Sweep::with_jobs(2).run(vec![1u64, 2, 3], |&c| c);
        let e = LedgerEntry::of("demo", &outcome, 300);
        assert_eq!(e.runs, 3);
        assert_eq!(e.jobs, 2);
        assert_eq!(e.events, 300);
        assert!(e.speedup() >= 0.0);
        assert!(e.to_string().starts_with("[bench] demo: 3 runs, "));
    }

    #[test]
    fn wallclock_json_is_wellformed() {
        let entries = vec![LedgerEntry {
            experiment: "demo \"quoted\"".into(),
            runs: 2,
            jobs: 1,
            wall_ms: 10.0,
            runs_wall_ms: 10.0,
            events: 42,
            allocs: 84,
        }];
        let path =
            std::env::temp_dir().join(format!("bcastdb-wallclock-{}.json", std::process::id()));
        write_wallclock_json(&path, &entries).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("\"experiments\": ["));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"parallel_speedup\": 1.000"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn jobs_env_parsing_rejects_what_it_cannot_honour() {
        assert!(parse_jobs(None).expect("default") >= 1);
        assert_eq!(parse_jobs(Some("4")), Ok(4));
        assert_eq!(parse_jobs(Some(" 2 ")), Ok(2));
        for bad in ["0", "zero", "", "-1", "1.5"] {
            let err = parse_jobs(Some(bad)).expect_err(bad);
            assert!(err.contains("BCASTDB_JOBS"), "{err}");
        }
    }
}
