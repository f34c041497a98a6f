//! **run_all — the one experiment driver** (`run_all --help` has the
//! flags).
//!
//! Without arguments it runs the whole experiment table
//! ([`bcastdb_bench::experiments::ALL`]) and regenerates `results/`,
//! `experiments_output.txt` and `BENCH_wallclock.json` in the current
//! directory, so run it from the repository root; with `--only` it runs the
//! named experiments and writes nothing unless asked to. Experiments run
//! one after another, each on a fresh thread, and each parallelises its own
//! sweeps across `BCASTDB_JOBS` workers; everything written is
//! byte-identical at any job count. Exit status: 0 on success, 1 when an
//! experiment fails, 2 on a usage error.

use bcastdb_bench::experiments::{Experiment, Options, Run, ALL};
use bcastdb_bench::harness::{flag_value, print_stdout, usage_error};
use bcastdb_bench::write_wallclock_json;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: run_all [--only NAME[,NAME...]] [--smoke] [--trace-out BASE] [--metrics-out BASE] [--timing]

  (no --only)         run every experiment; write results/ (or $BCASTDB_RESULTS_DIR),
                      experiments_output.txt and BENCH_wallclock.json in the current directory
  --only NAMES        run only these experiments (names or unique prefixes, comma-separated):
                      stdout only, CSVs if BCASTDB_RESULTS_DIR is set, timing lines on stderr
  --smoke             CI-sized a1_abcast_impl and f6_batching (same assertions); needs --only
  --trace-out BASE    every cluster streams its JSONL trace to BASE-<label>.jsonl, one file per
                      run, for bcast-trace; needs --only with a single experiment
  --metrics-out BASE  likewise, the 1 ms metrics sampler's JSONL for `bcast-trace export --metrics`
  --timing            per-run wall-clock lines on stderr

  a1_abcast_impl drives the broadcast engines on a bare simulation, without a cluster, so
  --trace-out and --metrics-out write nothing for it.

environment: BCASTDB_JOBS (sweep worker threads; default: all cores), BCASTDB_RESULTS_DIR
";

/// The experiments `--only` selected (`None`: the whole table) and the
/// options they run under.
fn parse(
    mut args: impl Iterator<Item = String>,
) -> Result<(Option<Vec<&'static Experiment>>, Options), String> {
    let mut opts = Options::from_env()?;
    let mut only = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--only" => {
                let names = flag_value(&mut args, "--only")?;
                let selected: Result<Vec<_>, _> =
                    names.split(',').map(Experiment::resolve).collect();
                only = Some(selected?);
            }
            "--smoke" => opts.smoke = true,
            "--trace-out" => opts.trace_out = Some(flag_value(&mut args, &flag)?.into()),
            "--metrics-out" => opts.metrics_out = Some(flag_value(&mut args, &flag)?.into()),
            "--timing" => opts.timing = true,
            "--help" | "-h" => {
                let names = Experiment::names();
                print_stdout("run_all", &format!("{USAGE}experiments: {names}\n"));
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    // The full suite regenerates the committed results, and trace files
    // are named by run label alone: neither mixes with these flags.
    let files = opts.trace_out.is_some() || opts.metrics_out.is_some();
    match &only {
        None if opts.smoke || files => {
            Err("--smoke, --trace-out and --metrics-out need --only".to_owned())
        }
        Some(selected) if files && selected.len() != 1 => {
            Err("--trace-out and --metrics-out need --only with a single experiment".to_owned())
        }
        _ => Ok((only, opts)),
    }
}

fn main() {
    let (only, mut opts) =
        parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error("run_all", &e));
    let full_suite = only.is_none();
    let selected = only.unwrap_or_else(|| ALL.iter().collect());
    if full_suite {
        let dir = opts.results_dir.get_or_insert(PathBuf::from("results"));
        eprintln!(
            "[run_all] {} experiments, {} sweep worker(s), results -> {}/",
            selected.len(),
            opts.jobs,
            dir.display()
        );
    }

    let mut transcript = String::new();
    let mut ledger = Vec::new();
    for exp in selected {
        eprintln!("[run_all] {}", exp.name);
        let run = Run::execute(exp.name, &opts, exp.run);
        run.deliver("run_all", exp.name);
        transcript.push_str(run.output());
        ledger.extend_from_slice(run.ledger());
    }
    if !full_suite {
        for entry in &ledger {
            eprintln!("{entry}");
        }
        return;
    }

    let written = std::fs::write("experiments_output.txt", &transcript)
        .and_then(|()| write_wallclock_json(Path::new("BENCH_wallclock.json"), &ledger));
    if let Err(e) = written {
        eprintln!("run_all: writing experiments_output.txt and BENCH_wallclock.json: {e}");
        std::process::exit(1);
    }
    let total_wall: f64 = ledger.iter().map(|e| e.wall_ms).sum();
    let total_serial: f64 = ledger.iter().map(|e| e.runs_wall_ms).sum();
    eprintln!(
        "[run_all] done: {} sweeps, {:.1}s wall ({:.1}s serial-equivalent, {:.2}x with {} \
         job(s)) — ledger in BENCH_wallclock.json, transcript in experiments_output.txt",
        ledger.len(),
        total_wall / 1000.0,
        total_serial / 1000.0,
        if total_wall > 0.0 {
            total_serial / total_wall
        } else {
            1.0
        },
        opts.jobs,
    );
}
