//! The experiment table and the context every experiment runs in.
//!
//! An experiment is a value — a name plus a `fn(&mut Run)` — and [`ALL`]
//! lists the thirteen of them in canonical EXPERIMENTS.md order. The
//! `run_all` driver runs the whole table (regenerating `results/`,
//! `experiments_output.txt` and `BENCH_wallclock.json`) or, with
//! `--only`, the entries named on the command line.
//!
//! [`Run`] owns what every experiment needs: the output buffer (tables and
//! free-form lines alike), the parallel [`Run::sweep`], the
//! [`Run::cluster`] hook that turns tracing and the `--trace-out` /
//! `--metrics-out` files on for every cluster, the one [`Run::validated`]
//! check, and the ledger rows its sweeps leave behind. Sweeps run on
//! `BCASTDB_JOBS` worker threads and assemble their rows in config order,
//! so everything an experiment writes is byte-identical at any job count.

mod a1_abcast_impl;
mod a2_conflict_policy;
mod a3_loss_tolerance;
pub mod chaos;
mod f1_latency_vs_n;
mod f2_throughput;
mod f3_aborts;
mod f4_implicit_ack;
mod f5_readonly;
mod f6_batching;
mod t1_messages;
mod t2_failures;
mod t3_latency_breakdown;

use crate::harness::print_stdout;
pub use crate::harness::Options;
use crate::{check_traced_run, trace_out_for, LedgerEntry, Sweep, Table, TRACE_CAPACITY};
use bcastdb_core::{Cluster, ClusterBuilder};
use bcastdb_workload::RunReport;
use std::fmt::Display;

/// One entry of the experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `--only` selects it by; also its table's and CSV's name.
    pub name: &'static str,
    /// The experiment itself.
    pub run: fn(&mut Run),
}

/// Every experiment, in the canonical EXPERIMENTS.md order. The chaos
/// campaign runs last: it is a robustness gate, not a paper table, and
/// appending it keeps the twelve experiments' slice of
/// `experiments_output.txt` stable.
pub const ALL: [Experiment; 13] = [
    Experiment::new("t1_messages", t1_messages::run),
    Experiment::new("t2_failures", t2_failures::run),
    Experiment::new("t3_latency_breakdown", t3_latency_breakdown::run),
    Experiment::new("f1_latency_vs_n", f1_latency_vs_n::run),
    Experiment::new("f2_throughput", f2_throughput::run),
    Experiment::new("f3_aborts", f3_aborts::run),
    Experiment::new("f4_implicit_ack", f4_implicit_ack::run),
    Experiment::new("f5_readonly", f5_readonly::run),
    Experiment::new("f6_batching", f6_batching::run),
    Experiment::new("a1_abcast_impl", a1_abcast_impl::run),
    Experiment::new("a2_conflict_policy", a2_conflict_policy::run),
    Experiment::new("a3_loss_tolerance", a3_loss_tolerance::run),
    Experiment::new("chaos", chaos::run),
];

impl Experiment {
    const fn new(name: &'static str, run: fn(&mut Run)) -> Self {
        Experiment { name, run }
    }

    /// The thirteen names, comma-separated, for usage messages.
    pub fn names() -> String {
        ALL.map(|e| e.name).join(", ")
    }

    /// The entry called `name`, or the only one `name` is a prefix of.
    ///
    /// # Errors
    /// No entry, or more than one, matches; the message lists all names.
    pub fn resolve(name: &str) -> Result<&'static Experiment, String> {
        if let Some(exact) = ALL.iter().find(|e| e.name == name) {
            return Ok(exact);
        }
        let mut matches = ALL.iter().filter(|e| e.name.starts_with(name));
        match (matches.next(), matches.next()) {
            (Some(only), None) => Ok(only),
            (first, _) => {
                let what = if first.is_some() {
                    "ambiguous"
                } else {
                    "unknown"
                };
                let names = Experiment::names();
                Err(format!("{what} experiment {name:?} (one of: {names})"))
            }
        }
    }
}

/// Every `(outer, inner)` pair, outer-major: the config order of a
/// two-parameter sweep.
fn cross<A: Copy, B: Copy>(outer: &[A], inner: &[B]) -> Vec<(A, B)> {
    outer
        .iter()
        .flat_map(|&a| inner.iter().map(move |&b| (a, b)))
        .collect()
}

/// The context one experiment runs in; see the [module docs](self).
#[derive(Debug, Default)]
pub struct Run {
    opts: Options,
    out: String,
    ledger: Vec<LedgerEntry>,
    failure: Option<String>,
}

impl Run {
    /// Runs `body` to completion on a fresh thread named `name`, so that
    /// thread-local caches (the workload's interned keys) start empty and a
    /// ledger row reads the same alone or in the full suite. A panic in
    /// `body` — a failed experiment assertion, already reported on stderr
    /// by the panic hook — becomes the run's [`Run::failure`], and the
    /// output produced up to it is kept.
    pub fn execute(name: &str, opts: &Options, body: impl FnOnce(&mut Run) + Send) -> Run {
        let mut run = Run {
            opts: opts.clone(),
            ..Run::default()
        };
        let panicked = std::thread::scope(|s| {
            std::thread::Builder::new()
                .name(name.to_owned())
                .spawn_scoped(s, || body(&mut run))
                .expect("spawn the experiment thread")
                .join()
                .is_err()
        });
        if panicked {
            run.fail("an assertion failed (message above)".to_owned());
        }
        run
    }

    /// Whether `--smoke` asked for the CI-sized variant.
    pub fn smoke(&self) -> bool {
        self.opts.smoke
    }

    /// Everything printed so far: what the driver sends to stdout and
    /// concatenates into `experiments_output.txt`.
    pub fn output(&self) -> &str {
        &self.out
    }

    /// One ledger row per completed sweep, in sweep order.
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }

    /// Why the run failed, if it did.
    pub fn failure(&self) -> Option<&str> {
        self.failure.as_deref()
    }

    /// What a tool does with a finished run: the output goes to stdout,
    /// and a failure is one `tool: name: why` line on stderr and exit 1.
    pub fn deliver(&self, tool: &str, name: &str) {
        print_stdout(tool, &self.out);
        if let Some(why) = &self.failure {
            eprintln!("{tool}: {name}: {why}");
            std::process::exit(1);
        }
    }

    /// Marks the run failed (the first reason wins) without unwinding, so
    /// the output explaining the failure still reaches the driver.
    pub fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }

    /// Appends one free-form line to the output.
    pub fn say(&mut self, line: &str) {
        self.out.push_str(line);
        self.out.push('\n');
    }

    /// Appends `table` to the output and, when a results directory is set,
    /// writes its CSV there. A CSV that cannot be written fails the run.
    pub fn emit(&mut self, table: &Table) {
        self.out.push_str(&table.render());
        if let Some(dir) = &self.opts.results_dir {
            match table.write_csv(dir) {
                Ok(path) => self.say(&format!("(written to {})", path.display())),
                Err(e) => self.fail(format!("writing CSV under {}: {e}", dir.display())),
            }
        }
    }

    /// Builds `builder`'s cluster the way every experiment runs one: traced
    /// ([`TRACE_CAPACITY`]), and with the `--trace-out` / `--metrics-out`
    /// files of this run derived from `label` ([`trace_out_for`]). `label`
    /// must be unique within the experiment and usable in a file name; it
    /// is rendered only when a file is asked for.
    pub fn cluster(&self, builder: ClusterBuilder, label: impl Display) -> Cluster {
        let mut builder = builder.trace(TRACE_CAPACITY);
        if let Some(base) = &self.opts.trace_out {
            builder = builder.trace_jsonl(trace_out_for(base, &label.to_string()));
        }
        if let Some(base) = &self.opts.metrics_out {
            builder = builder.metrics_jsonl(trace_out_for(base, &label.to_string()));
        }
        builder.build()
    }

    /// Ends a cluster's run: completes its trace and metrics files (no-ops
    /// without the flags) and returns the simulator events it processed,
    /// which every sweep reports to the ledger.
    ///
    /// # Panics
    /// Panics if a `--trace-out` / `--metrics-out` file cannot be written.
    pub fn finish(&self, mut cluster: Cluster) -> u64 {
        cluster
            .finish_trace_jsonl()
            .expect("complete the --trace-out file");
        cluster
            .finish_metrics_jsonl()
            .expect("write the --metrics-out file");
        cluster.events_processed()
    }

    /// The validation every workload-driven run passes before its row
    /// counts: the run quiesced, every submitted transaction terminated,
    /// the replicas converged, the execution is one-copy serializable, the
    /// trace invariants hold and the per-phase totals sum to the flat
    /// message counters ([`check_traced_run`]).
    ///
    /// # Panics
    /// Panics with `label` on the first violation.
    pub fn validated(report: &RunReport, cluster: &Cluster, label: &str) {
        assert!(report.quiesced, "{label}: did not quiesce");
        assert!(report.all_terminated(), "{label}: wedged transactions");
        assert!(report.converged, "{label}: replicas diverged");
        cluster
            .check_serializability()
            .unwrap_or_else(|v| panic!("{label}: not one-copy serializable: {v}"));
        check_traced_run(cluster, label);
    }

    /// Runs `per_run` over every config on the run's worker threads,
    /// records the sweep in the ledger under `name` (`events` extracts a
    /// result's simulator event count), and returns the results in config
    /// order. `per_run` sees this run read-only: [`Run::cluster`],
    /// [`Run::finish`] and [`Run::smoke`] are what it is for.
    pub fn measure<C, R, F>(
        &mut self,
        name: &str,
        configs: Vec<C>,
        per_run: F,
        events: fn(&R) -> u64,
    ) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(&Run, &C) -> R + Sync,
    {
        let outcome = {
            let run = &*self;
            Sweep::with_jobs(run.opts.jobs).run(configs, |c| per_run(run, c))
        };
        if self.opts.timing {
            for (i, d) in outcome.run_wall.iter().enumerate() {
                eprintln!(
                    "[sweep-timing] {name} run {i}: {:.3} ms",
                    d.as_secs_f64() * 1e3
                );
            }
        }
        let total = outcome.results.iter().map(events).sum();
        self.ledger.push(LedgerEntry::of(name, &outcome, total));
        outcome.results
    }

    /// The common shape of an experiment: [`Run::measure`] a sweep whose
    /// runs each return one table row and their event count, then emit the
    /// rows as the table `name` under `headers`.
    pub fn sweep<C, F>(
        &mut self,
        name: &str,
        headers: &[impl AsRef<str>],
        configs: Vec<C>,
        per_run: F,
    ) where
        C: Sync,
        F: Fn(&Run, &C) -> (Vec<String>, u64) + Sync,
    {
        let rows = self.measure(name, configs, per_run, |(_, events)| *events);
        let mut table = Table::new(name, headers);
        for (cells, _) in &rows {
            table.row_strings(cells);
        }
        self.emit(&table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_body_fails_the_run_and_keeps_its_output() {
        let run = Run::execute("doomed", &Options::default(), |run| {
            run.say("before");
            panic!("expected by this test");
        });
        assert_eq!(run.output(), "before\n");
        assert!(run.failure().is_some());
        let fine = Run::execute("fine", &Options::default(), |run| run.say("ok"));
        assert_eq!((fine.output(), fine.failure()), ("ok\n", None));
    }
}
