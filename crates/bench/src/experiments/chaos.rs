//! **chaos — randomized packet-fault campaign with automatic shrinking.**
//!
//! VOPR-style robustness testing: generate hundreds of random fault
//! plans (duplication, reordering, burst loss / gray links, delay
//! spikes, probabilistic drops — see [`crate::faultplan`]) and
//! replay each against every protocol configuration of the chaos matrix
//! ([`ChaosCell::ALL`]: the four paper protocols plus the ring
//! atomic-broadcast backend). Every run drives a seeded Zipf workload
//! and is validated four ways:
//!
//! 1. the streaming trace invariant checker (delivery, exactly-once
//!    termination, total order);
//! 2. a `has_undecided` sweep at the deadline (liveness under faults);
//! 3. replica convergence (all stores byte-identical);
//! 4. one-copy serializability across all sites.
//!
//! A run is fully determined by `(seed, cell)`; on a violation the
//! failing plan is **shrunk** — clauses bisected away, then windows
//! halved, re-running the cell each time — and a one-line repro is
//! printed:
//!
//! ```text
//! cargo run --release --bin chaos -- --seed 17 --replay 'causal|drop(0.25)@1>2@0..600000'
//! ```
//!
//! The table's `chaos` entry is the default campaign (25 seeds from 1); the
//! `chaos` binary adds `--seeds` / `--seed` / `--artifacts` and `--replay`.

use super::Run;
use crate::faultplan::{gen_plan, parse_plan, plan_to_string, shrink_plan, ChaosCell};
use crate::Table;
use bcastdb_core::Cluster;
use bcastdb_sim::{DetRng, FaultPlan, SimDuration, SimTime, SiteId};
use std::path::Path;

/// Sites per chaos cluster.
const SITES: usize = 4;
/// Load window: submissions stop here, and generated fault windows all
/// start inside it.
const HORIZON: SimDuration = SimDuration::from_millis(600);
/// Hard deadline: every transaction must be decided by now — generated
/// faults are all over by ~1.5x [`HORIZON`], leaving recovery time.
const DEADLINE: SimTime = SimTime::from_micros(3_000_000);
/// Cap on shrinking re-runs per failing plan.
const SHRINK_BUDGET: usize = 64;

/// What one `(seed, cell)` run produced.
struct CellRun {
    violations: Vec<String>,
    commits: u64,
    aborts: u64,
    duplicated: u64,
    reordered: u64,
    burst_dropped: u64,
    loss_dropped: u64,
    events: u64,
}

/// Replays `plan` against `cell` with the cluster seeded from `seed`,
/// and validates the execution. Never panics on a violation — the
/// shrinker needs to re-run failing plans.
fn run_cell(run: &Run, cell: ChaosCell, seed: u64, plan: &FaultPlan) -> CellRun {
    let mut builder = Cluster::builder()
        .sites(SITES)
        .protocol(cell.protocol())
        .seed(seed)
        .fault_plan(plan.clone());
    if cell.relay() {
        builder = builder.relay(true).retransmit_backoff(true);
    }
    if let Some(imp) = cell.abcast() {
        builder = builder.abcast(imp);
    }
    let mut cluster = run.cluster(builder, format_args!("{cell}-{seed}"));

    let wl = crate::nemesis::workload();
    let zipf = wl.sampler();
    let mut rng = DetRng::new(seed ^ 0x9e3779b9).fork(cell as u64);
    // One update transaction per site every 15 ms across the load
    // window, each site on its own forked stream.
    for site in 0..SITES {
        let mut site_rng = rng.fork(site as u64);
        let mut at = SimTime::from_micros(1_000);
        while at.as_micros() < HORIZON.as_micros() {
            cluster.submit_at(at, SiteId(site), wl.gen_txn(&zipf, &mut site_rng));
            at += SimDuration::from_millis(15);
        }
    }
    cluster.run_until(DEADLINE);

    let mut violations = Vec::new();
    if let Err(v) = cluster.check_trace_invariants() {
        violations.push(format!("trace invariant: {v}"));
    }
    for site in 0..SITES {
        if cluster.replica(SiteId(site)).state().has_undecided() {
            violations.push(format!("site {site} still undecided at {DEADLINE}"));
        }
    }
    if !cluster.replicas_converged() {
        violations.push("replicas diverged".to_string());
    }
    let all: Vec<SiteId> = (0..SITES).map(SiteId).collect();
    if let Err(v) = cluster.check_serializability_among(&all) {
        violations.push(format!("not one-copy serializable: {v:?}"));
    }

    let metrics = cluster.metrics();
    let net = cluster.network();
    CellRun {
        violations,
        commits: metrics.commits(),
        aborts: metrics.aborts(),
        duplicated: net.messages_duplicated(),
        reordered: net.messages_reordered(),
        burst_dropped: net.drop_breakdown().burst,
        loss_dropped: net.drop_breakdown().loss,
        events: run.finish(cluster),
    }
}

/// One campaign row: the run plus, on failure, the shrunk plan.
struct Outcome {
    cell: ChaosCell,
    seed: u64,
    plan: FaultPlan,
    run: CellRun,
    shrunk: Option<(FaultPlan, usize)>,
}

fn run_campaign_cell(run: &Run, cell: ChaosCell, seed: u64) -> Outcome {
    let plan = gen_plan(seed, cell, SITES, HORIZON);
    let first = run_cell(run, cell, seed, &plan);
    let shrunk = (!first.violations.is_empty()).then(|| {
        // Candidates run untraced: the `--trace-out` file of this cell is
        // the failing run's, not the last candidate's.
        let quiet = Run::default();
        shrink_plan(&plan, SHRINK_BUDGET, |cand| {
            !run_cell(&quiet, cell, seed, cand).violations.is_empty()
        })
    });
    Outcome {
        cell,
        seed,
        plan,
        run: first,
        shrunk,
    }
}

/// `chaos --replay 'CELL|PLAN'`: one run of the given plan against CELL,
/// with the cluster seeded from `seed`. A violation fails `run`.
///
/// # Errors
/// `arg` does not name a cell and a parsable plan (a usage error).
pub fn replay(run: &mut Run, seed: u64, arg: &str) -> Result<(), String> {
    let (cell_s, plan_s) = arg
        .split_once('|')
        .ok_or_else(|| format!("--replay wants 'CELL|PLAN', got {arg:?}"))?;
    let cell = ChaosCell::parse(cell_s).ok_or_else(|| {
        format!("unknown cell {cell_s:?} (one of: p2p, reliable, causal, atomic-seq, atomic-ring)")
    })?;
    let plan = parse_plan(plan_s)?;
    run.say(&format!(
        "replay: cell={cell} seed={seed} plan={}",
        plan_to_string(&plan)
    ));
    let cell_run = run_cell(run, cell, seed, &plan);
    run.say(&format!(
        "commits={} aborts={} dup={} reordered={} burst_dropped={} loss_dropped={}",
        cell_run.commits,
        cell_run.aborts,
        cell_run.duplicated,
        cell_run.reordered,
        cell_run.burst_dropped,
        cell_run.loss_dropped
    ));
    if cell_run.violations.is_empty() {
        run.say("ok: all invariants hold");
    } else {
        for v in &cell_run.violations {
            run.say(&format!("VIOLATION: {v}"));
        }
        run.fail(format!("{} violations", cell_run.violations.len()));
    }
    Ok(())
}

/// The table entry: the default campaign, 25 seeds from 1.
pub(super) fn run(run: &mut Run) {
    campaign(run, 1, 25, None);
}

/// The campaign over seeds `base..base + seeds` × all cells. Every shrunk
/// failing plan is printed with its repro line and, with `artifacts`, also
/// written to `<artifacts>/<cell>-<seed>.plan` (CI uploads these); any
/// violation fails `run`.
pub fn campaign(run: &mut Run, base: u64, seeds: u64, artifacts: Option<&Path>) {
    let configs: Vec<(u64, ChaosCell)> = (base..base + seeds)
        .flat_map(|seed| ChaosCell::ALL.into_iter().map(move |cell| (seed, cell)))
        .collect();
    let per_run = |run: &Run, &(seed, cell): &(u64, ChaosCell)| run_campaign_cell(run, cell, seed);
    let results = run.measure("chaos", configs, per_run, |o| o.run.events);

    // Per-cell aggregate rows, in campaign order.
    let mut table = Table::new(
        "chaos",
        &[
            "cell",
            "seeds",
            "clauses",
            "commits",
            "aborts",
            "dup",
            "reordered",
            "burst_dropped",
            "loss_dropped",
            "violations",
        ],
    );
    let mut failures: Vec<&Outcome> = Vec::new();
    for cell in ChaosCell::ALL {
        let mut agg = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for o in results.iter().filter(|o| o.cell == cell) {
            agg.0 += o.plan.clauses.len() as u64;
            agg.1 += o.run.commits;
            agg.2 += o.run.aborts;
            agg.3 += o.run.duplicated;
            agg.4 += o.run.reordered;
            agg.5 += o.run.burst_dropped;
            agg.6 += o.run.loss_dropped;
            agg.7 += o.run.violations.len() as u64;
            if !o.run.violations.is_empty() {
                failures.push(o);
            }
        }
        table.row_strings(&[
            cell.name().to_string(),
            seeds.to_string(),
            agg.0.to_string(),
            agg.1.to_string(),
            agg.2.to_string(),
            agg.3.to_string(),
            agg.4.to_string(),
            agg.5.to_string(),
            agg.6.to_string(),
            agg.7.to_string(),
        ]);
    }
    run.emit(&table);

    for o in &failures {
        let (shrunk, shrink_runs) = o.shrunk.as_ref().expect("failures carry a shrunk plan");
        let text = plan_to_string(shrunk);
        run.say(&format!(
            "\nVIOLATION cell={} seed={} (plan of {} clauses shrunk to {} in {} re-runs)",
            o.cell,
            o.seed,
            o.plan.clauses.len(),
            shrunk.clauses.len(),
            shrink_runs
        ));
        for v in &o.run.violations {
            run.say(&format!("  - {v}"));
        }
        run.say(&format!(
            "  repro: cargo run --release --bin chaos -- --seed {} --replay '{}|{text}'",
            o.seed, o.cell
        ));
        if let Some(dir) = artifacts {
            let path = dir.join(format!("{}-{}.plan", o.cell, o.seed));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, format!("{}|{text}\n", o.cell)));
            if let Err(e) = written {
                eprintln!("chaos: writing {}: {e}", path.display());
            }
        }
    }
    run.say(&format!(
        "\nchaos: {} runs ({} seeds x {} cells), {} violations",
        results.len(),
        seeds,
        ChaosCell::ALL.len(),
        failures.len()
    ));
    if !failures.is_empty() {
        run.fail(format!("{} violations", failures.len()));
    }
}
