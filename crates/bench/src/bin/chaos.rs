//! **chaos — the randomized packet-fault campaign as a tool.**
//!
//! The campaign itself is [`bcastdb_bench::experiments::chaos`], the
//! thirteenth entry of the experiment table (`run_all --only chaos` runs its
//! default size). This binary sizes it and replays single runs:
//!
//! ```text
//! chaos [--seeds N] [--seed BASE] [--artifacts DIR]
//!                              campaign over seeds BASE..BASE+N (defaults 1, 25)
//!                              x all cells; with --artifacts every shrunk
//!                              failing plan is also written to
//!                              DIR/<cell>-<seed>.plan (CI uploads these)
//! chaos [--seed S] --replay 'CELL|PLAN'
//!                              one run: the given plan against CELL, with
//!                              the cluster seeded from S (default 1)
//! ```
//!
//! Runs execute on `BCASTDB_JOBS` workers; rows are assembled in config
//! order, so stdout is byte-identical at any job count. Exit status: 0 when
//! every invariant held, 1 on a violation, 2 on a usage error.

use bcastdb_bench::experiments::{chaos, Options, Run};
use bcastdb_bench::harness::{flag_value, usage_error};
use std::path::PathBuf;

/// What the command line asks for.
struct Cli {
    seeds: u64,
    base: u64,
    artifacts: Option<PathBuf>,
    replay: Option<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Cli, Options), String> {
    let number = |value: String, flag: &str| {
        value
            .parse::<u64>()
            .map_err(|_| format!("{flag} wants a number, got {value:?}"))
    };
    let mut cli = Cli {
        seeds: 25,
        base: 1,
        artifacts: None,
        replay: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || flag_value(&mut args, &flag);
        match flag.as_str() {
            "--seeds" => cli.seeds = number(value()?, &flag)?,
            "--seed" => cli.base = number(value()?, &flag)?,
            "--artifacts" => cli.artifacts = Some(value()?.into()),
            "--replay" => cli.replay = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((cli, Options::from_env()?))
}

fn main() {
    let (cli, opts) = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error("chaos", &e));
    let mut replayed = Ok(());
    let run = Run::execute("chaos", &opts, |run| match &cli.replay {
        Some(arg) => replayed = chaos::replay(run, cli.base, arg),
        None => chaos::campaign(run, cli.base, cli.seeds, cli.artifacts.as_deref()),
    });
    replayed.unwrap_or_else(|e| usage_error("chaos", &e));
    for entry in run.ledger() {
        eprintln!("{entry}");
    }
    run.deliver(
        "chaos",
        if cli.replay.is_some() {
            "replay"
        } else {
            "campaign"
        },
    );
}
