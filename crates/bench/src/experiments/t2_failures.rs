//! **T2 — Behaviour under site failure: the nemesis campaign.**
//!
//! The paper's fault-tolerance story: "as long as the view has majority
//! membership, the system remains operational." This experiment replays
//! the full deterministic nemesis matrix — five fault schedules
//! ([`NemesisScenario::ALL`]: a participant crash mid-2PC, an origin
//! crash, a partition + heal + rejoin, cascading view changes, and a
//! crash/recover/rejoin cycle) under each of the four protocols — and
//! reports per cell: commits, aborts, the mean vote-round latency of the
//! committed updates, and one-copy serializability among the survivors.
//!
//! Every run is validated by the trace invariant checker and explicit
//! survivor-termination sweeps inside [`run_nemesis`]; a violation panics
//! the experiment rather than producing a row.
//!
//! Two extra rows crash the **coordinator** instead, under the atomic
//! protocol with each coordinator-based backend (`crash_sequencer`,
//! `crash_ring_coord`): `crash_mid_2pc`'s schedule aimed at site 0, so the
//! sequencer (or the ring's coordinator) dies with submissions and
//! orderings in flight. The next coordinator's repair round must re-order
//! every survivor's commit request before anything new — no survivor may
//! be left undecided (`run_nemesis` panics if one is).
//!
//! With `--trace-out <base>` every run streams its full JSONL trace to
//! `<base>-<scenario>-<protocol>.jsonl` for `bcast-trace check`.

use super::Run;
use crate::nemesis::{run_nemesis, NemesisConfig, NemesisOutcome, NemesisScenario};
use crate::Table;
use bcastdb_core::{AbcastImpl, ProtocolKind};

pub(super) fn run(run: &mut Run) {
    let mut configs: Vec<NemesisConfig> = Vec::new();
    for scenario in NemesisScenario::ALL {
        for proto in ProtocolKind::ALL {
            configs.push(NemesisConfig::new(scenario, proto));
        }
    }
    // The coordinator-crash pair: one row per coordinator-based backend.
    for imp in [AbcastImpl::Sequencer, AbcastImpl::Ring] {
        let mut cfg =
            NemesisConfig::new(NemesisScenario::CrashCoordinator, ProtocolKind::AtomicBcast);
        cfg.abcast = Some(imp);
        configs.push(cfg);
    }

    let results = run.measure("t2_failures", configs, run_nemesis, |r| r.events);

    let mut table = Table::new("t2_failures", &NemesisOutcome::headers());
    for r in &results {
        assert!(
            r.survivors_serializable,
            "{}/{}: survivors are not one-copy serializable",
            r.scenario.name(),
            r.protocol.name()
        );
        table.row_strings(&r.cells());
    }
    run.emit(&table);
}
