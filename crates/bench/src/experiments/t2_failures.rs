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
//! Two extra rows rerun `crash_mid_2pc` under the reliable and causal
//! protocols with **speculative fast commit** enabled: transactions
//! orphaned by the crash are decided from the surviving quorum's votes at
//! the speculative suspicion threshold instead of waiting out the view
//! change, and the vote-round column shrinks accordingly (asserted, not
//! just reported).
//!
//! Two more rows crash the **coordinator** instead, under the atomic
//! protocol with each coordinator-based backend (`crash_sequencer`,
//! `crash_ring_coord`): `crash_mid_2pc`'s schedule aimed at site 0, so the
//! sequencer (or the ring's coordinator) dies with submissions and
//! orderings in flight. The next coordinator's repair round must re-order
//! every survivor's commit request before anything new — no survivor may
//! be left undecided (`run_nemesis` panics if one is).
//!
//! With `--trace-out <base>` every run streams its full JSONL trace to
//! `<base>-<scenario>-<protocol>[-fast].jsonl` for `bcast-trace check`.

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
    // The speculative fast-commit comparison pair: same crash schedule,
    // fast path on (only meaningful for the two vote/ack-quorum
    // protocols).
    for proto in [ProtocolKind::ReliableBcast, ProtocolKind::CausalBcast] {
        let mut cfg = NemesisConfig::new(NemesisScenario::CrashMidTwoPhase, proto);
        cfg.fast_commit = true;
        configs.push(cfg);
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

    // The speculation must have engaged and must have shortened the
    // orphaned transactions' decision wait, run for run.
    let find = |proto: ProtocolKind, fast: bool| -> &NemesisOutcome {
        results
            .iter()
            .find(|r| {
                r.scenario == NemesisScenario::CrashMidTwoPhase
                    && r.protocol == proto
                    && r.fast_commit == fast
            })
            .expect("matrix row")
    };
    run.say("");
    for proto in [ProtocolKind::ReliableBcast, ProtocolKind::CausalBcast] {
        let base = find(proto, false);
        let fast = find(proto, true);
        assert!(fast.fast_commits > 0, "{proto}: fast path never engaged");
        assert!(
            fast.vote_round_ms < base.vote_round_ms,
            "{proto}: fast commit did not shorten the vote round"
        );
        assert_eq!(
            base.commits, fast.commits,
            "{proto}: speculation changed outcomes"
        );
        run.say(&format!(
            "fast commit under {proto}: vote round {:.2} ms -> {:.2} ms \
             ({} speculative decisions, same {} commits)",
            base.vote_round_ms, fast.vote_round_ms, fast.fast_commits, fast.commits
        ));
    }
}
