//! Canonical whole-simulator scenarios, shared by the criterion
//! `whole_sim` benchmark group and the `profile_loop` profiling driver.
//!
//! The crash scenario here is the `t2_failures` experiment's crash run
//! minus tracing and table output: submit a Zipf workload on five sites,
//! crash one mid-run, drive the view change, and load the survivors. It
//! is the repository's headline "events per second" workload — a full
//! protocol stack over the simulator, not a micro-loop — and it is
//! deterministic: the same protocol always processes exactly the same
//! number of events, which the callers assert.

use bcastdb_core::{Cluster, ProtocolKind};
use bcastdb_sim::{DetRng, SimDuration, SimTime, SiteId};

/// Sites in the crash scenario.
pub const CRASH_SCENARIO_SITES: usize = 5;

const CRASH_AT_US: u64 = 200_000;

/// Runs the t2-style crash scenario under `proto` (untraced) and returns
/// the number of simulator events processed.
///
/// The count is deterministic per protocol; it changes only when the
/// protocol's message flow itself changes.
pub fn crash_scenario(proto: ProtocolKind) -> u64 {
    const N: usize = CRASH_SCENARIO_SITES;
    let mut cluster = Cluster::builder()
        .sites(N)
        .protocol(proto)
        .seed(37)
        .membership(true)
        .suspect_after(SimDuration::from_millis(60))
        .build();
    let cfg = crate::nemesis::workload();
    let zipf = cfg.sampler();
    let mut rng = DetRng::new(370);
    for site in 0..N {
        let mut at = SimTime::from_micros(1_000);
        let mut site_rng = rng.fork(site as u64);
        for _ in 0..10 {
            at += SimDuration::from_millis(15);
            cluster.submit_at(at, SiteId(site), cfg.gen_txn(&zipf, &mut site_rng));
        }
    }
    cluster.run_until(SimTime::from_micros(CRASH_AT_US));
    cluster.crash(SiteId(N - 1));
    let mut view_change_done = SimTime::from_micros(CRASH_AT_US);
    loop {
        view_change_done += SimDuration::from_millis(5);
        cluster.run_until(view_change_done);
        let all_evicted = (0..N - 1).all(|s| {
            !cluster
                .replica(SiteId(s))
                .view_members()
                .contains(&SiteId(N - 1))
        });
        if all_evicted {
            break;
        }
        assert!(
            view_change_done < SimTime::from_micros(CRASH_AT_US + 2_000_000),
            "{proto}: view change never completed"
        );
    }
    for site in 0..N - 1 {
        let mut at = view_change_done + SimDuration::from_millis(5);
        let mut site_rng = rng.fork(100 + site as u64);
        for _ in 0..10 {
            at += SimDuration::from_millis(15);
            cluster.submit_at(at, SiteId(site), cfg.gen_txn(&zipf, &mut site_rng));
        }
    }
    cluster.run_until(view_change_done + SimDuration::from_secs(2));
    cluster.events_processed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_scenario_event_counts_are_stable() {
        // The whole-sim benchmark and the profiling driver report
        // events/sec against these counts; a protocol change that moves
        // them should move this test deliberately.
        assert_eq!(crash_scenario(ProtocolKind::ReliableBcast), 10129);
        assert_eq!(crash_scenario(ProtocolKind::CausalBcast), 9149);
        // Three more than before the sequencer ran a repair round: the
        // survivors' reports to the sequencer at the view change.
        assert_eq!(crash_scenario(ProtocolKind::AtomicBcast), 8726);
    }
}
