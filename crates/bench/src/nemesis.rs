//! Deterministic nemesis campaign: composable fault schedules replayed
//! across every protocol.
//!
//! A *nemesis* (the term is Jepsen's) is a fault injector that runs
//! against a live workload. Ours is fully deterministic: every scenario
//! is a fixed schedule of crashes, partitions, heals, and recoveries on
//! the virtual clock, driving a seeded Zipf workload — so a scenario ×
//! protocol cell always produces the same commits, the same aborts, and
//! the same trace, on any machine and at any `BCASTDB_JOBS` worker count.
//!
//! Five scenarios ([`NemesisScenario::ALL`]):
//!
//! | scenario | schedule |
//! |---|---|
//! | `crash_mid_2pc` | a participant dies between commit-request dissemination and its vote |
//! | `crash_origin` | the commit-request *origin* dies with its transactions in flight |
//! | `partition_heal` | a 3/2 split; both detectors fire on their own clocks; heal + state-transfer rejoin |
//! | `cascading_views` | two crashes inside one suspicion window — view changes pile up |
//! | `crash_recover_rejoin` | crash → majority keeps going → log/state catch-up → readmission |
//!
//! A sixth schedule, `crash_coordinator` ([`NemesisScenario::CrashCoordinator`]),
//! is `crash_mid_2pc` aimed at site 0 — the view coordinator, and so the
//! atomic broadcast's sequencer or ring coordinator. `t2_failures` runs it
//! under the atomic protocol once per backend, as the rows
//! `crash_sequencer` and `crash_ring_coord`.
//!
//! Every run is validated three ways before its row is reported: the
//! streaming trace invariant checker (delivery, termination, total order;
//! partitions use the pending-tolerant variant because a cut drops
//! messages without the Crash event that relaxes termination), explicit
//! `has_undecided` sweeps on the survivors, and one-copy
//! serializability among the survivors via
//! [`bcastdb_core::Cluster::check_serializability_among`].
//!
//! The campaign doubles as the harness for the **speculative fast
//! commit** measurement: rerunning `crash_mid_2pc` with
//! [`NemesisConfig::fast_commit`] on shows the vote round of the latency
//! decomposition shrink — suspected sites are excluded from the
//! vote/ack quorum at the *speculative* suspicion threshold (half the
//! eviction timeout) instead of at view installation, cutting the
//! orphaned transactions' decision wait roughly in half.

use crate::experiments::Run;
use crate::{check_traced_run, check_traced_run_allowing_pending};
use bcastdb_core::{AbcastImpl, Cluster, ProtocolKind};
use bcastdb_sim::telemetry::{summarize, Segment};
use bcastdb_sim::{DetRng, SimDuration, SimTime, SiteId};
use bcastdb_workload::{WorkloadConfig, Zipf};

/// Sites in every nemesis cluster (crashing up to two keeps a majority).
pub const NEMESIS_SITES: usize = 5;

const N: usize = NEMESIS_SITES;
const SUSPECT_AFTER: SimDuration = SimDuration::from_millis(60);

/// One fault schedule of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NemesisScenario {
    /// Crash a 2PC participant after commit requests disseminate but
    /// before its votes land: the survivors must resolve the orphaned
    /// vote rounds (view change, or fast commit under suspicion).
    CrashMidTwoPhase,
    /// Crash the commit-request origin itself: nobody is left to drive
    /// its transactions, so the survivors must terminate them on their
    /// own (votes, implicit acks, the total order, or the engine's
    /// departed-origin sweep, depending on the protocol).
    CrashOrigin,
    /// Partition 3/2, let both sides' failure detectors fire on their own
    /// timelines (asymmetric: the majority reconfigures and keeps
    /// committing, the minority blocks), then heal and rejoin the
    /// minority by state transfer.
    PartitionHeal,
    /// Two crashes inside one suspicion window: the second site dies
    /// while the first view change is still being agreed on.
    CascadingViews,
    /// Crash, let the majority commit without the site, then catch it up
    /// from a donor's log/state and let membership re-admit it.
    CrashRecoverRejoin,
    /// `CrashMidTwoPhase` aimed at site 0, the view coordinator: under the
    /// atomic protocol the sequencer (or the ring's coordinator) dies with
    /// submissions and orderings in flight, and the next view's
    /// coordinator must run the repair round before it orders anything.
    CrashCoordinator,
}

impl NemesisScenario {
    /// Every scenario, in campaign order.
    pub const ALL: [NemesisScenario; 5] = [
        NemesisScenario::CrashMidTwoPhase,
        NemesisScenario::CrashOrigin,
        NemesisScenario::PartitionHeal,
        NemesisScenario::CascadingViews,
        NemesisScenario::CrashRecoverRejoin,
    ];

    /// Short stable name used in tables and trace-file labels.
    pub fn name(self) -> &'static str {
        match self {
            NemesisScenario::CrashMidTwoPhase => "crash_mid_2pc",
            NemesisScenario::CrashOrigin => "crash_origin",
            NemesisScenario::PartitionHeal => "partition_heal",
            NemesisScenario::CascadingViews => "cascading_views",
            NemesisScenario::CrashRecoverRejoin => "crash_recover_rejoin",
            NemesisScenario::CrashCoordinator => "crash_coordinator",
        }
    }

    fn seed(self) -> u64 {
        match self {
            NemesisScenario::CrashMidTwoPhase => 61,
            NemesisScenario::CrashOrigin => 63,
            NemesisScenario::PartitionHeal => 65,
            NemesisScenario::CascadingViews => 67,
            NemesisScenario::CrashRecoverRejoin => 69,
            NemesisScenario::CrashCoordinator => 71,
        }
    }
}

impl std::fmt::Display for NemesisScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One cell of the campaign matrix.
#[derive(Debug, Clone)]
pub struct NemesisConfig {
    /// The fault schedule to replay.
    pub scenario: NemesisScenario,
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// Speculative fast commit under suspicion (reliable/causal only —
    /// p2p has no broadcast vote round and atomic has no acks to wait
    /// for, so the knob is inert there).
    pub fast_commit: bool,
    /// Atomic-broadcast backend override (only meaningful with
    /// [`ProtocolKind::AtomicBcast`]). `None` keeps the cluster's
    /// size-based default, which at [`NEMESIS_SITES`] is the sequencer —
    /// so the `t2_failures` campaign output is unchanged.
    pub abcast: Option<AbcastImpl>,
}

impl NemesisConfig {
    /// A cell with fast commit off and the default abcast backend.
    pub fn new(scenario: NemesisScenario, protocol: ProtocolKind) -> Self {
        NemesisConfig {
            scenario,
            protocol,
            fast_commit: false,
            abcast: None,
        }
    }
}

/// The validated result of one nemesis run.
#[derive(Debug, Clone)]
pub struct NemesisOutcome {
    /// The scenario that ran.
    pub scenario: NemesisScenario,
    /// The protocol it ran under.
    pub protocol: ProtocolKind,
    /// Whether speculative fast commit was enabled.
    pub fast_commit: bool,
    /// The atomic-broadcast backend override it ran with, if any.
    pub abcast: Option<AbcastImpl>,
    /// Committed transactions (cluster-wide, origin-counted).
    pub commits: u64,
    /// Aborted transactions.
    pub aborts: u64,
    /// Transactions decided through the speculative fast path, summed
    /// over all sites (0 unless `fast_commit` and a crash was suspected).
    pub fast_commits: u64,
    /// Mean of the vote round of the committed-update latency
    /// decomposition, milliseconds: the `votes` segment (commit request
    /// out → last vote heard) plus the `decide` segment (last vote →
    /// decision). A transaction orphaned by a crash parks in the latter —
    /// waiting on a vote that will never come — until the view change or
    /// a speculative fast commit resolves it, so this is the number fast
    /// commit shortens.
    pub vote_round_ms: f64,
    /// The sites that never crashed and were never cut off.
    pub survivors: Vec<SiteId>,
    /// One-copy serializability among the survivors.
    pub survivors_serializable: bool,
    /// Simulator events processed (deterministic per cell).
    pub events: u64,
}

impl NemesisOutcome {
    /// The table cells of this outcome, in the column order of the
    /// `t2_failures` table.
    pub fn cells(&self) -> Vec<String> {
        vec![
            row_name(self.scenario, self.abcast).to_string(),
            self.protocol.name().to_string(),
            if self.fast_commit { "on" } else { "off" }.to_string(),
            self.commits.to_string(),
            self.aborts.to_string(),
            self.fast_commits.to_string(),
            format!("{:.2}", self.vote_round_ms),
            self.survivors_serializable.to_string(),
        ]
    }

    /// The table headers matching [`NemesisOutcome::cells`].
    pub fn headers() -> [&'static str; 8] {
        [
            "scenario",
            "protocol",
            "fast_commit",
            "commits",
            "aborts",
            "fast_commits",
            "vote_round_ms",
            "survivors_serializable",
        ]
    }
}

/// Runs one campaign cell: builds the cluster (through [`Run::cluster`],
/// labelled `<scenario>-<protocol>[-fast]`), replays the scenario's fault
/// schedule against a seeded workload, and validates the execution (trace
/// invariants, survivor termination, 1SR among survivors) before
/// returning the outcome row.
///
/// # Panics
/// Panics on any invariant violation — the campaign treats a bad run as
/// a bug, not a data point.
pub fn run_nemesis(run: &Run, cfg: &NemesisConfig) -> NemesisOutcome {
    let label = format!(
        "{}-{}{}",
        row_name(cfg.scenario, cfg.abcast),
        cfg.protocol.name(),
        if cfg.fast_commit { "-fast" } else { "" }
    );
    let mut builder = Cluster::builder()
        .sites(N)
        .protocol(cfg.protocol)
        .seed(cfg.scenario.seed())
        .membership(true)
        .suspect_after(SUSPECT_AFTER)
        .fast_commit(cfg.fast_commit);
    if let Some(imp) = cfg.abcast {
        builder = builder.abcast(imp);
    }
    let mut cluster = run.cluster(builder, &label);
    let wl = workload();
    let zipf = wl.sampler();
    let mut rng = DetRng::new(cfg.scenario.seed() * 10);
    let ctx = Ctx {
        cluster: &mut cluster,
        wl: &wl,
        zipf: &zipf,
        rng: &mut rng,
        label: &label,
    };
    let (survivors, allow_pending) = match cfg.scenario {
        NemesisScenario::CrashMidTwoPhase => crash_mid_two_phase(ctx, N - 1),
        NemesisScenario::CrashOrigin => crash_origin(ctx),
        NemesisScenario::PartitionHeal => partition_heal(ctx),
        NemesisScenario::CascadingViews => cascading_views(ctx),
        NemesisScenario::CrashRecoverRejoin => crash_recover_rejoin(ctx),
        NemesisScenario::CrashCoordinator => crash_mid_two_phase(ctx, 0),
    };

    if allow_pending {
        check_traced_run_allowing_pending(&cluster, &label);
    } else {
        check_traced_run(&cluster, &label);
    }
    let survivors_serializable = cluster.check_serializability_among(&survivors).is_ok();
    let metrics = cluster.metrics();
    let summary = summarize(cluster.txn_spans().values());
    NemesisOutcome {
        scenario: cfg.scenario,
        protocol: cfg.protocol,
        fast_commit: cfg.fast_commit,
        abcast: cfg.abcast,
        commits: metrics.commits(),
        aborts: metrics.aborts(),
        fast_commits: metrics.counters.get("fast_commits"),
        vote_round_ms: summary.segment(Segment::Votes).mean().as_millis_f64()
            + summary.segment(Segment::Decide).mean().as_millis_f64(),
        survivors,
        survivors_serializable,
        events: run.finish(cluster),
    }
}

/// A row's scenario cell: the coordinator-crash rows say whose coordinator
/// they crash.
fn row_name(scenario: NemesisScenario, abcast: Option<AbcastImpl>) -> &'static str {
    match (scenario, abcast) {
        (NemesisScenario::CrashCoordinator, Some(AbcastImpl::Ring)) => "crash_ring_coord",
        (NemesisScenario::CrashCoordinator, _) => "crash_sequencer",
        (scenario, _) => scenario.name(),
    }
}

/// The update mix every fault campaign loads its clusters with (nemesis,
/// chaos, and the whole-sim crash scenario): 300 keys at moderate skew,
/// one read and two writes per transaction.
pub(crate) fn workload() -> WorkloadConfig {
    WorkloadConfig {
        n_keys: 300,
        theta: 0.5,
        reads_per_txn: 1,
        writes_per_txn: 2,
        ..WorkloadConfig::default()
    }
}

/// The per-scenario schedule context: the cluster under test plus the
/// seeded workload generator.
struct Ctx<'a> {
    cluster: &'a mut Cluster,
    wl: &'a WorkloadConfig,
    zipf: &'a Zipf,
    rng: &'a mut DetRng,
    label: &'a str,
}

impl Ctx<'_> {
    /// Submits `count` update transactions at each of `sites`, one every
    /// 15 ms starting just after `from`, each site on its own forked rng
    /// stream (so schedules stay independent of site iteration order).
    fn load(&mut self, sites: std::ops::Range<usize>, stream: u64, from: SimTime, count: usize) {
        for site in sites {
            let mut at = from;
            let mut site_rng = self.rng.fork(stream + site as u64);
            for _ in 0..count {
                at += SimDuration::from_millis(15);
                self.cluster
                    .submit_at(at, SiteId(site), self.wl.gen_txn(self.zipf, &mut site_rng));
            }
        }
    }

    /// One transaction per site of `sites` in a tight burst at `from`
    /// (50 µs apart) — traffic meant to be in flight when the fault hits.
    fn burst(&mut self, sites: std::ops::Range<usize>, stream: u64, from: SimTime) {
        for site in sites {
            let mut site_rng = self.rng.fork(stream + site as u64);
            let at = from + SimDuration::from_micros(50 * site as u64);
            self.cluster
                .submit_at(at, SiteId(site), self.wl.gen_txn(self.zipf, &mut site_rng));
        }
    }

    /// Steps the simulation in 5 ms increments until every site in
    /// `waiters` has a view containing none of `gone`, and returns that
    /// instant. Panics after 2 s of virtual time.
    fn await_eviction(&mut self, gone: &[SiteId], waiters: &[SiteId]) -> SimTime {
        let deadline = self.cluster.now() + SimDuration::from_secs(2);
        loop {
            let t = self.cluster.now() + SimDuration::from_millis(5);
            self.cluster.run_until(t);
            let evicted = waiters.iter().all(|w| {
                let view = self.cluster.replica(*w).view_members();
                gone.iter().all(|g| !view.contains(g))
            });
            if evicted {
                return t;
            }
            assert!(t < deadline, "{}: view change never completed", self.label);
        }
    }

    /// Steps the simulation in 5 ms increments until every site's view
    /// contains all of `back`, and returns that instant. Panics after
    /// 2 s of virtual time.
    fn await_readmission(&mut self, back: &[SiteId]) -> SimTime {
        let deadline = self.cluster.now() + SimDuration::from_secs(2);
        loop {
            let t = self.cluster.now() + SimDuration::from_millis(5);
            self.cluster.run_until(t);
            let readmitted = (0..N).all(|s| {
                let view = self.cluster.replica(SiteId(s)).view_members();
                back.iter().all(|b| view.contains(b))
            });
            if readmitted {
                return t;
            }
            assert!(t < deadline, "{}: readmission never completed", self.label);
        }
    }

    /// Asserts that no survivor is left with an undecided transaction.
    fn assert_survivors_terminated(&self, survivors: &[SiteId]) {
        for s in survivors {
            assert!(
                !self.cluster.replica(*s).state().has_undecided(),
                "{}: {s} still has undecided transactions",
                self.label
            );
        }
    }
}

/// `victim` is site `N-1` for `crash_mid_2pc`, site 0 (the coordinator)
/// for `crash_coordinator`.
fn crash_mid_two_phase(mut ctx: Ctx<'_>, victim: usize) -> (Vec<SiteId>, bool) {
    // Warm-up load on every site, fully decided before the fault.
    ctx.load(0..N, 0, SimTime::from_micros(1_000), 8);
    ctx.cluster.run_until(SimTime::from_micros(200_000));
    // A burst whose commit requests are on the wire when the victim dies:
    // at +900 µs the requests have disseminated but the vote round is
    // still in flight, so the survivors hold orphaned vote waits.
    ctx.burst(0..N, 100, SimTime::from_micros(200_000));
    ctx.cluster.run_until(SimTime::from_micros(200_900));
    ctx.cluster.crash(SiteId(victim));
    let rest = if victim == 0 { 1..N } else { 0..N - 1 };
    let survivors: Vec<SiteId> = rest.clone().map(SiteId).collect();
    let evicted_at = ctx.await_eviction(&[SiteId(victim)], &survivors);
    // Post-fault load proves the majority keeps committing.
    ctx.load(rest, 200, evicted_at, 5);
    ctx.cluster
        .run_until(evicted_at + SimDuration::from_secs(2));
    ctx.assert_survivors_terminated(&survivors);
    (survivors, false)
}

fn crash_origin(mut ctx: Ctx<'_>) -> (Vec<SiteId>, bool) {
    ctx.load(0..N, 0, SimTime::from_micros(1_000), 8);
    ctx.cluster.run_until(SimTime::from_micros(200_000));
    // The origin submits a burst and dies before any decision lands:
    // nobody is left to drive these transactions.
    let mut origin_rng = ctx.rng.fork(100);
    for i in 0..3u64 {
        let at = SimTime::from_micros(200_000 + i * 100);
        let spec = ctx.wl.gen_txn(ctx.zipf, &mut origin_rng);
        ctx.cluster.submit_at(at, SiteId(N - 1), spec);
    }
    ctx.cluster.run_until(SimTime::from_micros(200_700));
    ctx.cluster.crash(SiteId(N - 1));
    let survivors: Vec<SiteId> = (0..N - 1).map(SiteId).collect();
    let evicted_at = ctx.await_eviction(&[SiteId(N - 1)], &survivors);
    ctx.load(0..N - 1, 200, evicted_at, 5);
    ctx.cluster
        .run_until(evicted_at + SimDuration::from_secs(2));
    ctx.assert_survivors_terminated(&survivors);
    (survivors, false)
}

fn partition_heal(mut ctx: Ctx<'_>) -> (Vec<SiteId>, bool) {
    ctx.load(0..N, 0, SimTime::from_micros(1_000), 8);
    ctx.cluster.run_until(SimTime::from_micros(200_000));
    let majority: Vec<SiteId> = (0..3).map(SiteId).collect();
    let minority: Vec<SiteId> = (3..N).map(SiteId).collect();
    ctx.cluster.partition(&majority, &minority);
    // Both sides' failure detectors fire on their own clocks: the
    // majority reconfigures to a 3-member view and keeps going, the
    // minority cannot form a majority and blocks.
    ctx.cluster.run_until(SimTime::from_micros(320_000));
    for s in &majority {
        assert!(
            ctx.cluster.replica(*s).is_operational(),
            "{}: majority side {s} blocked",
            ctx.label
        );
    }
    for s in &minority {
        assert!(
            !ctx.cluster.replica(*s).is_operational(),
            "{}: minority side {s} kept running",
            ctx.label
        );
    }
    // Majority-side load during the partition.
    ctx.load(0..3, 100, SimTime::from_micros(320_000), 5);
    ctx.cluster.run_until(SimTime::from_micros(500_000));
    // Heal, rejoin the minority by state transfer, and wait for
    // membership to re-admit it.
    ctx.cluster.heal_partitions();
    ctx.cluster.recover(SiteId(3), SiteId(0));
    ctx.cluster.recover(SiteId(4), SiteId(0));
    let back: Vec<SiteId> = (3..N).map(SiteId).collect();
    let rejoined_at = ctx.await_readmission(&back);
    // Full-cluster load after the heal: the readmitted sites serve
    // transactions again.
    ctx.load(0..N, 200, rejoined_at, 3);
    ctx.cluster
        .run_until(rejoined_at + SimDuration::from_secs(2));
    ctx.assert_survivors_terminated(&majority);
    // A cut drops messages without a Crash trace event, so transactions
    // wedged at the cut-off minority are expected — the pending-tolerant
    // invariant check applies.
    (majority, true)
}

fn cascading_views(mut ctx: Ctx<'_>) -> (Vec<SiteId>, bool) {
    ctx.load(0..N, 0, SimTime::from_micros(1_000), 8);
    ctx.cluster.run_until(SimTime::from_micros(200_000));
    ctx.cluster.crash(SiteId(4));
    // The second crash lands inside the first crash's suspicion window
    // (60 ms): the survivors are still agreeing on the 4-member view
    // when site 3 dies, so the view changes cascade.
    ctx.cluster.run_until(SimTime::from_micros(220_000));
    ctx.cluster.crash(SiteId(3));
    let survivors: Vec<SiteId> = (0..3).map(SiteId).collect();
    let evicted_at = ctx.await_eviction(&[SiteId(3), SiteId(4)], &survivors);
    for s in &survivors {
        assert!(
            ctx.cluster.replica(*s).is_operational(),
            "{}: {s} blocked after cascading view changes",
            ctx.label
        );
    }
    ctx.load(0..3, 200, evicted_at, 5);
    ctx.cluster
        .run_until(evicted_at + SimDuration::from_secs(2));
    ctx.assert_survivors_terminated(&survivors);
    (survivors, false)
}

fn crash_recover_rejoin(mut ctx: Ctx<'_>) -> (Vec<SiteId>, bool) {
    ctx.load(0..N, 0, SimTime::from_micros(1_000), 8);
    ctx.cluster.run_until(SimTime::from_micros(200_000));
    ctx.cluster.crash(SiteId(4));
    let survivors: Vec<SiteId> = (0..N - 1).map(SiteId).collect();
    let evicted_at = ctx.await_eviction(&[SiteId(4)], &survivors);
    // The majority commits a whole wave the crashed site never sees.
    ctx.load(0..N - 1, 100, evicted_at, 5);
    ctx.cluster
        .run_until(evicted_at + SimDuration::from_secs(1));
    // Catch the site up from a donor at a quiet moment and wait for
    // membership to re-admit it.
    ctx.cluster.recover(SiteId(4), SiteId(0));
    let rejoined_at = ctx.await_readmission(&[SiteId(4)]);
    // The rejoined site serves transactions again, cluster-wide.
    ctx.load(0..N, 200, rejoined_at, 3);
    ctx.cluster
        .run_until(rejoined_at + SimDuration::from_secs(2));
    ctx.assert_survivors_terminated(&survivors);
    assert!(
        ctx.cluster.replicas_converged(),
        "{}: recovered site diverged after catch-up",
        ctx.label
    );
    (survivors, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_is_serializable_under_reliable_broadcast() {
        let quiet = Run::default();
        for scenario in NemesisScenario::ALL {
            let out = run_nemesis(
                &quiet,
                &NemesisConfig::new(scenario, ProtocolKind::ReliableBcast),
            );
            assert!(out.survivors_serializable, "{scenario}");
            assert!(out.commits > 0, "{scenario}: nothing committed");
            assert_eq!(out.fast_commits, 0, "{scenario}: fast path off by default");
        }
    }

    #[test]
    fn nemesis_runs_are_deterministic() {
        let quiet = Run::default();
        let cfg = NemesisConfig::new(NemesisScenario::CrashMidTwoPhase, ProtocolKind::CausalBcast);
        let a = run_nemesis(&quiet, &cfg);
        let b = run_nemesis(&quiet, &cfg);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.events, b.events);
        assert_eq!(
            format!("{:.4}", a.vote_round_ms),
            format!("{:.4}", b.vote_round_ms)
        );
    }

    /// The crash_mid_2pc fault with the ring backend: site 4 is both the
    /// ring tail and site 3's successor, so its death severs the pipeline
    /// with commit requests in flight. The view change must repair the
    /// ring (re-route stranded payloads through the 4-member ring) for
    /// the orphaned vote waits to resolve and the post-fault load to
    /// decide — `run_nemesis` panics on any undecided survivor
    /// transaction, so this test completing at all proves the repair
    /// path ran.
    #[test]
    fn ring_backend_survives_crash_mid_two_phase() {
        let quiet = Run::default();
        let ring = run_nemesis(
            &quiet,
            &NemesisConfig {
                abcast: Some(AbcastImpl::Ring),
                ..NemesisConfig::new(NemesisScenario::CrashMidTwoPhase, ProtocolKind::AtomicBcast)
            },
        );
        assert!(ring.survivors_serializable, "ring crash run is not 1SR");
        assert!(ring.commits > 0, "ring crash run committed nothing");
        // The same fault under the sequencer decides the same submission
        // schedule; equal decided counts prove the ring stranded no
        // transaction at the break.
        let seq = run_nemesis(
            &quiet,
            &NemesisConfig {
                abcast: Some(AbcastImpl::Sequencer),
                ..NemesisConfig::new(NemesisScenario::CrashMidTwoPhase, ProtocolKind::AtomicBcast)
            },
        );
        assert_eq!(
            ring.commits + ring.aborts,
            seq.commits + seq.aborts,
            "ring decided {}+{} of the schedule, sequencer {}+{}",
            ring.commits,
            ring.aborts,
            seq.commits,
            seq.aborts
        );
    }

    #[test]
    fn fast_commit_engages_and_shortens_the_vote_round() {
        let quiet = Run::default();
        for proto in [ProtocolKind::ReliableBcast, ProtocolKind::CausalBcast] {
            let base = run_nemesis(
                &quiet,
                &NemesisConfig::new(NemesisScenario::CrashMidTwoPhase, proto),
            );
            let fast = run_nemesis(
                &quiet,
                &NemesisConfig {
                    fast_commit: true,
                    ..NemesisConfig::new(NemesisScenario::CrashMidTwoPhase, proto)
                },
            );
            assert!(
                fast.fast_commits > 0,
                "{proto}: the speculative path never fired"
            );
            assert!(
                fast.vote_round_ms < base.vote_round_ms,
                "{proto}: fast commit must shorten the vote round \
                 ({:.3} ms -> {:.3} ms)",
                base.vote_round_ms,
                fast.vote_round_ms
            );
            assert!(fast.survivors_serializable, "{proto}: fast run not 1SR");
            assert_eq!(
                base.commits, fast.commits,
                "{proto}: speculation must not change outcomes, only timing"
            );
        }
    }
}
