//! The public facade: a replicated-database cluster running inside the
//! deterministic simulator.

use crate::engine::ReplicaNode;
use crate::metrics::Metrics;
use crate::payload::{AbcastImpl, ProtocolKind, ReplicaTimer};
use crate::placement::Placement;
use crate::state::ConflictPolicy;
use bcastdb_db::sg::SgViolation;
use bcastdb_db::{HistoryRecorder, Key, LogRecord, TxnId, TxnSpec, Value};
use bcastdb_sim::stats::{render_jsonl, Sample, StatsHandle, StatsRegistry};
use bcastdb_sim::telemetry::{
    JsonlSink, PhaseCounts, RingSink, SpanBuilder, TraceEvent, TraceInvariants, TraceMeta,
    TraceSink, TraceViolation, Tracer, TxnRef, TxnSpan, WorkerSink,
};
use bcastdb_sim::{
    FaultPlan, NetworkConfig, RunOutcome, SimDuration, SimTime, Simulation, SiteId, WheelStats,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::rc::Rc;

/// The fate of a submitted transaction, as known at its origin site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed everywhere.
    Committed,
    /// Aborted.
    Aborted,
    /// Still in flight (or lost to a crash).
    Pending,
}

/// Cluster-wide configuration. Build via [`Cluster::builder`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of replicas.
    pub sites: usize,
    /// Protocol to run.
    pub protocol: ProtocolKind,
    /// Simulation seed.
    pub seed: u64,
    /// Network profile.
    pub net: NetworkConfig,
    /// Conflict policy (ablation A2).
    pub policy: ConflictPolicy,
    /// Atomic-broadcast implementation (ablation A1). `None` (default)
    /// picks per group size: the pipelined ring for `sites >= 16`, where
    /// the A1 saturation sweep shows it staying bandwidth-bound while the
    /// leader-based backends collapse, and the sequencer below that.
    pub abcast: Option<AbcastImpl>,
    /// Tick period (timeouts, null messages, membership heartbeats).
    pub tick_every: SimDuration,
    /// Point-to-point deadlock timeout.
    pub p2p_timeout: SimDuration,
    /// Causal-protocol null messages (the implicit-ack keep-alive).
    pub null_messages: bool,
    /// Run the membership service (failure experiments; prevents
    /// quiescence, so pair with [`Cluster::run_until`]).
    pub membership: bool,
    /// Failure-detector suspicion timeout.
    pub suspect_after: SimDuration,
    /// Speculative fast commit (reliable and causal protocols, membership
    /// on): decide from the surviving quorum's votes as soon as every
    /// missing voter is suspected by the failure detector, instead of
    /// waiting out the view change.
    pub fast_commit: bool,
    /// Eager broadcast relaying: every site re-forwards the first copy of
    /// each broadcast, so the reliable/causal protocols tolerate message
    /// loss (pair with a lossy [`NetworkConfig`]).
    pub relay: bool,
    /// Bounded exponential backoff (with deterministic per-site jitter) on
    /// the loss-recovery solicitation cadence — reliable `RSync`
    /// watermarks and causal gap-reporting nulls. Off by default: the
    /// fixed once-per-tick cadence stays byte-identical to prior behavior.
    pub retransmit_backoff: bool,
    /// Per-operation think time (zero = a transaction's reads are acquired
    /// and its writes broadcast in single instants; nonzero models clients
    /// that issue operations sequentially, as the paper assumes).
    pub think_time: SimDuration,
    /// Replica placement: full replication (the paper's model, default) or
    /// partial replication on a deterministic ring.
    pub placement: Placement,
    /// Structured tracing: `Some(capacity)` keeps the last `capacity`
    /// events in a ring buffer and feeds every event through the streaming
    /// invariant checker; `None` (default) disables tracing entirely.
    pub trace_capacity: Option<usize>,
    /// Stream every trace event to this JSONL file (for offline analysis
    /// with `bcast-trace`). Implies tracing even when `trace_capacity` is
    /// `None` (the ring then keeps nothing, but spans and the invariant
    /// checker still see every event).
    pub trace_jsonl: Option<PathBuf>,
    /// Bucket width for per-window commit counting
    /// ([`Metrics::commit_series`]); `None` (default) disables the series.
    pub commit_window: Option<SimDuration>,
    /// Batching flush window: `None` (default) keeps the one-message-per-
    /// transmission send path, byte-identical to the pre-batching
    /// behavior; `Some(w)` coalesces outgoing messages per destination for
    /// at most `w` before flushing them as one wire transmission. Logical
    /// per-phase message accounting is unaffected either way.
    pub batch_window: Option<SimDuration>,
    /// Metrics sampling interval: `Some(iv)` attaches a
    /// [`StatsRegistry`] and samples every gauge/counter/histogram at each
    /// `iv` of virtual time; `None` (default) disables metrics entirely.
    /// Sampling is driven between events on the sim clock, so turning it
    /// on never changes the run itself — only the sample stream exists.
    pub metrics_interval: Option<SimDuration>,
    /// Write the metrics samples to this JSONL file when
    /// [`Cluster::finish_metrics_jsonl`] is called. Implies metrics with a
    /// default 1 ms interval if `metrics_interval` is unset.
    pub metrics_jsonl: Option<PathBuf>,
    /// Packet-fault plan installed on the network before the run starts:
    /// per-link, per-direction, time-windowed drop / duplicate / reorder /
    /// burst-loss / delay-spike clauses (see [`bcastdb_sim::FaultPlan`]).
    /// `None` (default) keeps the network — and the RNG stream — exactly
    /// as before the fault model existed.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            sites: 3,
            protocol: ProtocolKind::ReliableBcast,
            seed: 0,
            net: NetworkConfig::lan(),
            policy: ConflictPolicy::WoundWait,
            abcast: None,
            tick_every: SimDuration::from_millis(5),
            p2p_timeout: SimDuration::from_millis(500),
            null_messages: true,
            membership: false,
            suspect_after: SimDuration::from_millis(100),
            fast_commit: false,
            relay: false,
            retransmit_backoff: false,
            think_time: SimDuration::ZERO,
            placement: Placement::Full,
            trace_capacity: None,
            trace_jsonl: None,
            commit_window: None,
            batch_window: None,
            metrics_interval: None,
            metrics_jsonl: None,
            fault_plan: None,
        }
    }
}

impl ClusterConfig {
    /// The atomic-broadcast backend this configuration runs: the explicit
    /// choice, else the size-dependent default — leader-based sequencing
    /// is cheapest in small groups (N+1 messages), but its leader NIC sends
    /// N-1 payload copies per broadcast, so from 16 sites up the pipelined
    /// ring — every link carries ~1x the payload bytes regardless of N —
    /// is the default.
    pub(crate) fn abcast_impl(&self) -> AbcastImpl {
        self.abcast.unwrap_or(if self.sites >= 16 {
            AbcastImpl::Ring
        } else {
            AbcastImpl::Sequencer
        })
    }
}

/// Fluent builder for [`Cluster`].
#[derive(Debug, Clone, Default)]
pub struct ClusterBuilder {
    cfg: ClusterConfig,
}

impl ClusterBuilder {
    /// Number of replicas (≥ 1).
    pub fn sites(mut self, n: usize) -> Self {
        self.cfg.sites = n;
        self
    }

    /// Which protocol to run.
    pub fn protocol(mut self, p: ProtocolKind) -> Self {
        self.cfg.protocol = p;
        self
    }

    /// Simulation seed — same seed, same execution.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Network profile (latency/loss).
    pub fn network(mut self, net: NetworkConfig) -> Self {
        self.cfg.net = net;
        self
    }

    /// Conflict policy between update transactions.
    pub fn policy(mut self, p: ConflictPolicy) -> Self {
        self.cfg.policy = p;
        self
    }

    /// Atomic-broadcast implementation. Unset, the cluster picks by group
    /// size (see [`ClusterConfig::abcast`]).
    pub fn abcast(mut self, a: AbcastImpl) -> Self {
        self.cfg.abcast = Some(a);
        self
    }

    /// Tick period.
    pub fn tick_every(mut self, d: SimDuration) -> Self {
        self.cfg.tick_every = d;
        self
    }

    /// Point-to-point deadlock timeout.
    pub fn p2p_timeout(mut self, d: SimDuration) -> Self {
        self.cfg.p2p_timeout = d;
        self
    }

    /// Enable/disable causal null messages.
    pub fn null_messages(mut self, on: bool) -> Self {
        self.cfg.null_messages = on;
        self
    }

    /// Enable the membership service.
    pub fn membership(mut self, on: bool) -> Self {
        self.cfg.membership = on;
        self
    }

    /// Failure-detector suspicion timeout.
    pub fn suspect_after(mut self, d: SimDuration) -> Self {
        self.cfg.suspect_after = d;
        self
    }

    /// Enable speculative fast commit under suspicion (reliable/causal).
    pub fn fast_commit(mut self, on: bool) -> Self {
        self.cfg.fast_commit = on;
        self
    }

    /// Enable eager broadcast relaying (message-loss tolerance).
    pub fn relay(mut self, on: bool) -> Self {
        self.cfg.relay = on;
        self
    }

    /// Enable bounded exponential backoff (with deterministic jitter) on
    /// the loss-recovery solicitation cadence. Off by default.
    pub fn retransmit_backoff(mut self, on: bool) -> Self {
        self.cfg.retransmit_backoff = on;
        self
    }

    /// Per-operation think time (paces both reads and write broadcasts).
    pub fn think_time(mut self, d: SimDuration) -> Self {
        self.cfg.think_time = d;
        self
    }

    /// Replica placement (defaults to full replication).
    pub fn placement(mut self, p: Placement) -> Self {
        self.cfg.placement = p;
        self
    }

    /// Enables structured tracing: the last `capacity` events are retained
    /// for inspection via [`Cluster::trace_events`], and *every* event
    /// (retained or evicted) streams through the trace invariant checker
    /// queried via [`Cluster::check_trace_invariants`].
    pub fn trace(mut self, capacity: usize) -> Self {
        self.cfg.trace_capacity = Some(capacity);
        self
    }

    /// Streams every trace event to a JSONL file as the run executes (and
    /// enables tracing if [`ClusterBuilder::trace`] was not called). Call
    /// [`Cluster::finish_trace_jsonl`] at the end of the run to flush it.
    pub fn trace_jsonl(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.trace_jsonl = Some(path.into());
        self
    }

    /// Enables per-window commit counting with the given bucket width; the
    /// merged series is available via [`Metrics::commit_series`] on
    /// [`Cluster::metrics`].
    pub fn commit_window(mut self, window: SimDuration) -> Self {
        self.cfg.commit_window = Some(window);
        self
    }

    /// Enables message batching with the given flush window: outgoing
    /// messages coalesce per destination and leave as one wire
    /// transmission when the window expires (or `BATCH_MAX_BYTES` fills).
    /// Leaving this unset keeps the unbatched send path, byte-identical
    /// to runs before the batching layer existed.
    pub fn batch_window(mut self, window: SimDuration) -> Self {
        self.cfg.batch_window = Some(window);
        self
    }

    /// Enables deterministic metrics sampling every `interval` of virtual
    /// time (see [`ClusterConfig::metrics_interval`]). Samples are read
    /// back with [`Cluster::metrics_samples`] or written out through
    /// [`ClusterBuilder::metrics_jsonl`].
    pub fn metrics(mut self, interval: SimDuration) -> Self {
        self.cfg.metrics_interval = Some(interval);
        self
    }

    /// Writes the metrics samples to a JSONL file at the end of the run
    /// (call [`Cluster::finish_metrics_jsonl`]); enables metrics with a
    /// 1 ms interval if [`ClusterBuilder::metrics`] was not called.
    pub fn metrics_jsonl(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.metrics_jsonl = Some(path.into());
        self
    }

    /// Installs a packet-fault plan on the network (see
    /// [`ClusterConfig::fault_plan`]). An empty plan is equivalent to none.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Builds the cluster.
    ///
    /// # Panics
    /// Panics if `sites == 0`.
    pub fn build(self) -> Cluster {
        Cluster::new(self.cfg)
    }
}

/// What observes the cluster's trace: a bounded ring buffer for
/// inspection, the streaming invariant checker, the per-transaction span
/// builder, and (optionally) a JSONL file stream. All but the ring are
/// bounded by links/transactions rather than events, so they survive
/// arbitrarily long runs that overflow the ring. They only observe, so the
/// cluster's [`WorkerSink`] runs them off the simulation thread.
#[derive(Default)]
struct Consumers {
    ring: RingSink,
    inv: TraceInvariants,
    spans: SpanBuilder,
    jsonl: Option<JsonlSink<File>>,
}

impl Consumers {
    /// Flushes and closes the JSONL stream with its trailer line; see
    /// [`Cluster::finish_trace_jsonl`].
    fn finish_jsonl(&mut self) -> std::io::Result<u64> {
        let Some(jsonl) = self.jsonl.take() else {
            return Ok(0);
        };
        let lines = jsonl.lines();
        let mut out = jsonl.into_inner()?;
        // Trailer line: lets offline tools verify the file is complete and
        // surface in-process ring eviction loudly instead of silently
        // analyzing a truncated view.
        let trailer = TraceMeta {
            events: lines,
            ring_evicted: self.ring.evicted(),
        };
        out.write_all(format!("{trailer}\n").as_bytes())?;
        Ok(lines)
    }
}

impl TraceSink for Consumers {
    /// Shows the event to the checker, the `SpanBuilder` and the JSONL
    /// stream, then moves it into the ring.
    fn record(&mut self, ev: TraceEvent) {
        self.inv.ingest(&ev);
        self.spans.ingest(&ev);
        if let Some(jsonl) = &mut self.jsonl {
            jsonl.ingest(&ev);
        }
        self.ring.record(ev);
    }
}

/// A simulated replicated-database cluster.
pub struct Cluster {
    sim: Simulation<ReplicaNode>,
    cfg: Rc<ClusterConfig>,
    next_num: Vec<u64>,
    last_submit: Vec<SimTime>,
    trace: Option<Rc<RefCell<WorkerSink<Consumers>>>>,
    stats: StatsHandle,
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Creates a cluster from an explicit configuration.
    ///
    /// # Panics
    /// Panics if `cfg.sites == 0`, or if `cfg.trace_jsonl` names a file
    /// that cannot be created.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.sites > 0, "a cluster needs at least one site");
        let cfg = Rc::new(cfg);
        let nodes = (0..cfg.sites)
            .map(|i| ReplicaNode::new(SiteId(i), cfg.clone()))
            .collect();
        let mut sim = Simulation::new(cfg.seed, cfg.net.clone(), nodes);
        if let Some(plan) = &cfg.fault_plan {
            sim.network_mut().install_fault_plan(plan.clone());
        }
        if let Some(window) = cfg.commit_window {
            for i in 0..cfg.sites {
                sim.node_mut(SiteId(i))
                    .state_mut()
                    .metrics
                    .enable_commit_series(window);
            }
        }
        let want_trace = cfg.trace_capacity.is_some() || cfg.trace_jsonl.is_some();
        let trace = want_trace.then(|| {
            let jsonl = cfg.trace_jsonl.as_ref().map(|path| {
                File::create(path)
                    .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()))
            });
            let sink = Rc::new(RefCell::new(WorkerSink::new(Consumers {
                ring: RingSink::new(cfg.trace_capacity.unwrap_or(0)),
                jsonl: jsonl.map(JsonlSink::new),
                ..Consumers::default()
            })));
            let tracer = Tracer::new(sink.clone());
            for i in 0..cfg.sites {
                sim.node_mut(SiteId(i)).state_mut().tracer = tracer.clone();
            }
            sink
        });
        let want_metrics = cfg.metrics_interval.is_some() || cfg.metrics_jsonl.is_some();
        let stats = if want_metrics {
            let interval = cfg.metrics_interval.unwrap_or(SimDuration::from_millis(1));
            let registry = Rc::new(RefCell::new(StatsRegistry::new(interval)));
            let handle = StatsHandle::new(registry);
            for i in 0..cfg.sites {
                sim.node_mut(SiteId(i)).state_mut().stats = handle.clone();
            }
            sim.enable_stats(handle.clone());
            handle
        } else {
            StatsHandle::disabled()
        };
        if cfg.membership {
            // Bootstrap the heartbeat machinery: one staggered initial tick
            // per site (afterwards each node re-arms its own ticks).
            for i in 0..cfg.sites {
                sim.schedule_timer(
                    SimTime::from_micros(37 * i as u64),
                    SiteId(i),
                    ReplicaTimer::Tick,
                );
            }
        }
        Cluster {
            sim,
            next_num: vec![0; cfg.sites],
            last_submit: vec![SimTime::ZERO; cfg.sites],
            cfg,
            trace,
            stats,
        }
    }

    /// The configuration this cluster runs.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// All site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> {
        (0..self.cfg.sites).map(SiteId)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Submits `spec` at `site`, effective immediately. Returns the id the
    /// transaction will receive.
    pub fn submit(&mut self, site: SiteId, spec: TxnSpec) -> TxnId {
        let at = self.sim.now();
        self.submit_at(at, site, spec)
    }

    /// Submits `spec` at `site` at absolute virtual time `at`.
    ///
    /// Submissions at the same site must be scheduled in nondecreasing time
    /// order — ids are assigned in arrival order.
    ///
    /// # Panics
    /// Panics if `at` precedes an earlier submission at the same site, or
    /// `site` is out of range.
    pub fn submit_at(&mut self, at: SimTime, site: SiteId, spec: TxnSpec) -> TxnId {
        assert!(site.0 < self.cfg.sites, "site {site} out of range");
        assert!(
            at >= self.last_submit[site.0],
            "submissions at one site must be time-ordered"
        );
        self.last_submit[site.0] = at;
        self.next_num[site.0] += 1;
        let id = TxnId::new(site, self.next_num[site.0]);
        self.sim
            .schedule_timer(at, site, ReplicaTimer::Submit(spec));
        id
    }

    /// Seeds an initial value at every replica (before the measured run).
    pub fn seed_key(&mut self, key: impl Into<Key>, value: Value) {
        let key = key.into();
        for i in 0..self.cfg.sites {
            self.sim
                .node_mut(SiteId(i))
                .state_mut()
                .store
                .seed(key.clone(), value);
        }
    }

    /// Runs until the event queue drains (default budget: 10 virtual
    /// minutes — a safety valve against protocol livelock).
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.sim.run_to_quiescence(SimDuration::from_secs(600))
    }

    /// Runs until `deadline` (for experiments with perpetual timers, e.g.
    /// membership heartbeats).
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// Crashes a site (fail-stop): it stops sending and receiving.
    pub fn crash(&mut self, site: SiteId) {
        if let Some(sink) = &self.trace {
            // Recorded so the invariant checker knows lost transactions are
            // expected (a crash relaxes the must-terminate invariant).
            sink.borrow_mut().record(TraceEvent::Crash {
                at: self.sim.now(),
                site,
            });
        }
        self.sim.network_mut().crash(site);
    }

    /// Partitions the cluster into two groups that cannot communicate
    /// (both keep running; with membership enabled the majority side stays
    /// operational and the minority blocks).
    pub fn partition(&mut self, group_a: &[SiteId], group_b: &[SiteId]) {
        self.sim.network_mut().partition(group_a, group_b);
    }

    /// Heals all partitions (crashed sites stay crashed).
    pub fn heal_partitions(&mut self) {
        self.sim.network_mut().heal_all();
    }

    /// Recovers a crashed site by state transfer from `donor` — the
    /// paper's "site failures and recovery" story. Call at a quiet moment
    /// (no in-flight transactions): the recovered replica adopts the
    /// donor's committed state, decisions, view, and broadcast delivery
    /// positions, then rejoins the network; the membership service
    /// re-admits it through its heartbeats.
    ///
    /// # Panics
    /// Panics if `site == donor` or either id is out of range.
    pub fn recover(&mut self, site: SiteId, donor: SiteId) {
        assert_ne!(site, donor, "a site cannot donate to itself");
        assert!(site.0 < self.cfg.sites && donor.0 < self.cfg.sites);
        let snap = self.sim.node(donor).export_snapshot();
        let now = self.sim.now();
        self.sim.network_mut().recover(site);
        self.sim.node_mut(site).import_snapshot(snap, now);
        if self.cfg.membership {
            // Restart its tick loop (its old timers died with the crash).
            self.sim
                .schedule_timer(now + SimDuration::from_micros(41), site, ReplicaTimer::Tick);
        }
    }

    /// The fate of `id` as recorded at its origin.
    pub fn outcome(&self, id: TxnId) -> TxnOutcome {
        match self.sim.node(id.origin).state().decided.get(&id) {
            Some(true) => TxnOutcome::Committed,
            Some(false) => TxnOutcome::Aborted,
            None => TxnOutcome::Pending,
        }
    }

    /// True iff `id` committed.
    pub fn is_committed(&self, id: TxnId) -> bool {
        self.outcome(id) == TxnOutcome::Committed
    }

    /// The committed value of `key` at `site` (`None` if never written).
    pub fn committed_value(&self, site: SiteId, key: impl Into<Key>) -> Option<Value> {
        let key = key.into();
        let v = self.sim.node(site).state().store.read(&key);
        v.writer.map(|_| v.value)
    }

    /// True iff the replicas agree on every key's committed state — under
    /// partial replication, each key is compared across its holders only.
    pub fn replicas_converged(&self) -> bool {
        match self.cfg.placement {
            Placement::Full => {
                let first = self.sim.node(SiteId(0)).state();
                (1..self.cfg.sites).all(|i| {
                    first
                        .store
                        .converged_with(&self.sim.node(SiteId(i)).state().store)
                })
            }
            Placement::Ring { .. } => {
                // Every key any holder has installed must read identically
                // at every other holder of that key.
                for i in 0..self.cfg.sites {
                    let st = self.sim.node(SiteId(i)).state();
                    for (key, version) in st.store.iter() {
                        for h in self.cfg.placement.holders(key, self.cfg.sites) {
                            let other = self.sim.node(h).state();
                            if other.store.read(key) != version {
                                return false;
                            }
                        }
                    }
                }
                true
            }
        }
    }

    /// Metrics merged across all sites.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        for i in 0..self.cfg.sites {
            m.merge(&self.sim.node(SiteId(i)).state().metrics);
        }
        m
    }

    /// Metrics of one site.
    pub fn site_metrics(&self, site: SiteId) -> &Metrics {
        &self.sim.node(site).state().metrics
    }

    /// Total point-to-point messages the network carried.
    pub fn messages_sent(&self) -> u64 {
        self.sim.network().messages_sent()
    }

    /// The simulated network (fault counters, drop attribution).
    pub fn network(&self) -> &bcastdb_sim::Network {
        self.sim.network()
    }

    /// Logical messages sent per phase, merged across all sites.
    pub fn phase_counts(&self) -> PhaseCounts {
        self.metrics().phase_counts()
    }

    /// Runs `f` on the trace consumers once they have seen every event
    /// traced so far; `None` when tracing is off.
    fn settled<R>(&self, f: impl FnOnce(&mut Consumers) -> R) -> Option<R> {
        self.trace.as_ref().map(|s| f(&mut s.borrow_mut().settle()))
    }

    /// The retained tail of the trace (empty when tracing is off; bounded
    /// by the capacity passed to [`ClusterBuilder::trace`]).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.settled(|c| c.ring.to_vec()).unwrap_or_default()
    }

    /// Events dropped from the ring so far (the invariant checker still
    /// saw them).
    pub fn trace_evicted(&self) -> u64 {
        self.settled(|c| c.ring.evicted()).unwrap_or(0)
    }

    /// Per-transaction spans reconstructed from the full trace stream so
    /// far (every event, not just the ring's tail). Empty when tracing is
    /// off.
    pub fn txn_spans(&self) -> BTreeMap<TxnRef, TxnSpan> {
        self.settled(|c| c.spans.spans().clone())
            .unwrap_or_default()
    }

    /// Flushes and closes the JSONL trace stream, returning the number of
    /// events written. Returns `Ok(0)` when no JSONL stream was configured
    /// (or it was already finished); events traced after this call are no
    /// longer written to the file.
    ///
    /// # Errors
    /// Returns the first deferred write error, or the flush error.
    pub fn finish_trace_jsonl(&mut self) -> std::io::Result<u64> {
        self.settled(Consumers::finish_jsonl).unwrap_or(Ok(0))
    }

    /// The metrics samples taken so far (empty when metrics are off).
    pub fn metrics_samples(&self) -> Vec<Sample> {
        self.stats.samples()
    }

    /// The current total of a push-side work counter such as
    /// `cb.decide_peers_examined` — exact at any instant, unlike the
    /// samples, which stop at the last period boundary. Zero when metrics
    /// are off.
    pub fn metrics_counter(&self, name: &str) -> u64 {
        self.stats.counter(name)
    }

    /// Writes the metrics samples as JSONL to the path configured with
    /// [`ClusterBuilder::metrics_jsonl`], returning the number of samples
    /// written. Returns `Ok(0)` when no metrics file was configured.
    ///
    /// # Errors
    /// Returns any error from creating or writing the file.
    pub fn finish_metrics_jsonl(&mut self) -> std::io::Result<u64> {
        let Some(path) = &self.cfg.metrics_jsonl else {
            return Ok(0);
        };
        let samples = self.stats.samples();
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(render_jsonl(&samples).as_bytes())?;
        out.flush()?;
        Ok(samples.len() as u64)
    }

    /// The simulator's timing-wheel placement statistics — how many events
    /// took the wheel fast path versus the far/past heaps.
    pub fn wheel_stats(&self) -> WheelStats {
        self.sim.wheel_stats()
    }

    /// Runs the streaming trace invariant checker over everything traced
    /// so far: every delivery was sent, every submitted transaction
    /// terminated exactly once (unless a crash was recorded), and commit
    /// order agrees with atomic-broadcast delivery order. Trivially `Ok`
    /// when tracing is off.
    ///
    /// # Errors
    /// Returns the first [`TraceViolation`] found.
    pub fn check_trace_invariants(&self) -> Result<(), TraceViolation> {
        self.settled(|c| c.inv.check()).unwrap_or(Ok(()))
    }

    /// Like [`Cluster::check_trace_invariants`], but tolerates submitted
    /// transactions still in flight — for experiments that deliberately
    /// end with wedged transactions (e.g. the causal protocol with
    /// keep-alives disabled on a quiet network).
    ///
    /// # Errors
    /// Returns the first [`TraceViolation`] found.
    pub fn check_trace_invariants_allowing_pending(&self) -> Result<(), TraceViolation> {
        self.settled(|c| c.inv.check_allowing_pending())
            .unwrap_or(Ok(()))
    }

    /// Direct access to a replica (stores, logs, lock tables).
    pub fn replica(&self, site: SiteId) -> &ReplicaNode {
        self.sim.node(site)
    }

    /// Events processed by the simulator so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Builds the one-copy serialization graph of the whole execution and
    /// checks it (replica agreement + acyclicity).
    ///
    /// # Errors
    /// Returns the first [`SgViolation`] found.
    pub fn check_serializability(&self) -> Result<(), SgViolation> {
        self.check_serializability_among(&self.sites().collect::<Vec<_>>())
    }

    /// An equivalent serial order of every committed transaction — the
    /// constructive witness of one-copy serializability.
    ///
    /// # Errors
    /// Returns the first [`SgViolation`] found.
    pub fn serialization_order(&self) -> Result<Vec<TxnId>, SgViolation> {
        self.recorder(&self.sites().collect::<Vec<_>>())
            .serialization_order()
    }

    /// Like [`Cluster::check_serializability`], restricted to a subset of
    /// sites (failure experiments check the surviving majority only).
    ///
    /// # Errors
    /// Returns the first [`SgViolation`] found.
    pub fn check_serializability_among(&self, sites: &[SiteId]) -> Result<(), SgViolation> {
        self.recorder(sites).check()
    }

    /// Assembles the execution's history recorder from the surveyed sites.
    /// It borrows their commit records, read arenas and stores; nothing is
    /// copied.
    fn recorder(&self, sites: &[SiteId]) -> HistoryRecorder<'_> {
        let mut h = HistoryRecorder::new();
        let surveyed: std::collections::BTreeSet<SiteId> = sites.iter().copied().collect();
        for &site in sites {
            let st = self.sim.node(site).state();
            for rec in &st.commits {
                h.record_commit_ref(rec.txn, st.reads.run(&rec.reads), &rec.writes);
            }
            h.record_site_order(site, &st.store);
        }
        // Commits whose origin is outside the surveyed set (e.g. a crashed
        // site) have no origin-side record; the surveyed replicas' redo
        // logs say they committed (each log that holds one says so again;
        // the recorder goes by the last record). Their writes are in the
        // install orders already, and their reads happened at the lost
        // origin and impose no constraints the survivors can check.
        if surveyed.len() == self.cfg.sites {
            return h; // every origin speaks for itself
        }
        for &site in sites {
            for rec in self.sim.node(site).state().log.records() {
                if let LogRecord::Commit { txn, .. } = rec {
                    if !surveyed.contains(&txn.origin) {
                        h.record_commit(txn, Vec::new(), Vec::new());
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcastdb_sim::telemetry::{BLOCK_EVENTS, WORKER_START_BLOCK};

    fn write_txn(key: &str, v: i64) -> TxnSpec {
        TxnSpec::new().read(key).write(key, v)
    }

    /// Every protocol commits a single uncontended transaction and
    /// replicates its write everywhere.
    #[test]
    fn single_txn_commits_on_every_protocol() {
        for proto in ProtocolKind::ALL {
            let mut c = Cluster::builder().sites(3).protocol(proto).seed(1).build();
            let id = c.submit(SiteId(0), write_txn("x", 42));
            let out = c.run_to_quiescence();
            assert!(
                matches!(out, RunOutcome::Quiesced { .. }),
                "{proto}: did not quiesce"
            );
            assert!(c.is_committed(id), "{proto}: txn did not commit");
            for s in c.sites() {
                assert_eq!(
                    c.committed_value(s, "x"),
                    Some(42),
                    "{proto}: value missing at {s}"
                );
            }
            assert!(c.replicas_converged(), "{proto}: replicas diverged");
            c.check_serializability()
                .unwrap_or_else(|v| panic!("{proto}: {v}"));
        }
    }

    /// Read-only transactions commit locally with no network traffic on
    /// the broadcast protocols.
    #[test]
    fn read_only_is_free_of_messages() {
        for proto in [
            ProtocolKind::ReliableBcast,
            ProtocolKind::CausalBcast,
            ProtocolKind::AtomicBcast,
        ] {
            let mut c = Cluster::builder().sites(5).protocol(proto).seed(2).build();
            let id = c.submit(SiteId(3), TxnSpec::new().read("a").read("b"));
            c.run_to_quiescence();
            assert!(c.is_committed(id), "{proto}");
            assert_eq!(c.messages_sent(), 0, "{proto}: read-only sent messages");
        }
    }

    /// Sequential conflicting updates from different sites all commit and
    /// converge to the last writer.
    #[test]
    fn sequential_updates_converge() {
        for proto in ProtocolKind::ALL {
            let mut c = Cluster::builder().sites(4).protocol(proto).seed(3).build();
            let mut ids = Vec::new();
            for (i, v) in [(0usize, 10i64), (1, 20), (2, 30)] {
                // Space submissions out so each commits before the next.
                let at = SimTime::from_micros(i as u64 * 2_000_000);
                ids.push(c.submit_at(at, SiteId(i), write_txn("x", v)));
            }
            c.run_to_quiescence();
            for id in &ids {
                assert!(c.is_committed(*id), "{proto}: {id} aborted");
            }
            for s in c.sites() {
                assert_eq!(c.committed_value(s, "x"), Some(30), "{proto} at {s}");
            }
            c.check_serializability()
                .unwrap_or_else(|v| panic!("{proto}: {v}"));
        }
    }

    /// Concurrent conflicting writers: at most one commits per protocol
    /// rules, replicas converge, history stays serializable.
    #[test]
    fn concurrent_conflicting_writers_stay_serializable() {
        for proto in ProtocolKind::ALL {
            let mut c = Cluster::builder().sites(3).protocol(proto).seed(4).build();
            let a = c.submit_at(SimTime::from_micros(0), SiteId(0), write_txn("x", 1));
            let b = c.submit_at(SimTime::from_micros(10), SiteId(1), write_txn("x", 2));
            let out = c.run_to_quiescence();
            assert!(matches!(out, RunOutcome::Quiesced { .. }), "{proto}");
            let done = [a, b]
                .iter()
                .filter(|t| c.outcome(**t) != TxnOutcome::Pending)
                .count();
            assert_eq!(done, 2, "{proto}: transactions left pending");
            assert!(c.replicas_converged(), "{proto}: replicas diverged");
            c.check_serializability()
                .unwrap_or_else(|v| panic!("{proto}: {v}"));
        }
    }

    /// Deterministic: same seed ⇒ same event count, messages, and state.
    #[test]
    fn runs_are_deterministic() {
        let run = |seed: u64| {
            let mut c = Cluster::builder()
                .sites(4)
                .protocol(ProtocolKind::CausalBcast)
                .seed(seed)
                .build();
            for i in 0..8u64 {
                let site = SiteId((i % 4) as usize);
                c.submit_at(
                    SimTime::from_micros(i * 100),
                    site,
                    write_txn(if i % 2 == 0 { "x" } else { "y" }, i as i64),
                );
            }
            c.run_to_quiescence();
            (
                c.events_processed(),
                c.messages_sent(),
                c.metrics().commits(),
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, 0);
    }

    /// Tracing captures a run, the invariant checker accepts it, and the
    /// per-phase totals agree with the network.
    #[test]
    fn tracing_records_and_validates_a_run() {
        for proto in ProtocolKind::ALL {
            let mut c = Cluster::builder()
                .sites(3)
                .protocol(proto)
                .trace(10_000)
                .seed(7)
                .build();
            let id = c.submit(SiteId(0), write_txn("x", 1));
            c.run_to_quiescence();
            assert!(c.is_committed(id), "{proto}");
            c.check_trace_invariants()
                .unwrap_or_else(|v| panic!("{proto}: {v}"));
            assert!(!c.trace_events().is_empty(), "{proto}: no events traced");
            assert_eq!(
                c.phase_counts().total(),
                c.messages_sent(),
                "{proto}: lossless run, counters must match the network"
            );
        }
    }

    /// The batching invariant: for the same seed and workload, enabling
    /// `batch_window` leaves the *logical* message accounting (per-phase
    /// counts and the kinds counted by name) and the outcomes untouched,
    /// while the
    /// network carries strictly fewer (batched) transmissions.
    ///
    /// The workload is deliberately conflict-free (one key per
    /// transaction): batching delays deliveries, and under contention a
    /// delay can legitimately flip a wound/wait or certification decision
    /// and with it the message pattern. Without conflicts every protocol's
    /// logical traffic is a pure function of the transaction structure, so
    /// the counts must match exactly.
    #[test]
    fn batching_preserves_logical_counts_and_outcomes() {
        for proto in ProtocolKind::ALL {
            let run = |window: Option<SimDuration>| {
                let mut b = Cluster::builder()
                    .sites(4)
                    .protocol(proto)
                    .trace(10_000)
                    .seed(21);
                if let Some(w) = window {
                    b = b.batch_window(w);
                }
                let mut c = b.build();
                for i in 0..6u64 {
                    let site = SiteId((i % 4) as usize);
                    c.submit_at(
                        SimTime::from_micros(i * 500),
                        site,
                        write_txn(&format!("k{i}"), i as i64),
                    );
                }
                c.run_to_quiescence();
                c.check_trace_invariants()
                    .unwrap_or_else(|v| panic!("{proto}: {v}"));
                assert!(c.replicas_converged(), "{proto}: replicas diverged");
                c
            };
            let off = run(None);
            let on = run(Some(SimDuration::from_micros(500)));
            assert_eq!(
                off.phase_counts(),
                on.phase_counts(),
                "{proto}: logical per-phase counts must not depend on batching"
            );
            for kind in ["msg_null", "msg_retrans", "msg_sync"] {
                assert_eq!(
                    off.metrics().counters.get(kind),
                    on.metrics().counters.get(kind),
                    "{proto}: {kind} must not depend on batching"
                );
            }
            if proto == ProtocolKind::CausalBcast {
                assert!(
                    off.metrics().counters.get("msg_null") > 0,
                    "no nulls compared"
                );
            }
            assert_eq!(
                off.metrics().commits(),
                on.metrics().commits(),
                "{proto}: outcomes must not depend on batching"
            );
            // Wire accounting: every network transmission of the batched
            // run is a batch envelope, and there are fewer of them than
            // logical messages (coalescing actually happened).
            assert_eq!(off.metrics().wire_batches(), 0);
            assert_eq!(
                on.messages_sent(),
                on.metrics().wire_batches(),
                "{proto}: batched runs send only envelopes"
            );
            assert_eq!(
                on.metrics().wire_batched_msgs(),
                on.phase_counts().total(),
                "{proto}: every logical message must travel in some batch"
            );
            assert!(
                on.messages_sent() < off.messages_sent(),
                "{proto}: batching must reduce wire transmissions ({} vs {})",
                on.messages_sent(),
                off.messages_sent()
            );
        }
    }

    /// With `batch_window` unset the batcher is never constructed: nothing
    /// travels in an envelope.
    #[test]
    fn batching_off_is_the_default() {
        let mut c = Cluster::builder()
            .sites(3)
            .protocol(ProtocolKind::CausalBcast)
            .seed(5)
            .build();
        c.submit(SiteId(0), write_txn("x", 7));
        c.run_to_quiescence();
        assert_eq!(c.metrics().commits(), 1);
        assert_eq!(c.metrics().wire_batches(), 0);
    }

    /// Metrics sampling is a pure observer: enabling it changes neither
    /// event counts nor outcomes, and the stream carries the sim-level and
    /// per-site series.
    #[test]
    fn metrics_sampling_observes_without_perturbing() {
        let run = |metrics: bool| {
            let mut b = Cluster::builder()
                .sites(3)
                .protocol(ProtocolKind::CausalBcast)
                .seed(11);
            if metrics {
                b = b.metrics(SimDuration::from_millis(1));
            }
            let mut c = b.build();
            for i in 0..4u64 {
                c.submit_at(
                    SimTime::from_micros(i * 700),
                    SiteId((i % 3) as usize),
                    write_txn("x", i as i64),
                );
            }
            c.run_to_quiescence();
            c
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.events_processed(), on.events_processed());
        assert_eq!(off.messages_sent(), on.messages_sent());
        assert_eq!(off.metrics().commits(), on.metrics().commits());
        assert!(off.metrics_samples().is_empty());
        let samples = on.metrics_samples();
        assert!(!samples.is_empty(), "metrics run produced no samples");
        let last = samples.last().unwrap();
        assert!(last.values.contains_key("queue_depth"));
        assert!(last.values.contains_key("net.msgs_sent"));
        for s in 0..3 {
            assert!(
                last.values.contains_key(&format!("s{s}.core.remote_live")),
                "missing per-site gauges for site {s}"
            );
        }
        // And the stream is reproducible.
        let again = run(true);
        assert_eq!(samples, again.metrics_samples());
    }

    /// The default backend flips to the ring at 16 sites — observable via
    /// the ring-only pipeline gauges in the metrics stream — and an
    /// explicit choice always wins over the size heuristic.
    #[test]
    fn abcast_default_flips_to_ring_at_sixteen_sites() {
        let default_at = |sites: usize| {
            let cfg = ClusterConfig {
                sites,
                ..ClusterConfig::default()
            };
            cfg.abcast_impl()
        };
        assert_eq!(default_at(15), AbcastImpl::Sequencer);
        assert_eq!(default_at(16), AbcastImpl::Ring);
        let run = |sites: usize, pick: Option<AbcastImpl>| {
            let mut b = Cluster::builder()
                .sites(sites)
                .protocol(ProtocolKind::AtomicBcast)
                .metrics(SimDuration::from_millis(1))
                .seed(13);
            if let Some(a) = pick {
                b = b.abcast(a);
            }
            let mut c = b.build();
            let id = c.submit(SiteId(0), write_txn("x", 1));
            c.run_to_quiescence();
            assert!(c.is_committed(id));
            assert!(c.replicas_converged());
            let samples = c.metrics_samples();
            samples
                .last()
                .is_some_and(|s| s.values.contains_key("s0.ring.inflight"))
        };
        assert!(!run(3, None), "small groups default to the sequencer");
        assert!(run(16, None), "16 sites default to the ring");
        assert!(
            !run(16, Some(AbcastImpl::Sequencer)),
            "an explicit backend overrides the size default"
        );
        assert!(run(3, Some(AbcastImpl::Ring)));
    }

    /// A trace file the device refuses (`/dev/full`, where there is one):
    /// `finish_trace_jsonl` returns the error, not a line count, and so
    /// writes no trailer.
    #[test]
    fn finish_trace_jsonl_reports_a_refused_write() {
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let mut c = Cluster::builder()
            .sites(3)
            .trace_jsonl(full)
            .seed(5)
            .build();
        c.submit(SiteId(0), write_txn("x", 1));
        c.run_to_quiescence();
        let err = c.finish_trace_jsonl().expect_err("/dev/full takes nothing");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert_eq!(c.finish_trace_jsonl().unwrap(), 0, "the stream is closed");
    }

    /// The trace consumers run on a worker once a run fills a block; the
    /// cluster must read exactly what the same consumers fed inline read. A
    /// ring larger than the run keeps every event, so they are re-fed
    /// through fresh `Consumers`: the spans, both invariant verdicts and the
    /// eviction count agree at every read, and the JSONL bytes (trailer
    /// included) at the end. A run below one block; runs of exactly one
    /// block and of exactly the block that starts the worker (padded with
    /// crash records, counted on a twin run, so no read consumes a partial
    /// block first); and a run of many blocks read in lock-step between
    /// `run_until` slices, ending in a burst of records read while the
    /// worker is likely still behind.
    #[test]
    fn trace_consumers_agree_with_inline_ones() {
        const CAPACITY: usize = 100_000;
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        for (case, txns) in [("below", 2u64), ("one", 2), ("start", 2), ("many", 2500)] {
            let path = |who: &str| dir.join(format!("bcastdb-lockstep-{pid}-{case}-{who}.jsonl"));
            let build = |capacity: usize, who: &str| {
                let mut c = Cluster::builder()
                    .sites(3)
                    .trace(capacity)
                    .trace_jsonl(path(who))
                    .seed(31)
                    .build();
                for i in 0..txns {
                    let key = format!("k{}", i % 17);
                    let at = SimTime::from_micros(i * 300);
                    c.submit_at(at, SiteId(i as usize % 3), write_txn(&key, i as i64));
                }
                c
            };
            let mut c = build(CAPACITY, "cluster");
            let mut inline = Consumers {
                ring: RingSink::new(CAPACITY),
                jsonl: Some(JsonlSink::new(File::create(path("inline")).unwrap())),
                ..Consumers::default()
            };
            let mut fed = Vec::new();
            let mut lockstep = |c: &Cluster, inline: &mut Consumers| {
                let events = c.trace_events();
                assert_eq!(
                    events[..fed.len()],
                    fed[..],
                    "{case}: the ring's prefix moved"
                );
                for ev in &events[fed.len()..] {
                    inline.record(ev.clone());
                }
                fed = events;
                assert_eq!(c.trace_evicted(), inline.ring.evicted(), "{case}");
                assert_eq!(c.txn_spans(), *inline.spans.spans(), "{case}");
                assert_eq!(c.check_trace_invariants(), inline.inv.check(), "{case}");
                assert_eq!(
                    c.check_trace_invariants_allowing_pending(),
                    inline.inv.check_allowing_pending(),
                    "{case}"
                );
                fed.len()
            };
            let traced = match case {
                "below" => {
                    c.run_to_quiescence();
                    lockstep(&c, &mut inline)
                }
                "one" | "start" => {
                    let blocks = if case == "one" { 1 } else { WORKER_START_BLOCK };
                    let mut twin = build(CAPACITY, "twin");
                    twin.run_to_quiescence();
                    c.run_to_quiescence();
                    for _ in twin.trace_events().len()..blocks * BLOCK_EVENTS {
                        c.crash(SiteId(2));
                    }
                    lockstep(&c, &mut inline)
                }
                _ => {
                    for slice in 1..=4 {
                        c.run_until(SimTime::from_micros(slice * 200_000));
                        lockstep(&c, &mut inline);
                    }
                    c.run_to_quiescence();
                    lockstep(&c, &mut inline);
                    for _ in 0..4 * BLOCK_EVENTS + 7 {
                        c.crash(SiteId(2));
                    }
                    lockstep(&c, &mut inline)
                }
            };
            match case {
                "below" => assert!(traced < BLOCK_EVENTS),
                "one" => assert_eq!(traced, BLOCK_EVENTS),
                "start" => assert_eq!(traced, WORKER_START_BLOCK * BLOCK_EVENTS),
                _ => assert!(traced > 2 * WORKER_START_BLOCK * BLOCK_EVENTS, "{traced}"),
            }
            c.check_trace_invariants().unwrap();
            assert_eq!(c.trace_evicted(), 0, "the ring holds the whole run");
            assert_eq!(
                c.finish_trace_jsonl().unwrap(),
                inline.finish_jsonl().unwrap()
            );
            let bytes = |who: &str| std::fs::read(path(who)).unwrap();
            assert_eq!(bytes("cluster"), bytes("inline"), "{case}: JSONL bytes");
            if case == "many" {
                // A ring smaller than the run keeps the same tail.
                let mut small = build(1_000, "small");
                small.run_to_quiescence();
                let run = small.trace_evicted() as usize + 1_000;
                assert_eq!(small.trace_events()[..], fed[run - 1_000..run]);
            }
            for who in ["cluster", "inline", "twin", "small"] {
                let _ = std::fs::remove_file(path(who));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_panics() {
        let _ = Cluster::builder().sites(0).build();
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_submission_panics() {
        let mut c = Cluster::builder().sites(2).build();
        c.submit_at(SimTime::from_micros(100), SiteId(0), TxnSpec::new());
        c.submit_at(SimTime::from_micros(50), SiteId(0), TxnSpec::new());
    }
}
