//! One repetition of a workload: build the cluster, offer the generated
//! transactions (closed loop, open loop, or open loop through a crash and
//! a rejoin), then validate the execution. Modelled on
//! `bcastdb_workload::runner`, but fed from inputs generated in setup and
//! wrapped in benchmark spans.

use crate::spans::{SpanId, Spans};
use crate::workloads::{Drive, Inputs, Workload};
use bcastdb_core::{Cluster, Metrics, TxnOutcome};
use bcastdb_db::{TxnId, TxnSpec};
use bcastdb_memprobe::allocation_count;
use bcastdb_sim::analyze::{summarize, SegmentSummary};
use bcastdb_sim::{NetworkConfig, Sample, SimDuration, SimTime, SiteId};
use std::path::Path;
use std::time::Instant;

/// Poll period of the closed-loop clients and of every drain loop.
const QUANTUM: SimDuration = SimDuration::from_micros(500);
/// First due instant of the open-loop schedules.
const OPEN_START_US: u64 = 1_000;
/// Failure-detector timeout of `crash_rejoin`.
const SUSPECT_AFTER: SimDuration = SimDuration::from_millis(60);
/// Bucket width of the commit series `unavail_ms` is read from.
const COMMIT_WINDOW: SimDuration = SimDuration::from_millis(1);
/// Virtual-time budget of any single wait (drain, eviction, readmission)
/// before the repetition is failed instead of hanging.
const WAIT_BUDGET: SimDuration = SimDuration::from_secs(20);
/// Virtual-time budget of a whole closed loop.
const CLOSED_BUDGET: SimDuration = SimDuration::from_secs(600);
/// Silence between the last decision and the state transfer, many LAN
/// latencies long.
const SETTLE: SimDuration = SimDuration::from_millis(20);
/// The victim stops receiving arrivals this long before it crashes, so
/// every transaction it originated has reached the survivors: a request
/// accepted by a site that then dies is lost by design and would count
/// as a failed operation.
const VICTIM_LEAD_US: u64 = 100_000;

/// What the driver of one repetition observed while offering the load.
#[derive(Debug, Default)]
pub struct DriveLog {
    pub submitted: u64,
    /// Failed validations, one line each.
    pub failures: Vec<String>,
    pub first_submit: SimTime,
    /// Instant the driver saw the last submitted transaction terminated.
    pub last_decision: SimTime,
    /// Heap allocations inside `loop` spans (recorded with spans on).
    pub loop_allocs: u64,
    /// `crash_rejoin` only (0 elsewhere), virtual milliseconds.
    pub unavail_ms: f64,
    pub evict_ms: f64,
    pub readmit_ms: f64,
}

/// What the network carried in one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetCounters {
    pub msgs: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub reordered: u64,
}

/// What product tracing recorded in one repetition: latency segments
/// from `txn_spans()`, gauge maxima from the 1 ms sampler, and volume.
pub struct TraceFacts {
    pub segments: SegmentSummary,
    /// Mean latest-minus-earliest commit application across sites.
    pub commit_skew_ms: f64,
    pub trace_events: u64,
    pub samples: usize,
    pub queue_depth_max: u64,
    pub backlog_us_max: u64,
    pub ring_inflight_max: u64,
    pub lock_waiters_max: u64,
    pub lock_keys_max: u64,
}

/// What one repetition produced, read off the cluster after the clock
/// stopped; the cluster itself is gone by the time this is returned, so
/// the next repetition starts from the same memory.
pub struct Rep {
    /// Wall seconds of the timed window.
    pub wall_s: f64,
    /// Heap allocations inside the timed window.
    pub allocs: u64,
    /// Transactions that never terminated.
    pub wedged: u64,
    pub log: DriveLog,
    /// Metrics merged across sites.
    pub metrics: Metrics,
    pub events: u64,
    pub net: NetCounters,
    /// Share of events scheduled beyond one timing-wheel revolution.
    pub wheel_far_share: f64,
    /// Present when the repetition ran under product tracing and benchmark
    /// spans both (the per-layer pass).
    pub trace: Option<TraceFacts>,
    /// This repetition's `rep` span (`None` with the recorder off).
    pub span: SpanId,
}

/// The span recorder and the log, as the drivers pass them around.
struct Ctx<'a> {
    spans: &'a mut Spans,
    log: DriveLog,
}

impl Ctx<'_> {
    /// `Cluster::run_until` inside a `loop` span.
    fn run_until(&mut self, cluster: &mut Cluster, deadline: SimTime) {
        let id = self.spans.enter("loop");
        if id.is_some() {
            let before = allocation_count();
            cluster.run_until(deadline);
            self.log.loop_allocs += allocation_count() - before;
        } else {
            cluster.run_until(deadline);
        }
        self.spans.exit(id);
    }

    /// Steps the simulation one quantum at a time until `done` holds.
    /// Returns the instant it first held, or fails the repetition when
    /// the wait budget runs out.
    fn run_while(
        &mut self,
        cluster: &mut Cluster,
        what: &str,
        done: impl Fn(&Cluster) -> bool,
    ) -> SimTime {
        let give_up = cluster.now() + WAIT_BUDGET;
        while !done(cluster) {
            if cluster.now() >= give_up {
                self.log
                    .failures
                    .push(format!("gave up waiting for {what}"));
                break;
            }
            let deadline = cluster.now() + QUANTUM;
            self.run_until(cluster, deadline);
        }
        cluster.now()
    }
}

fn all_sites(cluster: &Cluster) -> Vec<SiteId> {
    cluster.sites().collect()
}

fn nothing_undecided(cluster: &Cluster, sites: &[SiteId]) -> bool {
    sites
        .iter()
        .all(|&s| !cluster.replica(s).state().has_undecided())
}

/// Transactions terminated so far at the given origins.
fn terminated(cluster: &Cluster, sites: &[SiteId]) -> u64 {
    sites
        .iter()
        .map(|&s| {
            let m = cluster.site_metrics(s);
            m.commits() + m.aborts()
        })
        .sum()
}

/// Builds the workload's cluster. `traced` turns product tracing on:
/// the ring, the streaming invariant checker, the span builder and the
/// 1 ms sampler — plus the JSONL stream on the lossy workload, the
/// configuration the experiment binaries run in.
fn build(w: &Workload, inputs: &Inputs, seed: u64, traced: bool, out_dir: &Path) -> Cluster {
    let mut net = NetworkConfig::lan();
    if let Some(bps) = w.nic_bytes_per_sec {
        net = net.with_nic_bandwidth(bps);
    }
    let mut b = Cluster::builder()
        .sites(w.sites)
        .protocol(w.protocol)
        .seed(seed ^ 0xC1A5_7E12)
        .network(net);
    if let Some(a) = w.abcast {
        b = b.abcast(a);
    }
    if let Some(window) = w.batch_window {
        b = b.batch_window(window);
    }
    if w.membership {
        b = b
            .membership(true)
            .suspect_after(SUSPECT_AFTER)
            .commit_window(COMMIT_WINDOW);
    }
    if let Some(plan) = &inputs.plan {
        b = b
            .relay(true)
            .retransmit_backoff(true)
            .fault_plan(plan.clone());
    }
    if traced {
        b = b
            .trace(bcastdb_bench::TRACE_CAPACITY)
            .metrics(SimDuration::from_millis(1));
        if w.lossy {
            b = b.trace_jsonl(out_dir.join(format!("trace-{}.jsonl", w.name)));
        }
    }
    b.build()
}

/// Closed loop: `clients_per_site` clients per site, each submitting its
/// next generated transaction the quantum after the previous terminated.
fn closed_loop(
    cx: &mut Ctx<'_>,
    cluster: &mut Cluster,
    streams: Vec<Vec<TxnSpec>>,
    clients_per_site: usize,
) {
    struct Client {
        site: SiteId,
        next: std::vec::IntoIter<TxnSpec>,
        outstanding: Option<TxnId>,
    }
    let id = cx.spans.enter("submit");
    let mut clients: Vec<Client> = streams
        .into_iter()
        .enumerate()
        .map(|(i, stream)| Client {
            site: SiteId(i / clients_per_site),
            next: stream.into_iter(),
            outstanding: None,
        })
        .collect();
    cx.log.first_submit = cluster.now();
    cx.spans.exit(id);
    let give_up = cluster.now() + CLOSED_BUDGET;
    loop {
        let id = cx.spans.enter("submit");
        let mut active = false;
        for cl in &mut clients {
            if cl
                .outstanding
                .is_some_and(|t| cluster.outcome(t) != TxnOutcome::Pending)
            {
                cl.outstanding = None;
            }
            if cl.outstanding.is_none() {
                if let Some(spec) = cl.next.next() {
                    cl.outstanding = Some(cluster.submit(cl.site, spec));
                    cx.log.submitted += 1;
                }
            }
            active |= cl.outstanding.is_some();
        }
        cx.spans.exit(id);
        if !active {
            break;
        }
        if cluster.now() >= give_up {
            cx.log.failures.push("closed loop did not drain".to_owned());
            break;
        }
        let deadline = cluster.now() + QUANTUM;
        cx.run_until(cluster, deadline);
    }
    cx.log.last_decision = cluster.now();
    // Remote replicas may still be applying the last decisions; with
    // membership off the queue drains.
    cx.run_until(cluster, give_up);
}

/// Due instant of arrival `k` at `site`: one per site per interval, the
/// sites spread evenly across the interval.
fn due(base_us: u64, k: u64, site: usize, sites: usize, interval_us: u64) -> SimTime {
    SimTime::from_micros(base_us + k * interval_us + site as u64 * interval_us / sites as u64)
}

/// The open-loop arrival schedule: per-site streams consumed in order,
/// one arrival per site per interval, each submitted at its due instant.
struct Arrivals {
    streams: Vec<std::vec::IntoIter<TxnSpec>>,
    interval_us: u64,
}

impl Arrivals {
    fn new(streams: Vec<Vec<TxnSpec>>, interval_us: u64) -> Self {
        Arrivals {
            streams: streams.into_iter().map(Vec::into_iter).collect(),
            interval_us,
        }
    }

    /// Offers `steps` intervals of arrivals at `sites` starting at
    /// `base_us`, running the simulation to the end of each interval and
    /// calling `each_step` there.
    fn offer(
        &mut self,
        cx: &mut Ctx<'_>,
        cluster: &mut Cluster,
        sites: &[SiteId],
        base_us: u64,
        steps: u64,
        mut each_step: impl FnMut(&Cluster),
    ) {
        let n = cluster.config().sites;
        for k in 0..steps {
            let id = cx.spans.enter("submit");
            for &s in sites {
                let spec = self.streams[s.0].next().expect("stream sized in setup");
                let at = due(base_us, k, s.0, n, self.interval_us);
                cluster.submit_at(at, s, spec);
                cx.log.submitted += 1;
            }
            cx.spans.exit(id);
            cx.run_until(
                cluster,
                SimTime::from_micros(base_us + (k + 1) * self.interval_us),
            );
            each_step(cluster);
        }
    }
}

/// Open loop on a fixed schedule, then a drain until every transaction has
/// terminated and no site knows of an undecided one.
fn open_loop(
    cx: &mut Ctx<'_>,
    cluster: &mut Cluster,
    streams: Vec<Vec<TxnSpec>>,
    interval_us: u64,
    duration_us: u64,
) {
    let sites = all_sites(cluster);
    let mut arrivals = Arrivals::new(streams, interval_us);
    cx.log.first_submit = SimTime::from_micros(OPEN_START_US);
    let steps = duration_us / interval_us;
    arrivals.offer(cx, cluster, &sites, OPEN_START_US, steps, |_| {});
    let submitted = cx.log.submitted;
    cx.log.last_decision = cx.run_while(cluster, "every transaction to terminate", |c| {
        terminated(c, &sites) == submitted
    });
    cx.run_while(cluster, "every site to decide", |c| {
        nothing_undecided(c, &sites)
    });
}

/// Longest run of empty commit-series buckets at the survivors between
/// two instants, in milliseconds.
fn longest_commit_gap_ms(
    cluster: &Cluster,
    survivors: &[SiteId],
    from: SimTime,
    to: SimTime,
) -> f64 {
    let window_us = COMMIT_WINDOW.as_micros();
    let (lo, hi) = (
        (from.as_micros() / window_us) as usize,
        (to.as_micros() / window_us) as usize,
    );
    let mut longest = 0usize;
    let mut run = 0usize;
    for bucket in lo..hi {
        let commits: u64 = survivors
            .iter()
            .filter_map(|&s| cluster.site_metrics(s).commit_series.as_ref())
            .map(|series| series.buckets().get(bucket).copied().unwrap_or(0))
            .sum();
        run = if commits == 0 { run + 1 } else { 0 };
        longest = longest.max(run);
    }
    longest as f64 * COMMIT_WINDOW.as_millis_f64()
}

/// Open loop through a crash: load all sites, crash the last one, keep
/// loading the survivors through the view change, pause arrivals, recover
/// the victim by state transfer at a quiet point, await its readmission,
/// then load all sites again.
fn crash_rejoin(
    cx: &mut Ctx<'_>,
    cluster: &mut Cluster,
    streams: Vec<Vec<TxnSpec>>,
    interval_us: u64,
    crash_at_us: u64,
    survivors_until_us: u64,
    tail_us: u64,
) {
    let everyone = all_sites(cluster);
    let victim = *everyone.last().expect("at least one site");
    let survivors = &everyone[..everyone.len() - 1];
    let mut arrivals = Arrivals::new(streams, interval_us);
    cx.log.first_submit = SimTime::from_micros(OPEN_START_US);

    // Everyone loaded; the victim's arrivals stop a little earlier.
    let lead_steps = (crash_at_us - VICTIM_LEAD_US) / interval_us;
    let crash_steps = crash_at_us / interval_us;
    arrivals.offer(cx, cluster, &everyone, OPEN_START_US, lead_steps, |_| {});
    let base_us = OPEN_START_US + lead_steps * interval_us;
    arrivals.offer(
        cx,
        cluster,
        survivors,
        base_us,
        crash_steps - lead_steps,
        |_| {},
    );
    let crashed_at = cluster.now();
    cluster.crash(victim);

    // Survivors stay loaded through the outage and the view change.
    let mut evicted_at = None;
    let base_us = OPEN_START_US + crash_steps * interval_us;
    let steps = (survivors_until_us - crash_at_us) / interval_us;
    arrivals.offer(cx, cluster, survivors, base_us, steps, |c| {
        if evicted_at.is_none()
            && survivors
                .iter()
                .all(|&s| !c.replica(s).view_members().contains(&victim))
        {
            evicted_at = Some(c.now());
        }
    });
    let loaded_until = cluster.now();
    match evicted_at {
        Some(at) => cx.log.evict_ms = at.saturating_since(crashed_at).as_millis_f64(),
        None => cx.log.failures.push("victim never evicted".to_owned()),
    }
    cx.log.unavail_ms = longest_commit_gap_ms(cluster, survivors, crashed_at, loaded_until);

    // Arrivals pause; recover at a quiet point.
    let from_survivors = cx.log.submitted - lead_steps; // one per step was the victim's
    cx.run_while(cluster, "the survivors to go quiet", |c| {
        terminated(c, survivors) == from_survivors && nothing_undecided(c, survivors)
    });
    // Quiet means nothing in flight either: a broadcast the donor has not
    // yet delivered would be missing from the snapshot's delivery
    // positions, and the victim would wait for it for ever.
    let settled = cluster.now() + SETTLE;
    cx.run_until(cluster, settled);
    let id = cx.spans.enter("recover");
    cluster.recover(victim, survivors[0]);
    cx.spans.exit(id);
    let recovered_at = cluster.now();
    let readmitted_at = cx.run_while(cluster, "the victim's readmission", |c| {
        everyone
            .iter()
            .all(|&s| c.replica(s).view_members().contains(&victim))
    });
    cx.log.readmit_ms = readmitted_at.saturating_since(recovered_at).as_millis_f64();

    // All five loaded again.
    let base_us = cluster.now().as_micros().div_ceil(interval_us) * interval_us;
    arrivals.offer(
        cx,
        cluster,
        &everyone,
        base_us,
        tail_us / interval_us,
        |_| {},
    );
    let submitted = cx.log.submitted;
    cx.log.last_decision = cx.run_while(cluster, "every transaction to terminate", |c| {
        terminated(c, &everyone) == submitted && nothing_undecided(c, &everyone)
    });
}

/// A violation can quote whole install orders; its first lines name it.
fn clip(msg: String) -> String {
    const KEEP: usize = 400;
    match msg.char_indices().nth(KEEP) {
        Some((at, _)) => format!("{} ...", &msg[..at]),
        None => msg,
    }
}

/// Runs one repetition. `inputs` is consumed; clone it before the call so
/// the copy stays outside the timed window.
pub fn run_rep(
    w: &Workload,
    inputs: Inputs,
    seed: u64,
    traced: bool,
    out_dir: &Path,
    spans: &mut Spans,
) -> Rep {
    let allocs_before = allocation_count();
    let started = Instant::now();
    let rep_span = spans.enter("rep");

    let mut cluster = spans.time("build", || build(w, &inputs, seed, traced, out_dir));
    let mut cx = Ctx {
        spans,
        log: DriveLog::default(),
    };
    match w.drive {
        Drive::Closed {
            clients_per_site, ..
        } => closed_loop(&mut cx, &mut cluster, inputs.streams, clients_per_site),
        Drive::Open {
            interval_us,
            duration_us,
        } => open_loop(
            &mut cx,
            &mut cluster,
            inputs.streams,
            interval_us,
            duration_us,
        ),
        Drive::CrashRejoin {
            interval_us,
            crash_at_us,
            survivors_until_us,
            tail_us,
        } => crash_rejoin(
            &mut cx,
            &mut cluster,
            inputs.streams,
            interval_us,
            crash_at_us,
            survivors_until_us,
            tail_us,
        ),
    }
    let Ctx { spans, mut log } = cx;

    // Validation: part of the repetition, as in every experiment binary.
    let metrics = spans.time("validate.terminated", || cluster.metrics());
    // Termination is counted where it was recorded, at the origin: a
    // rejoined site's decision table comes from its donor and no longer
    // knows the transactions it aborted before anyone else heard of them.
    let wedged = log
        .submitted
        .saturating_sub(metrics.commits() + metrics.aborts());
    if wedged > 0 {
        log.failures
            .push(format!("{wedged} transactions never terminated"));
    }
    let everyone = all_sites(&cluster);
    // The rejoined victim restarted from a snapshot, so its own history
    // is partial; 1SR is checked where the whole run was witnessed.
    let witnesses = if matches!(w.drive, Drive::CrashRejoin { .. }) {
        &everyone[..everyone.len() - 1]
    } else {
        &everyone[..]
    };
    if !nothing_undecided(&cluster, &everyone) {
        log.failures
            .push("a site still knows an undecided transaction".to_owned());
    }
    if !spans.time("validate.converge", || cluster.replicas_converged()) {
        log.failures.push("replicas diverged".to_owned());
    }
    if let Err(v) = spans.time("validate.sg", || {
        cluster.check_serializability_among(witnesses)
    }) {
        log.failures
            .push(clip(format!("not one-copy serializable: {v:?}")));
    }
    if traced {
        if let Err(v) = spans.time("validate.invariants", || cluster.check_trace_invariants()) {
            log.failures.push(format!("trace invariant violated: {v}"));
        }
        if let Err(e) = spans.time("trace.flush", || cluster.finish_trace_jsonl()) {
            log.failures.push(format!("trace stream: {e}"));
        }
    }
    spans.exit(rep_span);
    let wall_s = started.elapsed().as_secs_f64();
    let allocs = allocation_count() - allocs_before;

    let net = cluster.network();
    let wheel = cluster.wheel_stats();
    let scheduled = wheel.sched_near + wheel.sched_far + wheel.sched_past;
    Rep {
        wall_s,
        allocs,
        wedged,
        log,
        metrics,
        events: cluster.events_processed(),
        net: NetCounters {
            msgs: net.messages_sent(),
            bytes: net.bytes_sent(),
            dropped: net.messages_dropped(),
            duplicated: net.messages_duplicated(),
            reordered: net.messages_reordered(),
        },
        wheel_far_share: wheel.sched_far as f64 / scheduled.max(1) as f64,
        trace: (traced && spans.is_on()).then(|| trace_facts(&cluster, spans)),
        span: rep_span,
    }
}

/// Largest value any sample holds under `name`, or under `s<site>.<name>`
/// at any site.
fn sample_max(samples: &[Sample], name: &str) -> u64 {
    let matches = |key: &str| {
        key == name
            || key
                .strip_prefix('s')
                .and_then(|rest| rest.split_once('.'))
                .is_some_and(|(site, rest)| {
                    rest == name && site.bytes().all(|b| b.is_ascii_digit())
                })
    };
    samples
        .iter()
        .flat_map(|s| s.values.iter())
        .filter(|(key, _)| matches(key))
        .map(|(_, v)| *v)
        .max()
        .unwrap_or(0)
}

fn trace_facts(cluster: &Cluster, spans: &mut Spans) -> TraceFacts {
    let txn_spans = spans.time("spans.build", || cluster.txn_spans());
    let skews: Vec<f64> = txn_spans
        .values()
        .filter_map(|sp| sp.commit_skew())
        .map(|d| d.as_millis_f64())
        .collect();
    let samples = cluster.metrics_samples();
    TraceFacts {
        segments: summarize(txn_spans.values()),
        commit_skew_ms: skews.iter().sum::<f64>() / skews.len().max(1) as f64,
        trace_events: cluster.trace_evicted() + cluster.trace_events().len() as u64,
        samples: samples.len(),
        queue_depth_max: sample_max(&samples, "queue_depth"),
        backlog_us_max: sample_max(&samples, "net.backlog_us_max"),
        ring_inflight_max: sample_max(&samples, "ring.inflight"),
        lock_waiters_max: sample_max(&samples, "lock_waiters"),
        lock_keys_max: sample_max(&samples, "lock_keys"),
    }
}
