//! Deterministic allocation audit for the simulator hot path.
//!
//! The bench harness installs [`bcastdb_memprobe::CountingAllocator`] as
//! the global allocator (see `crates/bench/src/lib.rs`), and this test
//! binary links the harness, so every heap allocation in the process is
//! counted. Because the simulator is deterministic, the counts are *exact*
//! — the same run performs the same allocations every time — which makes
//! `allocs/event` a noise-free stand-in for profiling on a box with no
//! `perf`/`valgrind`. (Capturing backtraces inside the allocator is not an
//! option: it deadlocks — see `crates/memprobe/src/lib.rs`. `gprofng
//! collect app -H on` attributes allocations to call stacks from outside
//! the process; PERFORMANCE.md §5 has the recipe.)
//!
//! The test runs a t2-style crash workload once, measuring the allocation
//! delta of each phase (cluster build, simulation, verification), prints
//! the breakdown (visible with `--nocapture`), and ratchets a ceiling on
//! the simulation phase's allocs/event. The ceiling has ~25% headroom over
//! the measured value so that toolchain drift doesn't trip it, but any
//! change that reintroduces a per-event or per-message allocation on the
//! hot path (a clone per delivery, a `Vec` per fan-out, an un-pre-sized
//! ring) blows well past it.
//!
//! Everything runs inside ONE `#[test]` function: the counter is
//! process-global, so a concurrently running test would pollute the
//! deltas.

use bcastdb_bench::{check_traced_run, TRACE_CAPACITY};
use bcastdb_broadcast::batch::{WireSize, BATCH_MAX_BYTES};
use bcastdb_broadcast::{Batcher, VectorClock};
use bcastdb_core::{AbcastImpl, Cluster, ClusterBuilder, ProtocolKind};
use bcastdb_db::{Key, LockManager, LockMode, RequestOutcome, TxnId};
use bcastdb_sim::telemetry::{JsonlSink, Phase, TraceEvent, TraceSink};
use bcastdb_sim::{
    DetRng, EventKind, EventQueue, Histogram, NetworkConfig, SampleWriter, SimDuration, SimTime,
    SiteId, StatsRegistry,
};
use bcastdb_workload::WorkloadConfig;

const N: usize = 5;
const CRASH_AT_US: u64 = 200_000;
/// The 16-site ring row's ceiling: its debug measurement (0.408) plus 25%.
const RING16_CEILING: f64 = 0.51;
/// The 32-site batched ring row's ceiling: its debug measurement (1.914)
/// plus 25%.
const RING32_CEILING: f64 = 2.39;

fn allocs() -> u64 {
    bcastdb_memprobe::allocation_count()
}

/// Runs the t2 `ReliableBcast` crash scenario phase by phase and returns
/// `(phase_name, allocation_delta)` pairs plus the total event count.
fn phased_crash_run(trace: bool) -> (Vec<(&'static str, u64)>, u64) {
    let mut phases = Vec::new();
    let mut mark = allocs();
    // Settles the trace first: its consumers may run on a worker thread,
    // and what they allocate for a phase's events belongs to that phase.
    let mut phase = |name: &'static str, phases: &mut Vec<(&'static str, u64)>, c: &Cluster| {
        c.trace_evicted();
        let now = allocs();
        phases.push((name, now - mark));
        mark = now;
    };

    let mut builder = Cluster::builder()
        .sites(N)
        .protocol(ProtocolKind::ReliableBcast)
        .seed(37)
        .membership(true)
        .suspect_after(SimDuration::from_millis(60));
    if trace {
        builder = builder.trace(TRACE_CAPACITY);
    }
    let mut cluster = builder.build();
    phase("build cluster", &mut phases, &cluster);

    let cfg = WorkloadConfig {
        n_keys: 300,
        theta: 0.5,
        reads_per_txn: 1,
        writes_per_txn: 2,
        ..WorkloadConfig::default()
    };
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
    phase("generate workload", &mut phases, &cluster);

    cluster.run_until(SimTime::from_micros(CRASH_AT_US));
    phase("simulate: pre-crash", &mut phases, &cluster);

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
    }
    phase("simulate: view change", &mut phases, &cluster);

    for site in 0..N - 1 {
        let mut at = view_change_done + SimDuration::from_millis(5);
        let mut site_rng = rng.fork(100 + site as u64);
        for _ in 0..10 {
            at += SimDuration::from_millis(15);
            cluster.submit_at(at, SiteId(site), cfg.gen_txn(&zipf, &mut site_rng));
        }
    }
    cluster.run_until(view_change_done + SimDuration::from_secs(2));
    phase("simulate: post-crash", &mut phases, &cluster);

    let survivors: Vec<SiteId> = (0..N - 1).map(SiteId).collect();
    assert!(cluster.check_serializability_among(&survivors).is_ok());
    phase("check serializability", &mut phases, &cluster);

    if trace {
        check_traced_run(&cluster, "alloc audit crash run");
        phase("check traced run", &mut phases, &cluster);
    }

    (phases, cluster.events_processed())
}

/// 300 keys at θ 0.5, one read and two writes per transaction.
fn light_keys() -> WorkloadConfig {
    WorkloadConfig {
        n_keys: 300,
        theta: 0.5,
        reads_per_txn: 1,
        writes_per_txn: 2,
        ..WorkloadConfig::default()
    }
}

/// A failure-free transactional workload over `cfg`, one transaction per
/// site every `gap`, submitted and not yet run.
fn steady_cluster(
    sites: usize,
    per_site: usize,
    seed: u64,
    builder: ClusterBuilder,
    cfg: WorkloadConfig,
    gap: SimDuration,
) -> Cluster {
    let mut cluster = builder.sites(sites).seed(seed).build();
    let zipf = cfg.sampler();
    let mut rng = DetRng::new(seed * 10);
    for site in 0..sites {
        let mut at = SimTime::from_micros(1_000);
        let mut site_rng = rng.fork(site as u64);
        for _ in 0..per_site {
            at += gap;
            cluster.submit_at(at, SiteId(site), cfg.gen_txn(&zipf, &mut site_rng));
        }
    }
    cluster
}

/// Runs [`steady_cluster`] to quiescence and returns the simulation
/// phase's allocation delta plus the event count. Workload generation and
/// cluster build are excluded — only the event loop (engine dispatch, the
/// protocol's work queue, the broadcast layer, the lock table) is measured.
fn steady_run(
    sites: usize,
    per_site: usize,
    seed: u64,
    builder: ClusterBuilder,
    cfg: WorkloadConfig,
    gap: SimDuration,
) -> (u64, u64) {
    let mut cluster = steady_cluster(sites, per_site, seed, builder, cfg, gap);
    let before = allocs();
    cluster.run_to_quiescence();
    cluster.trace_evicted(); // settles the trace consumers, which may run on a worker
    let sim_allocs = allocs() - before;
    assert!(cluster.check_serializability().is_ok());
    (sim_allocs, cluster.events_processed())
}

#[test]
fn allocs_per_event_stays_bounded() {
    let (with_trace, events) = phased_crash_run(true);
    let (without_trace, events_untraced) = phased_crash_run(false);

    let total = |phases: &[(&str, u64)]| phases.iter().map(|(_, a)| a).sum::<u64>();
    eprintln!("=== alloc audit: t2 ReliableBcast crash scenario ===");
    eprintln!(
        "--- traced ({events} events, {} allocs total) ---",
        total(&with_trace)
    );
    for (name, delta) in &with_trace {
        eprintln!("{delta:>9}  {name}");
    }
    eprintln!(
        "--- untraced ({events_untraced} events, {} allocs total) ---",
        total(&without_trace)
    );
    for (name, delta) in &without_trace {
        eprintln!("{delta:>9}  {name}");
    }

    // The ratchet: allocations per simulated event across the three
    // simulation phases (excluding one-time cluster build, workload
    // generation, and post-run verification). Measured at 0.299 with
    // tracing on (1.575 before retired transactions' entries were reused
    // and the redo log became one arena, 1.503 before the event queue's
    // slots became lists in one pool, 0.891 before install orders and read
    // sets became arenas); the ceiling leaves ~25% headroom for toolchain
    // drift but not for a reintroduced per-event allocation.
    let sim_allocs: u64 = with_trace
        .iter()
        .filter(|(name, _)| name.starts_with("simulate:"))
        .map(|(_, a)| a)
        .sum();
    let per_event = sim_allocs as f64 / events as f64;
    eprintln!("simulation-phase allocs/event (traced): {per_event:.3}");
    assert!(
        per_event < 0.37,
        "simulation phases now allocate {per_event:.3} times per event \
         (ceiling 0.37) — a hot-path allocation crept back in; \
         see PERFORMANCE.md"
    );

    // Tracing must stay allocation-free per event once the ring is
    // pre-sized: the traced and untraced runs may differ by the ring
    // buffers themselves (cluster build) but not per-event. Measured at
    // 0.049; the ceiling leaves ~25% headroom.
    let sim_untraced: u64 = without_trace
        .iter()
        .filter(|(name, _)| name.starts_with("simulate:"))
        .map(|(_, a)| a)
        .sum();
    let tracing_overhead = sim_allocs.saturating_sub(sim_untraced) as f64 / events as f64;
    eprintln!("tracing alloc overhead per event: {tracing_overhead:.3}");
    assert!(
        tracing_overhead < 0.062,
        "tracing now allocates {tracing_overhead:.3} times per event during \
         simulation — the trace ring should be pre-sized at build time"
    );

    // Determinism sanity: the audit itself only makes sense if the run is
    // reproducible, which the event-count equality of two independent
    // builds (traced vs untraced differ only in observers) attests.
    assert_eq!(events, events_untraced, "tracing changed the simulation");

    // Ring-backend ratchet: the pipelined ring must not regress the
    // allocation budget. Its hot path (Data forward to successor, Commit
    // circulation, cumulative Ack, stability pruning) reuses pre-sized
    // per-site state; the pure-broadcast a1 saturation sweep runs at
    // ~0.3 allocs/event, and this 16-site *transactional* run measures
    // 0.408 in a debug build (certification and txn bookkeeping across 16
    // replicas on top of the broadcast layer; 2.7 before certification
    // read the shared request in place and clocks were shared, 1.576
    // before the ring's tables were indexed and a key's first installs
    // were held inline, 1.111 before retired transactions' entries were
    // reused and the redo log became one arena, 0.936 before the event
    // queue's slots became lists in one pool, 0.435 before install orders
    // and read sets became arenas). The ceiling leaves ~25%
    // headroom — a per-hop payload clone, a per-replica copy of the
    // request or a per-Commit Vec blows past it.
    let ring = Cluster::builder()
        .protocol(ProtocolKind::AtomicBcast)
        .abcast(AbcastImpl::Ring);
    let gap = SimDuration::from_millis(10);
    let (ring_allocs, ring_events) = steady_run(16, 8, 91, ring, light_keys(), gap);
    let ring_per_event = ring_allocs as f64 / ring_events as f64;
    eprintln!(
        "ring backend (16 sites): {ring_allocs} allocs / {ring_events} events \
         = {ring_per_event:.3} allocs/event"
    );
    assert!(
        ring_per_event < RING16_CEILING,
        "ring backend now allocates {ring_per_event:.3} times per event \
         (ceiling {RING16_CEILING}) — a hot-path allocation crept into the ring \
         pipeline; see PERFORMANCE.md"
    );

    // The same at `wide_ring`'s shape: 32 sites, 5 000 keys at θ 0.3, two
    // reads and two writes, a 500 µs batch window and 2 MB/s NICs, where
    // every hop goes through the batcher and the ring's per-origin tables
    // and every replica installs each key's writes. Measured at 1.914 in a
    // debug build (4.677 with B-tree tables, a batcher map rebuilt every
    // window and a vector per installed key; 3.169 before delivered
    // envelopes' vectors carried the next batches, retired transactions'
    // entries were reused and the redo log became one arena; 2.420 before
    // the event queue's slots became lists in one pool; 1.927 before
    // install orders and read sets became arenas).
    let wide = Cluster::builder()
        .protocol(ProtocolKind::AtomicBcast)
        .abcast(AbcastImpl::Ring)
        .batch_window(SimDuration::from_micros(500))
        .network(NetworkConfig::lan().with_nic_bandwidth(2_000_000));
    let wide_keys = WorkloadConfig {
        n_keys: 5_000,
        theta: 0.3,
        reads_per_txn: 2,
        writes_per_txn: 2,
        ..WorkloadConfig::default()
    };
    let (wide_allocs, wide_events) = steady_run(32, 4, 91, wide, wide_keys, gap);
    let wide_per_event = wide_allocs as f64 / wide_events as f64;
    eprintln!(
        "ring backend (32 sites, batched, 2 MB/s): {wide_allocs} allocs / {wide_events} events \
         = {wide_per_event:.3} allocs/event"
    );
    assert!(
        wide_per_event < RING32_CEILING,
        "the 32-site batched ring now allocates {wide_per_event:.3} times per event \
         (ceiling {RING32_CEILING}) — a per-hop table node, a per-window batcher \
         map or a per-key install vector crept back; see PERFORMANCE.md"
    );

    // Baseline and P-CB ratchets: every entry point of every protocol runs
    // through the driver's one recycled work queue (the baseline used to
    // build a fresh queue per delivered message — that drift is what these
    // rows catch: it ran at 2.71 here). Measured at 1.84 and 3.47
    // allocs/event on this 5-site run in a debug build, where P-CB also
    // feeds its full-scan oracle (P-CB was 5.72 before a wire's clock was
    // shared by every destination); the ceilings leave ~25% headroom. The
    // per-transaction lock index took them to 1.55 and 2.87; the indexed
    // live-transaction table and its inline vote sets to 1.27 and 2.25;
    // reused entries and the one-arena redo log to 1.138 and 1.902; the
    // event queue's one pool of cells to 0.450 and 1.335; recycled
    // broadcast payloads, conflict-index vectors and lock-table entries and
    // bitset NACK sets took P-CB to 1.017 (the baseline's ceiling stays);
    // install orders and read sets in arenas to 0.421 and 0.942.
    for (protocol, ceiling) in [
        (ProtocolKind::PointToPoint, 0.53),
        (ProtocolKind::CausalBcast, 1.18),
    ] {
        let builder = Cluster::builder().protocol(protocol);
        let (allocs, events) = steady_run(N, 10, 53, builder, light_keys(), gap);
        let per_event = allocs as f64 / events as f64;
        eprintln!(
            "{protocol} (5 sites): {allocs} allocs / {events} events = {per_event:.3} allocs/event"
        );
        assert!(
            per_event < ceiling,
            "{protocol} now allocates {per_event:.3} times per event (ceiling \
             {ceiling}) — a per-message allocation crept into the protocol's \
             hot path; see PERFORMANCE.md"
        );
    }

    // P-RB under contention: the repo benchmark's `contended` shape (50 hot
    // keys at θ 0.9, one read and two writes, 10% read-only) at one
    // transaction per site per millisecond. Every blocked request asks the
    // lock table whether it closed a waits-for cycle; the table answers
    // from the new waiter's own locks and rebuilds the whole graph only
    // when a cycle may already exist, and a release walks the transaction's
    // own keys, in an index whose storage is reused. Measured at 1.51
    // allocs/event in a debug build (3.98 before, when every blocked
    // request rebuilt the graph and every release swept the table), 1.27
    // since a transaction's votes are a bitset and the reliable engine
    // delivers in-order wires without its holdback, 0.907 since retired
    // transactions' entries are reused and the redo log is one arena, 0.488
    // since the event queue's slots are lists in one pool, 0.267 since
    // broadcast payloads and lock-table entries are recycled, 0.183 since
    // install orders and read sets are arenas; the ceiling leaves ~25%
    // headroom. A per-transaction allocation in the lock
    // table is too small to trip it here; the lock-manager row below
    // catches one exactly.
    let hot = WorkloadConfig {
        n_keys: 50,
        theta: 0.9,
        reads_per_txn: 1,
        writes_per_txn: 2,
        reads_per_ro_txn: 4,
        readonly_fraction: 0.1,
    };
    let rb = Cluster::builder().protocol(ProtocolKind::ReliableBcast);
    let (hot_allocs, hot_events) = steady_run(N, 60, 29, rb, hot, SimDuration::from_millis(1));
    let per_event = hot_allocs as f64 / hot_events as f64;
    eprintln!(
        "reliable, 50 hot keys (5 sites): {hot_allocs} allocs / {hot_events} events \
         = {per_event:.3} allocs/event"
    );
    assert!(
        per_event < 0.23,
        "P-RB under contention now allocates {per_event:.3} times per event (ceiling \
         0.23) — a per-blocked-request graph rebuild crept back into the lock \
         table; see PERFORMANCE.md"
    );

    // Product-tracing ratchet: P-RB with everything the experiments and
    // `lossy_traced` turn on (the ring, the invariant checker, `SpanBuilder`,
    // the 1 ms sampler and the JSONL stream, written to a file that
    // discards). Measured at 1.94 allocs/event in a debug build, against
    // 1.82 untraced (6.10 when every event was cloned into the ring and every
    // sample was a map of owned names), 1.49 since a transaction's votes
    // are a bitset and in-order wires skip the reliable engine's holdback,
    // 1.233 since retired transactions' entries are reused and the redo log
    // is one arena, 0.664 since the event queue's slots are lists in one
    // pool, 0.461 since broadcast payloads and lock-table entries are
    // recycled, 0.404 since install orders and read sets are arenas, 0.415
    // (697 -> 685 allocations) since a traced abort's reason borrows its
    // counter name instead of building a `String`; the ceiling is that last
    // figure plus the benchmark's 5% bound.
    let traced = Cluster::builder()
        .protocol(ProtocolKind::ReliableBcast)
        .trace(TRACE_CAPACITY)
        .metrics(SimDuration::from_millis(1))
        .trace_jsonl("/dev/null");
    let (traced_allocs, traced_events) = steady_run(N, 10, 53, traced, light_keys(), gap);
    let per_event = traced_allocs as f64 / traced_events as f64;
    eprintln!(
        "reliable, traced + sampled + JSONL (5 sites): {traced_allocs} allocs / \
         {traced_events} events = {per_event:.3} allocs/event"
    );
    assert!(
        per_event < 0.436,
        "product tracing now allocates {per_event:.3} times per event (ceiling \
         0.436) — an event clone, a per-sample map or a per-line buffer \
         crept back into the trace and metrics sinks; see PERFORMANCE.md"
    );

    // Sampler ratchet: once the series repeat, a sample stores its values
    // and nothing else, so 1 000 warm samples of 11 series, plus one
    // cluster-wide sum and one histogram that every site adds its share to,
    // allocate only when the registry's row vector doubles: at most 14
    // times on the way to 18 000 cells (10 measured).
    let mut registry = StatsRegistry::new(SimDuration::from_millis(1));
    let mut writer = SampleWriter::default();
    let mut flush = Histogram::default();
    flush.record(3);
    flush.record(40);
    let sample = |at: u64, w: &mut SampleWriter, registry: &mut StatsRegistry| {
        w.set("queue_depth", at);
        for site in 0..N {
            w.set_site(SiteId(site), "lock_waiters", at);
            w.set_site(SiteId(site), "core.remote_live", at);
            w.add("cb.decide_peers_examined", at);
            w.add_hist("batch.flush_msgs", &flush);
        }
        registry.commit_sample(SimTime::from_micros(at), w);
    };
    sample(0, &mut writer, &mut registry);
    let before = allocs();
    for at in 1..=1_000 {
        sample(at, &mut writer, &mut registry);
    }
    let sample_allocs = allocs() - before;
    eprintln!(
        "sampler: {sample_allocs} allocs in 1000 warm samples of 11 series, a sum and a histogram"
    );
    assert!(
        sample_allocs <= 14,
        "1000 warm samples allocate {sample_allocs} times, more than the row \
         vector's doublings — a sample with unchanged series allocates again"
    );
    let samples = registry.samples();
    assert_eq!(samples.len(), 1_001);
    assert_eq!(
        samples[1_000].values["cb.decide_peers_examined"],
        N as u64 * 1_000
    );
    assert_eq!(samples[1_000].hists["batch.flush_msgs"], [(2, 5), (6, 5)]);

    // JSONL ratchet: encoding goes into the sink's one block, which its
    // writer receives whole, so recording allocates nothing.
    let mut jsonl = JsonlSink::new(std::io::sink());
    let send = |at: u64| TraceEvent::Send {
        at: SimTime::from_micros(at),
        from: SiteId(0),
        to: SiteId(1),
        phase: Phase::Prepare,
    };
    jsonl.record(send(0));
    let before = allocs();
    for at in 1..10_000 {
        jsonl.record(send(at));
    }
    let jsonl_allocs = allocs() - before;
    eprintln!("JSONL sink: {jsonl_allocs} allocs in 9999 records across 8 blocks");
    assert_eq!(jsonl_allocs, 0, "recording a trace line allocates again");
    assert_eq!(jsonl.lines(), 10_000);

    // Lock-manager ratchet: once warm, a cycle of request, conflicting
    // request + enqueue + deadlock check, and release over the same keys
    // allocates nothing — blockers and grants are inline, and the index
    // and the table entries keep their storage.
    let keys: Vec<Key> = (0..4).map(|i| Key::new(format!("audit{i}"))).collect();
    let mut lm = LockManager::new();
    let lock_round = |lm: &mut LockManager, round: u64| {
        let (a, b) = (TxnId::new(SiteId(0), round), TxnId::new(SiteId(1), round));
        for key in &keys {
            assert_eq!(
                lm.request(a, key, LockMode::Exclusive),
                RequestOutcome::Granted
            );
            assert!(lm.request(b, key, LockMode::Shared) != RequestOutcome::Granted);
            lm.enqueue(b, key, LockMode::Shared, u64::MAX);
            assert_eq!(lm.check_deadlock(), None);
        }
        assert_eq!(lm.release_all(a).len(), keys.len());
        assert!(lm.release_all(b).is_empty());
    };
    lock_round(&mut lm, 0);
    let before = allocs();
    for round in 1..1_000 {
        lock_round(&mut lm, round);
    }
    let lock_allocs = allocs() - before;
    eprintln!("lock manager: {lock_allocs} allocs in 999 warm request/enqueue/release rounds");
    assert_eq!(lock_allocs, 0, "a warm lock-table round allocates again");

    // Batcher ratchet: once warm, a window of eight messages to each of 31
    // destinations and its flush allocate nothing when the batches' vectors
    // come back, as a delivered envelope's do: the slots, the spares and
    // the flush buffer keep their storage (one vector per batch handed out
    // before the vectors came back).
    struct Hop(#[allow(dead_code)] u64);
    impl WireSize for Hop {
        fn wire_size(&self) -> usize {
            64
        }
    }
    let mut batcher: Batcher<Hop> = Batcher::new(BATCH_MAX_BYTES);
    let mut flushed = Vec::new();
    let mut window = |batcher: &mut Batcher<Hop>| {
        for i in 0..31 * 8 {
            assert!(
                batcher.push(SiteId(i % 31), Hop(i as u64)).is_none(),
                "under the cap"
            );
        }
        batcher.flush_into(&mut flushed);
        let batches = flushed.len() as u64;
        for batch in flushed.drain(..) {
            batcher.recycle(batch.msgs);
        }
        batches
    };
    window(&mut batcher);
    let before = allocs();
    let handed_out: u64 = (0..1_000).map(|_| window(&mut batcher)).sum();
    let batcher_allocs = allocs() - before;
    eprintln!("batcher: {batcher_allocs} allocs in 1000 warm windows of {handed_out} batches");
    assert_eq!(handed_out, 31_000);
    assert_eq!(
        batcher_allocs, 0,
        "a warm batcher window allocates again though its vectors came back"
    );

    // Event-queue ratchet: the wheel's slots and the ready list are lists of
    // cells in one pool, so a queue sized for its pending events allocates
    // nothing from its first event on: not for a slot's first event (each
    // slot had a vector of its own), not for a same-instant burst, and not
    // when a far event joins a wheel slot. Two spins of three revolutions
    // each, at most 202 events pending; every 16th event goes to the
    // instant of the one before it.
    let at = SimTime::from_micros;
    let deliver = |msg: u64| EventKind::Deliver {
        from: SiteId(0),
        to: SiteId(1),
        msg,
    };
    let mut queue: EventQueue<u64, ()> = EventQueue::with_capacity(256);
    let mut now = 0;
    let mut spin = |queue: &mut EventQueue<u64, ()>| {
        let (end, far) = (now + 3 * 8_192, now + 10_000);
        queue.schedule(at(far), deliver(0));
        for i in 1..200 {
            queue.schedule(at(now + i * 10), deliver(i));
        }
        let (mut last, mut joined, mut popped) = (0, false, 0);
        while let Some(e) = queue.pop() {
            now = e.time.as_micros();
            popped += 1;
            if now >= end {
                continue;
            }
            let t = if !joined && now < far && far - now < 8_192 {
                joined = true;
                far
            } else if popped % 16 == 0 {
                last.max(now)
            } else {
                now + 500 + popped * 37 % 1_500
            };
            queue.schedule(at(t), deliver(popped));
            last = t;
        }
        assert!(joined, "a wheel event joined the far one");
        popped
    };
    let before = allocs();
    let popped = spin(&mut queue) + spin(&mut queue);
    let queue_allocs = allocs() - before;
    eprintln!("event queue: {queue_allocs} allocs in {popped} pops over six revolutions");
    assert_eq!(queue.wheel_stats().sched_far, 2);
    assert_eq!(
        queue_allocs, 0,
        "a pre-sized event queue allocates again: a slot, the ready list or a \
         far/wheel merge keeps storage of its own"
    );

    // Clock ratchets, at the narrow and the wide ring's width: an owner's
    // working clock is overwritten and merged in place (the causal
    // protocol's snapshot per broadcast), and a clone of a snapshot (a
    // wire's copy per destination) shares its buffer.
    for n in [5, 32] {
        let (mut a, mut b, mut m) = (
            VectorClock::new(n),
            VectorClock::new(n),
            VectorClock::new(n),
        );
        for i in 0..n {
            a.set(SiteId(i), i as u64 * 7);
            b.set(SiteId(i), i as u64 * 5 + 3);
        }
        let snapshot = a.clone();
        let before = allocs();
        for _ in 0..1_000 {
            m.copy_from(&a);
            m.merge(&b);
            drop(snapshot.clone());
        }
        let clock_allocs = allocs() - before;
        eprintln!(
            "vector clock (n = {n}): {clock_allocs} allocs in 1000 copy_from + merge + clone"
        );
        assert_eq!(m.get(SiteId(n - 1)), (n as u64 - 1) * 7);
        assert_eq!(
            clock_allocs, 0,
            "an owned clock's copy_from/merge or a snapshot's clone allocates again"
        );
    }

    // Check-phase ratchet: the 1SR check borrows the sites' commit
    // records and stores and works on flat arrays sized once, so what it
    // allocates is a few dozen tables per check, not a set and a list per
    // transaction plus a copy of every read and write set (3+ per
    // committed transaction before). And since nothing in it walks a
    // randomly seeded map to decide what to allocate, a second check of
    // the same history allocates exactly what the first did — which is
    // what lets `allocs_per_txn` in the repo benchmark repeat exactly.
    let rb = Cluster::builder().protocol(ProtocolKind::ReliableBcast);
    let mut cluster = steady_cluster(N, 400, 71, rb, light_keys(), gap);
    cluster.run_to_quiescence();
    let commits = cluster.metrics().commits();
    let checks: Vec<u64> = (0..2)
        .map(|_| {
            let before = allocs();
            assert!(cluster.check_serializability().is_ok());
            allocs() - before
        })
        .collect();
    // Measured at 0.0189, and at 0.0194 once it groups each site's install
    // arena by key in reused storage; the ceiling leaves ~25% headroom.
    let per_commit = checks[0] as f64 / commits as f64;
    eprintln!(
        "1SR check: {} allocs / {commits} commits = {per_commit:.4} allocs/commit",
        checks[0]
    );
    assert!(commits >= 1_000, "most of the 2000 transactions commit");
    assert_eq!(checks[0], checks[1], "two checks of one history");
    assert!(
        per_commit <= 0.024,
        "the 1SR check now allocates {per_commit:.3} times per committed \
         transaction (ceiling 0.024) — a per-transaction or per-read copy \
         crept back into the checker; see PERFORMANCE.md"
    );
}
