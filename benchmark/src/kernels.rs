//! Isolated layer kernels: each drives one public type alone, over a fixed
//! and asserted amount of work shaped like the workloads' own traffic
//! (N=5 and N=32 groups, 500-key and 50-key lock streams, LAN-shaped
//! event-time deltas, the fault plan on and off). `kernel.*` times the
//! run's public counters give an estimated busy time per layer.

use crate::spans::Spans;
use crate::workloads::lossy_plan;
use bcastdb_broadcast::atomic::{AtomicBcast, SequencerAbcast};
use bcastdb_broadcast::batch::WireSize;
use bcastdb_broadcast::msg::dest_iter;
use bcastdb_broadcast::{Batcher, CausalBcast, ReliableBcast, RingAbcast, VectorClock};
use bcastdb_core::{Cluster, ProtocolKind};
use bcastdb_db::lock::LockMode;
use bcastdb_db::{HistoryRecorder, Key, LockManager, RedoLog, RequestOutcome, Store};
use bcastdb_db::{TxnId, WriteOp};
use bcastdb_sim::telemetry::{TraceEvent, TraceInvariants};
use bcastdb_sim::{DetRng, EventKind, EventQueue, Network, NetworkConfig};
use bcastdb_sim::{SimDuration, SimTime, SiteId};
use bcastdb_workload::{WorkloadConfig, Zipf};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Times each kernel is run; the median is reported.
const ROUNDS: usize = 3;
const KERNEL_SEED: u64 = 0x6b65_726e;

/// Runs `round` [`ROUNDS`] times inside a span called `name`. Each round
/// returns `(seconds, operations)`; the result is the median nanoseconds
/// per operation.
fn kernel(spans: &mut Spans, name: &'static str, mut round: impl FnMut() -> (f64, u64)) -> f64 {
    let id = spans.enter(name);
    let mut per_op: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (secs, ops) = round();
            secs * 1e9 / ops as f64
        })
        .collect();
    spans.exit(id);
    per_op.sort_by(f64::total_cmp);
    per_op[ROUNDS / 2]
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

fn key_stream(n_keys: usize, theta: f64, len: usize) -> Vec<Key> {
    let zipf = Zipf::new(n_keys, theta);
    let mut rng = DetRng::new(KERNEL_SEED);
    (0..len)
        .map(|_| WorkloadConfig::key(zipf.sample(&mut rng)))
        .collect()
}

/// Event queue under the hold model: a standing population of events,
/// each pop scheduling one successor a LAN latency ahead.
fn event_queue(spans: &mut Spans) -> f64 {
    const DEPTH: u64 = 2_000;
    const OPS: u64 = 200_000;
    let lan = NetworkConfig::lan();
    let mut rng = DetRng::new(KERNEL_SEED);
    let deltas: Vec<SimDuration> = (0..OPS + DEPTH)
        .map(|_| lan.latency.sample(&mut rng) + lan.send_overhead)
        .collect();
    kernel(spans, "kernel.event_queue", || {
        let mut q: EventQueue<u64, ()> = EventQueue::with_capacity(DEPTH as usize);
        let deliver = |i: u64| EventKind::Deliver {
            from: SiteId(0),
            to: SiteId((i % 5) as usize),
            msg: i,
        };
        for i in 0..DEPTH {
            q.schedule(SimTime::ZERO + deltas[i as usize], deliver(i));
        }
        let (secs, popped) = timed(|| {
            let mut popped = 0u64;
            for i in 0..OPS {
                let ev = q.pop().expect("standing population");
                popped += 1;
                q.schedule(ev.time + deltas[(DEPTH + i) as usize], deliver(i));
            }
            popped
        });
        assert_eq!((popped, q.len() as u64), (OPS, DEPTH));
        (secs, OPS)
    })
}

/// `Network::transit` on LAN links, with and without the fault plan of
/// the lossy workload installed.
fn net_transit(spans: &mut Spans, name: &'static str, faulty: bool) -> f64 {
    const OPS: u64 = 200_000;
    const SITES: usize = 4;
    const HORIZON_US: u64 = 4_000_000; // the lossy workload's arrivals
    kernel(spans, name, || {
        let mut net = Network::new(NetworkConfig::lan());
        if faulty {
            net.install_fault_plan(lossy_plan());
        }
        let mut rng = DetRng::new(KERNEL_SEED);
        let (secs, ()) = timed(|| {
            for i in 0..OPS {
                let now = SimTime::from_micros(i * (HORIZON_US / OPS));
                let from = SiteId((i % SITES as u64) as usize);
                let to = SiteId(((i + 1 + i / SITES as u64) % SITES as u64) as usize);
                black_box(net.transit(now, from, to, 64, &mut rng));
            }
        });
        assert_eq!(net.messages_sent() + net.messages_dropped(), OPS);
        assert_eq!(net.messages_dropped() > 0, faulty);
        (secs, OPS)
    })
}

/// Drives `n` reliable or causal engines over an in-memory wire until
/// quiet; returns the number of deliveries.
macro_rules! drive_bcast {
    ($engines:expr, $msgs:expr) => {{
        let engines = &mut $engines;
        let n = engines.len();
        let mut wires = VecDeque::new();
        let mut delivered = 0u64;
        for m in 0..$msgs {
            let origin = SiteId(m as usize % n);
            let (_, out) = engines[origin.0].broadcast(m);
            delivered += out.deliveries.len() as u64;
            for ob in out.outbound {
                for to in dest_iter(ob.dest, origin, n) {
                    wires.push_back((origin, to, ob.wire.clone()));
                }
            }
        }
        while let Some((from, to, wire)) = wires.pop_front() {
            delivered += engines[to.0].on_wire(from, wire).deliveries.len() as u64;
        }
        delivered
    }};
}

fn drive_abcast<A: AtomicBcast<u64>>(engines: &mut [A], msgs: u64) -> u64 {
    let n = engines.len();
    let mut wires = VecDeque::new();
    let mut delivered = 0u64;
    let route = |wires: &mut VecDeque<_>,
                 at: SiteId,
                 out: bcastdb_broadcast::atomic::Output<u64, A::Wire>| {
        for ob in out.outbound {
            for to in dest_iter(ob.dest, at, n) {
                wires.push_back((at, to, ob.wire.clone()));
            }
        }
        out.deliveries.len() as u64
    };
    for m in 0..msgs {
        let origin = SiteId(m as usize % n);
        let (_, out) = engines[origin.0].broadcast(m);
        delivered += route(&mut wires, origin, out);
    }
    while let Some((from, to, wire)) = wires.pop_front() {
        let out = engines[to.0].on_wire(from, wire);
        delivered += route(&mut wires, to, out);
    }
    delivered
}

fn rbcast(spans: &mut Spans) -> f64 {
    const N: usize = 5;
    const MSGS: u64 = 20_000;
    kernel(spans, "kernel.rbcast", || {
        let mut engines: Vec<ReliableBcast<u64>> = (0..N)
            .map(|i| ReliableBcast::new(SiteId(i), N).without_archive())
            .collect();
        let (secs, delivered) = timed(|| drive_bcast!(engines, MSGS));
        assert_eq!(delivered, MSGS * N as u64);
        (secs, delivered)
    })
}

fn cbcast(spans: &mut Spans) -> f64 {
    const N: usize = 5;
    const MSGS: u64 = 20_000;
    kernel(spans, "kernel.cbcast", || {
        let mut engines: Vec<CausalBcast<u64>> = (0..N)
            .map(|i| CausalBcast::new(SiteId(i), N).without_archive())
            .collect();
        let (secs, delivered) = timed(|| drive_bcast!(engines, MSGS));
        assert_eq!(delivered, MSGS * N as u64);
        (secs, delivered)
    })
}

fn seq_abcast(spans: &mut Spans) -> f64 {
    const N: usize = 5;
    const MSGS: u64 = 20_000;
    kernel(spans, "kernel.seq_abcast", || {
        let mut engines: Vec<SequencerAbcast<u64>> =
            (0..N).map(|i| SequencerAbcast::new(SiteId(i), N)).collect();
        let (secs, delivered) = timed(|| drive_abcast(&mut engines, MSGS));
        assert_eq!(delivered, MSGS * N as u64);
        (secs, delivered)
    })
}

fn ring_abcast(spans: &mut Spans) -> f64 {
    const N: usize = 32;
    const MSGS: u64 = 3_200;
    kernel(spans, "kernel.ring_abcast", || {
        let mut engines: Vec<RingAbcast<u64>> =
            (0..N).map(|i| RingAbcast::new(SiteId(i), N)).collect();
        let (secs, delivered) = timed(|| drive_abcast(&mut engines, MSGS));
        assert_eq!(delivered, MSGS * N as u64);
        (secs, delivered)
    })
}

fn vclock_merge(spans: &mut Spans, name: &'static str, n: usize) -> f64 {
    const OPS: u64 = 1_000_000;
    let mut a = VectorClock::new(n);
    let mut b = VectorClock::new(n);
    for i in 0..n {
        a.set(SiteId(i), (i * 7) as u64);
        b.set(SiteId(i), (i * 5 + 3) as u64);
    }
    kernel(spans, name, || {
        let mut m = VectorClock::new(n);
        let (secs, ()) = timed(|| {
            for _ in 0..OPS {
                m.copy_from(black_box(&a));
                m.merge(black_box(&b));
                black_box(&m);
            }
        });
        assert_eq!(m.get(SiteId(n - 1)), ((n - 1) * 7) as u64);
        (secs, OPS)
    })
}

struct Wire64(#[allow(dead_code)] u64);

impl WireSize for Wire64 {
    fn wire_size(&self) -> usize {
        64
    }
}

/// `Batcher` at the wide ring's fan-out: 31 destinations, a flush every
/// eight messages per destination.
fn batcher(spans: &mut Spans) -> f64 {
    const DESTS: u64 = 31;
    const PER_FLUSH: u64 = 8;
    const FLUSHES: u64 = 800;
    kernel(spans, "kernel.batcher", || {
        let mut b: Batcher<Wire64> = Batcher::new(64 * 1024);
        let (secs, flushed) = timed(|| {
            let mut flushed = 0u64;
            for f in 0..FLUSHES {
                for i in 0..DESTS * PER_FLUSH {
                    let full = b.push(SiteId((i % DESTS) as usize), Wire64(f + i));
                    assert!(full.is_none(), "cap is above one window's traffic");
                }
                for batch in b.flush_all() {
                    flushed += black_box(&batch).msgs.len() as u64;
                }
            }
            flushed
        });
        assert_eq!(flushed, FLUSHES * DESTS * PER_FLUSH);
        (secs, flushed)
    })
}

/// Strict-2PL grant and release with twenty transactions in flight over
/// the steady workloads' 500-key stream: two shared and two exclusive
/// requests each, released when the transaction twenty places on starts.
fn lock_grant_release(spans: &mut Spans) -> f64 {
    const TXNS: u64 = 20_000;
    const IN_FLIGHT: u64 = 20;
    let keys = key_stream(500, 0.8, TXNS as usize * 4);
    kernel(spans, "kernel.lock_grant_release", || {
        let mut lm = LockManager::new();
        let (secs, answered) = timed(|| {
            let mut answered = 0u64;
            for t in 0..TXNS {
                let txn = TxnId::new(SiteId(0), t);
                for (j, key) in keys[t as usize * 4..][..4].iter().enumerate() {
                    let mode = if j < 2 {
                        LockMode::Shared
                    } else {
                        LockMode::Exclusive
                    };
                    match lm.request(txn, key, mode) {
                        RequestOutcome::Granted | RequestOutcome::Conflict { .. } => answered += 1,
                    }
                }
                if t >= IN_FLIGHT {
                    lm.release_all(TxnId::new(SiteId(0), t - IN_FLIGHT));
                }
            }
            answered
        });
        assert_eq!(answered, TXNS * 4);
        (secs, answered)
    })
}

/// Queue drain on the contended workload's 50 keys: one holder and nine
/// ranked waiters per key, released in rank order.
fn lock_contended_drain(spans: &mut Spans) -> f64 {
    const KEYS: u64 = 50;
    const WAITERS: u64 = 9;
    const REPEATS: u64 = 20;
    let keys: Vec<Key> = (0..KEYS as usize).map(WorkloadConfig::key).collect();
    kernel(spans, "kernel.lock_contended_drain", || {
        let mut secs = 0.0;
        let mut granted = 0u64;
        for _ in 0..REPEATS {
            let mut lm = LockManager::new();
            for (k, key) in keys.iter().enumerate() {
                let txn = |i: u64| TxnId::new(SiteId(k % 5), k as u64 * (WAITERS + 1) + i);
                lm.request(txn(0), key, LockMode::Exclusive);
                for i in 1..=WAITERS {
                    lm.enqueue(txn(i), key, LockMode::Exclusive, i);
                }
            }
            let (s, g) = timed(|| {
                let mut g = 0u64;
                for k in 0..keys.len() {
                    for i in 0..=WAITERS {
                        let txn = TxnId::new(SiteId(k % 5), k as u64 * (WAITERS + 1) + i);
                        g += lm.release_all(txn).len() as u64;
                    }
                }
                g
            });
            secs += s;
            granted += g;
            assert_eq!(lm.active_keys(), 0);
        }
        assert_eq!(granted, REPEATS * KEYS * WAITERS);
        (secs, granted)
    })
}

fn write_sets(keys: &[Key]) -> Vec<Vec<WriteOp>> {
    keys.chunks(2)
        .enumerate()
        .map(|(i, pair)| {
            pair.iter()
                .map(|key| WriteOp {
                    key: key.clone(),
                    value: i as i64,
                })
                .collect()
        })
        .collect()
}

fn store_apply(spans: &mut Spans) -> f64 {
    const TXNS: usize = 100_000;
    let writes = write_sets(&key_stream(500, 0.8, TXNS * 2));
    kernel(spans, "kernel.store_apply", || {
        let mut store = Store::new();
        let (secs, ()) = timed(|| {
            for (i, w) in writes.iter().enumerate() {
                store.apply(TxnId::new(SiteId(i % 5), i as u64), w);
            }
        });
        assert_eq!(store.applied_writes(), TXNS as u64 * 2);
        (secs, TXNS as u64)
    })
}

fn store_read(spans: &mut Spans) -> f64 {
    const READS: usize = 400_000;
    let keys = key_stream(2_000, 0.8, READS);
    let mut store = Store::new();
    for (i, w) in write_sets(&keys[..4_000]).iter().enumerate() {
        store.apply(TxnId::new(SiteId(0), i as u64), w);
    }
    kernel(spans, "kernel.store_read", || {
        let (secs, written) = timed(|| {
            keys.iter()
                .filter(|k| black_box(store.read(k)).writer.is_some())
                .count()
        });
        assert!(written > 0 && written <= READS);
        (secs, READS as u64)
    })
}

fn redo_log_append(spans: &mut Spans) -> f64 {
    const TXNS: usize = 100_000;
    let writes = write_sets(&key_stream(500, 0.8, TXNS * 2));
    kernel(spans, "kernel.redo_log_append", || {
        let mut log = RedoLog::new();
        let (secs, ()) = timed(|| {
            for (i, w) in writes.iter().enumerate() {
                log.log_commit(TxnId::new(SiteId(i % 5), i as u64), w.clone());
            }
        });
        assert_eq!(log.len(), TXNS);
        (secs, TXNS as u64)
    })
}

/// The one-copy serialization-graph check over a serial 2r2w history
/// installed at five replicas. Reported in microseconds per transaction.
fn sg_check(spans: &mut Spans) -> f64 {
    const TXNS: usize = 20_000;
    const SITES: usize = 5;
    let shape = WorkloadConfig {
        n_keys: 500,
        ..WorkloadConfig::default()
    };
    let zipf = shape.sampler();
    let mut rng = DetRng::new(KERNEL_SEED);
    let mut store = Store::new();
    let mut history = HistoryRecorder::new();
    for i in 0..TXNS {
        let txn = TxnId::new(SiteId(i % SITES), i as u64);
        let spec = shape.gen_txn(&zipf, &mut rng);
        let reads = spec
            .reads()
            .iter()
            .map(|k| (k.clone(), store.read(k).writer))
            .collect();
        store.apply(txn, spec.writes());
        history.record_commit(txn, reads, spec.writes().to_vec());
    }
    for s in 0..SITES {
        history.record_site_order(SiteId(s), &store);
    }
    assert_eq!(history.committed_count(), TXNS);
    let ns = kernel(spans, "kernel.sg_check", || {
        let (secs, verdict) = timed(|| history.check());
        assert!(verdict.is_ok(), "a serial history is 1SR");
        (secs, TXNS as u64)
    });
    ns / 1e3
}

/// A complete product trace of a small P-RB run, for the telemetry
/// kernels to replay.
fn sample_trace() -> Vec<TraceEvent> {
    const CAPACITY: usize = 1 << 20;
    let shape = WorkloadConfig {
        n_keys: 500,
        ..WorkloadConfig::default()
    };
    let zipf = shape.sampler();
    let mut rng = DetRng::new(KERNEL_SEED);
    let mut cluster = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::ReliableBcast)
        .seed(KERNEL_SEED)
        .trace(CAPACITY)
        .build();
    for k in 0..100u64 {
        for s in 0..5 {
            let at = SimTime::from_micros(1_000 + k * 2_000 + s as u64 * 400);
            cluster.submit_at(at, SiteId(s), shape.gen_txn(&zipf, &mut rng));
        }
    }
    cluster.run_to_quiescence();
    assert_eq!(cluster.trace_evicted(), 0, "the ring holds the whole trace");
    cluster.trace_events()
}

fn trace_encode(spans: &mut Spans, trace: &[TraceEvent]) -> f64 {
    const REPEATS: u64 = 10;
    kernel(spans, "kernel.trace_encode", || {
        let (secs, bytes) = timed(|| {
            let mut bytes = 0usize;
            for _ in 0..REPEATS {
                for ev in trace {
                    bytes += black_box(ev.to_jsonl()).len();
                }
            }
            bytes
        });
        assert!(bytes > trace.len());
        (secs, REPEATS * trace.len() as u64)
    })
}

fn trace_invariants(spans: &mut Spans, trace: &[TraceEvent]) -> f64 {
    const REPEATS: u64 = 10;
    kernel(spans, "kernel.trace_invariants", || {
        let mut secs = 0.0;
        for _ in 0..REPEATS {
            let mut inv = TraceInvariants::new();
            let (s, ()) = timed(|| {
                for ev in trace {
                    inv.ingest(ev);
                }
            });
            secs += s;
            assert_eq!(inv.events(), trace.len() as u64);
            assert!(inv.check().is_ok());
        }
        (secs, REPEATS * trace.len() as u64)
    })
}

fn zipf_sample(spans: &mut Spans) -> f64 {
    const OPS: u64 = 1_000_000;
    let zipf = Zipf::new(500, 0.8);
    kernel(spans, "kernel.zipf_sample", || {
        let mut rng = DetRng::new(KERNEL_SEED);
        let (secs, sum) = timed(|| (0..OPS).map(|_| zipf.sample(&mut rng) as u64).sum::<u64>());
        assert!(sum < OPS * 500);
        (secs, OPS)
    })
}

/// Runs every kernel; returns metric name → value (nanoseconds per
/// operation unless the name says otherwise).
pub fn run_all(spans: &mut Spans) -> BTreeMap<&'static str, f64> {
    let trace = sample_trace();
    BTreeMap::from([
        ("kernel.event_queue_ns_per_op", event_queue(spans)),
        (
            "kernel.net_transit_ns",
            net_transit(spans, "kernel.net_transit", false),
        ),
        (
            "kernel.net_transit_fault_ns",
            net_transit(spans, "kernel.net_transit_fault", true),
        ),
        ("kernel.rbcast_ns_per_delivery", rbcast(spans)),
        ("kernel.cbcast_ns_per_delivery", cbcast(spans)),
        ("kernel.seq_abcast_ns_per_delivery", seq_abcast(spans)),
        ("kernel.ring_abcast_ns_per_delivery", ring_abcast(spans)),
        (
            "kernel.vclock_merge_ns_n5",
            vclock_merge(spans, "kernel.vclock_merge_n5", 5),
        ),
        (
            "kernel.vclock_merge_ns_n32",
            vclock_merge(spans, "kernel.vclock_merge_n32", 32),
        ),
        ("kernel.batcher_ns_per_msg", batcher(spans)),
        ("kernel.lock_grant_release_ns", lock_grant_release(spans)),
        (
            "kernel.lock_contended_drain_ns",
            lock_contended_drain(spans),
        ),
        ("kernel.store_apply_ns", store_apply(spans)),
        ("kernel.store_read_ns", store_read(spans)),
        ("kernel.redo_log_append_ns", redo_log_append(spans)),
        ("kernel.sg_check_us_per_txn", sg_check(spans)),
        (
            "kernel.trace_encode_ns_per_event",
            trace_encode(spans, &trace),
        ),
        (
            "kernel.trace_invariants_ns_per_event",
            trace_invariants(spans, &trace),
        ),
        ("kernel.zipf_sample_ns", zipf_sample(spans)),
    ])
}
