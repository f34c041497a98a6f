//! Criterion micro-benchmarks over the substrate hot paths and one
//! end-to-end transaction per protocol.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use bcastdb_broadcast::atomic::{AtomicBcast, IsisAbcast, SequencerAbcast};
use bcastdb_broadcast::msg::expand_dest;
use bcastdb_broadcast::{CausalBcast, ReliableBcast, VectorClock};
use bcastdb_core::{Cluster, ProtocolKind};
use bcastdb_db::lock::LockMode;
use bcastdb_db::{Key, LockManager, Store, TxnId, TxnSpec, WriteOp};
use bcastdb_sim::{EventKind, EventQueue, SimTime, SiteId};
use std::sync::Arc;

fn bench_vector_clock(c: &mut Criterion) {
    let mut g = c.benchmark_group("vclock");
    let mut a = VectorClock::new(16);
    let mut b = VectorClock::new(16);
    for i in 0..16 {
        a.set(SiteId(i), (i * 7) as u64);
        b.set(SiteId(i), (i * 5 + 3) as u64);
    }
    g.bench_function("merge_16", |bench| {
        bench.iter(|| {
            let mut m = black_box(&a).clone();
            m.merge(black_box(&b));
            m
        })
    });
    g.bench_function("relation_16", |bench| {
        bench.iter(|| black_box(&a).relation(black_box(&b)))
    });
    g.finish();
}

fn bench_lock_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("locks");
    g.bench_function("grant_release_1000", |bench| {
        bench.iter_batched(
            LockManager::new,
            |mut lm| {
                for i in 0..1000u64 {
                    let t = TxnId::new(SiteId(0), i);
                    let k = Key::new(format!("k{}", i % 64));
                    let _ = lm.request(t, &k, LockMode::Exclusive);
                    lm.release_all(t);
                }
                lm
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("contended_queue_drain", |bench| {
        bench.iter_batched(
            || {
                let mut lm = LockManager::new();
                let k = Key::new("hot");
                lm.request(TxnId::new(SiteId(0), 0), &k, LockMode::Exclusive);
                for i in 1..100u64 {
                    lm.enqueue(TxnId::new(SiteId(0), i), &k, LockMode::Exclusive, i);
                }
                lm
            },
            |mut lm| {
                for i in 0..100u64 {
                    lm.release_all(TxnId::new(SiteId(0), i));
                }
                lm
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    c.bench_function("store_apply_read", |bench| {
        bench.iter_batched(
            Store::new,
            |mut s| {
                for i in 0..256u64 {
                    let t = TxnId::new(SiteId(0), i);
                    s.apply(
                        t,
                        &[WriteOp {
                            key: Key::new(format!("k{}", i % 32)),
                            value: i as i64,
                        }],
                    );
                }
                black_box(s.value(&Key::new("k7")));
                s
            },
            BatchSize::SmallInput,
        )
    });
}

/// Drives a broadcast engine fleet synchronously until quiet, counting
/// deliveries (transport-free: wires move through an in-memory queue).
fn drive_reliable(n: usize, msgs: usize) -> usize {
    let mut engines: Vec<ReliableBcast<u64>> =
        (0..n).map(|i| ReliableBcast::new(SiteId(i), n)).collect();
    let mut wires = std::collections::VecDeque::new();
    let mut delivered = 0;
    for m in 0..msgs {
        let origin = m % n;
        let (_, out) = engines[origin].broadcast(m as u64);
        delivered += out.deliveries.len();
        for ob in out.outbound {
            for to in expand_dest(ob.dest, SiteId(origin), n) {
                wires.push_back((SiteId(origin), to, ob.wire.clone()));
            }
        }
    }
    while let Some((from, to, w)) = wires.pop_front() {
        delivered += engines[to.0].on_wire(from, w).deliveries.len();
    }
    delivered
}

fn drive_causal(n: usize, msgs: usize) -> usize {
    let mut engines: Vec<CausalBcast<u64>> =
        (0..n).map(|i| CausalBcast::new(SiteId(i), n)).collect();
    let mut wires = std::collections::VecDeque::new();
    let mut delivered = 0;
    for m in 0..msgs {
        let origin = m % n;
        let (_, out) = engines[origin].broadcast(m as u64);
        delivered += out.deliveries.len();
        for ob in out.outbound {
            for to in expand_dest(ob.dest, SiteId(origin), n) {
                wires.push_back((SiteId(origin), to, ob.wire.clone()));
            }
        }
    }
    while let Some((from, to, w)) = wires.pop_front() {
        delivered += engines[to.0].on_wire(from, w).deliveries.len();
    }
    delivered
}

fn drive_abcast<A: AtomicBcast<u64>>(mut engines: Vec<A>, msgs: usize) -> usize {
    let n = engines.len();
    let mut wires = std::collections::VecDeque::new();
    let mut delivered = 0;
    for m in 0..msgs {
        let origin = m % n;
        let (_, out) = engines[origin].broadcast(m as u64);
        delivered += out.deliveries.len();
        for ob in out.outbound {
            for to in expand_dest(ob.dest, SiteId(origin), n) {
                wires.push_back((SiteId(origin), to, ob.wire.clone()));
            }
        }
    }
    while let Some((from, to, w)) = wires.pop_front() {
        let out = engines[to.0].on_wire(from, w);
        delivered += out.deliveries.len();
        for ob in out.outbound {
            for dest in expand_dest(ob.dest, to, n) {
                wires.push_back((to, dest, ob.wire.clone()));
            }
        }
    }
    delivered
}

fn bench_broadcast_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("broadcast_5x100");
    g.bench_function("reliable", |b| b.iter(|| drive_reliable(5, 100)));
    g.bench_function("causal", |b| b.iter(|| drive_causal(5, 100)));
    g.bench_function("abcast_sequencer", |b| {
        b.iter(|| {
            let engines: Vec<SequencerAbcast<u64>> =
                (0..5).map(|i| SequencerAbcast::new(SiteId(i), 5)).collect();
            drive_abcast(engines, 100)
        })
    });
    g.bench_function("abcast_isis", |b| {
        b.iter(|| {
            let engines: Vec<IsisAbcast<u64>> =
                (0..5).map(|i| IsisAbcast::new(SiteId(i), 5)).collect();
            drive_abcast(engines, 100)
        })
    });
    g.finish();
}

/// The simulator's event queue under an interleaved schedule/pop load —
/// the single hottest structure in every run. The pre-sized variant
/// ([`EventQueue::with_capacity`]) is what `Simulation::new` uses.
fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64, ()> = EventQueue::with_capacity(10_000);
            // Scramble the times so the heap actually works for its pops.
            for i in 0..10_000u64 {
                q.schedule(
                    SimTime::from_micros(black_box(i.wrapping_mul(2_654_435_761) % 10_000)),
                    EventKind::Deliver {
                        from: SiteId(0),
                        to: SiteId((i % 5) as usize),
                        msg: i,
                    },
                );
            }
            let mut sum = 0u64;
            while let Some(e) = q.pop() {
                sum = sum.wrapping_add(e.time.as_micros());
            }
            sum
        })
    });
    g.finish();
}

/// The engine's fan-out hot path in miniature: one broadcast payload,
/// thirteen destinations. The payload mirrors the engine's real one — a
/// nested structure of heap-allocated keys and values, so a deep clone
/// is one allocation per key, not a single flat memcpy. `deep_clone`
/// copies the payload body per destination (the pre-optimization
/// behaviour); `arc_share` wraps it in an [`Arc`] once and bumps the
/// refcount per destination, which is what the replica engine does now —
/// O(1) payload copies per broadcast regardless of fan-out.
fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("fanout");
    let payload: Vec<(String, i64)> = (0..16)
        .map(|i| (format!("key-{i:04}-abcdefgh"), i as i64))
        .collect();
    g.bench_function("clone_vs_arc_n13/deep_clone", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..13 {
                let copy = black_box(&payload).clone();
                // Force the copy to materialize — without this the
                // allocation+memcpy is dead code and LLVM elides it.
                total += black_box(&copy).len();
            }
            total
        })
    });
    g.bench_function("clone_vs_arc_n13/arc_share", |b| {
        b.iter(|| {
            let shared = Arc::new(black_box(&payload).clone());
            let mut total = 0usize;
            for _ in 0..13 {
                let copy = Arc::clone(&shared);
                total += black_box(&copy).len();
            }
            total
        })
    });
    g.finish();
}

/// The whole simulator, end to end: the `t2_failures` crash scenario
/// (five sites, Zipf load, one mid-run crash, view change, survivor
/// load) per protocol. Each iteration processes a fixed, deterministic
/// number of events — asserted below and ratcheted by the scenario's own
/// unit test — so `events/iteration ÷ time/iteration` is the repo's
/// headline events-per-second figure. `BENCH_wallclock.json` records the
/// same figure from the real experiment runs.
fn bench_whole_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("whole_sim");
    g.sample_size(10);
    for (proto, events) in [
        (ProtocolKind::ReliableBcast, 10129u64),
        (ProtocolKind::CausalBcast, 9149),
        (ProtocolKind::AtomicBcast, 8726),
    ] {
        g.bench_function(proto.name(), |b| {
            b.iter(|| {
                let processed = bcastdb_bench::scenarios::crash_scenario(black_box(proto));
                assert_eq!(processed, events, "{proto}: event count drifted");
                processed
            })
        });
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e_txn_5sites");
    g.sample_size(20);
    for proto in ProtocolKind::ALL {
        g.bench_function(proto.name(), |b| {
            b.iter(|| {
                let mut cluster = Cluster::builder().sites(5).protocol(proto).seed(1).build();
                let id = cluster.submit(
                    SiteId(1),
                    TxnSpec::new().read("a").write("b", 1).write("c", 2),
                );
                cluster.run_to_quiescence();
                assert!(cluster.is_committed(id));
                black_box(cluster.messages_sent())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_vector_clock,
    bench_lock_manager,
    bench_store,
    bench_broadcast_engines,
    bench_event_queue,
    bench_fanout,
    bench_whole_sim,
    bench_end_to_end
);
criterion_main!(benches);
