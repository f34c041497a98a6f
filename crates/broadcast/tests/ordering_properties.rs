//! Property-based tests of the broadcast engines' ordering guarantees
//! under arbitrary (adversarially shuffled) wire arrival schedules.
//!
//! The simulator only produces per-link-FIFO schedules; these tests go
//! further and permute wire deliveries arbitrarily, which the holdback
//! machinery must tolerate (relayed copies can arrive in any order).

use bcastdb_broadcast::atomic::{AtomicBcast, IsisAbcast, SequencerAbcast};
use bcastdb_broadcast::msg::dest_iter;
use bcastdb_broadcast::ring::RingAbcast;
use bcastdb_broadcast::{CausalBcast, ReliableBcast};
use bcastdb_sim::SiteId;
use proptest::prelude::*;

/// A scripted broadcast: (origin site, payload).
fn script(n_sites: usize, len: usize) -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((0..n_sites, any::<u64>()), 0..len)
}

/// Runs reliable engines with the wire queue permuted by `order_seed`,
/// returning each site's delivery log.
fn run_reliable_shuffled(
    n: usize,
    broadcasts: &[(usize, u64)],
    order_seed: u64,
) -> Vec<Vec<(SiteId, u64)>> {
    let mut engines: Vec<ReliableBcast<u64>> =
        (0..n).map(|i| ReliableBcast::new(SiteId(i), n)).collect();
    let mut logs: Vec<Vec<(SiteId, u64)>> = vec![Vec::new(); n];
    let mut wires = Vec::new();
    for &(origin, payload) in broadcasts {
        let (_, out) = engines[origin].broadcast(payload);
        for d in out.deliveries {
            logs[origin].push((d.id.origin, d.payload));
        }
        for ob in out.outbound {
            for to in dest_iter(ob.dest, SiteId(origin), n) {
                wires.push((to, ob.wire.clone()));
            }
        }
    }
    // Deterministic pseudo-shuffle of the delivery order.
    let mut rng = bcastdb_sim::DetRng::new(order_seed);
    let mut i = wires.len();
    while i > 1 {
        i -= 1;
        let j = rng.gen_range(0..=i);
        wires.swap(i, j);
    }
    for (to, wire) in wires {
        let out = engines[to.0].on_wire(SiteId(0), wire);
        for d in out.deliveries {
            logs[to.0].push((d.id.origin, d.payload));
        }
    }
    logs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Reliable broadcast under arbitrary arrival order: every site delivers
    /// every message exactly once, in per-origin FIFO order.
    #[test]
    fn reliable_delivers_all_in_fifo_order(
        broadcasts in script(4, 24),
        order_seed in any::<u64>(),
    ) {
        let n = 4;
        let logs = run_reliable_shuffled(n, &broadcasts, order_seed);
        for (site, log) in logs.iter().enumerate() {
            prop_assert_eq!(log.len(), broadcasts.len(), "site {} delivered all", site);
            // Per-origin payload order matches broadcast order.
            for origin in 0..n {
                let sent: Vec<u64> = broadcasts
                    .iter()
                    .filter(|(o, _)| *o == origin)
                    .map(|&(_, p)| p)
                    .collect();
                let got: Vec<u64> = log
                    .iter()
                    .filter(|(o, _)| o.0 == origin)
                    .map(|&(_, p)| p)
                    .collect();
                prop_assert_eq!(&got, &sent, "site {} origin {}", site, origin);
            }
        }
    }

    /// Causal broadcast under per-link-FIFO (arbitrary interleaving across
    /// links): all sites deliver all messages, and any pair ordered by
    /// causality is delivered in that order everywhere.
    #[test]
    fn causal_respects_happens_before(
        broadcasts in script(3, 16),
        interleave_seed in any::<u64>(),
    ) {
        let n = 3;
        let mut engines: Vec<CausalBcast<u64>> =
            (0..n).map(|i| CausalBcast::new(SiteId(i), n)).collect();
        // Per-destination FIFO queues (models FIFO links; causal engines
        // assume no cross-origin ordering only).
        let mut links: Vec<std::collections::VecDeque<bcastdb_broadcast::causal::Wire<u64>>> =
            (0..n).map(|_| Default::default()).collect();
        let mut logs: Vec<Vec<(SiteId, u64, bcastdb_broadcast::VectorClock)>> =
            vec![Vec::new(); n];
        let mut rng = bcastdb_sim::DetRng::new(interleave_seed);
        let mut pending_broadcasts: std::collections::VecDeque<(usize, u64)> =
            broadcasts.iter().copied().collect();
        loop {
            // Randomly either broadcast the next scripted message or deliver
            // from a random link.
            let can_deliver: Vec<usize> =
                (0..n).filter(|&i| !links[i].is_empty()).collect();
            let do_broadcast = if pending_broadcasts.is_empty() {
                false
            } else if can_deliver.is_empty() {
                true
            } else {
                rng.gen_bool(0.5)
            };
            if do_broadcast {
                let (origin, payload) = pending_broadcasts.pop_front().expect("non-empty");
                let (_, out) = engines[origin].broadcast(payload);
                for d in out.deliveries {
                    logs[origin].push((d.id.origin, d.payload, d.vc));
                }
                for ob in out.outbound {
                    for to in dest_iter(ob.dest, SiteId(origin), n) {
                        links[to.0].push_back(ob.wire.clone());
                    }
                }
            } else if !can_deliver.is_empty() {
                // Pick a random nonempty link.
                let to = can_deliver[rng.gen_range(0..can_deliver.len())];
                let wire = links[to].pop_front().expect("non-empty");
                let out = engines[to].on_wire(SiteId(0), wire);
                for d in out.deliveries {
                    logs[to].push((d.id.origin, d.payload, d.vc));
                }
            } else {
                break;
            }
        }
        for (site, log) in logs.iter().enumerate() {
            prop_assert_eq!(log.len(), broadcasts.len(), "site {} delivered all", site);
            // Causality: for every pair in the log, if a's clock precedes
            // b's, a must appear first.
            for i in 0..log.len() {
                for j in 0..log.len() {
                    if i < j {
                        // j delivered after i: j must not happen-before i
                        // (two messages' stamps are never equal).
                        prop_assert!(
                            !log[j].2.dominated_by(&log[i].2),
                            "site {}: later delivery happens-before earlier",
                            site
                        );
                    }
                }
            }
        }
    }

    /// Both atomic broadcast implementations agree on a single total order
    /// regardless of who broadcasts what.
    #[test]
    fn atomic_engines_agree_on_total_order(broadcasts in script(4, 16)) {
        let n = 4;
        fn drive<A: AtomicBcast<u64>>(mut engines: Vec<A>, script: &[(usize, u64)]) -> Vec<Vec<u64>> {
            let mut logs = vec![Vec::new(); engines.len()];
            let n = engines.len();
            let mut wires = std::collections::VecDeque::new();
            for &(origin, payload) in script {
                let (_, out) = engines[origin].broadcast(payload);
                for d in out.deliveries {
                    logs[origin].push(d.payload);
                }
                for ob in out.outbound {
                    for to in dest_iter(ob.dest, SiteId(origin), n) {
                        wires.push_back((to, ob.wire.clone()));
                    }
                }
            }
            while let Some((to, wire)) = wires.pop_front() {
                let out = engines[to.0].on_wire(SiteId(0), wire);
                for d in out.deliveries {
                    logs[to.0].push(d.payload);
                }
                for ob in out.outbound {
                    for dest in dest_iter(ob.dest, to, n) {
                        wires.push_back((dest, ob.wire.clone()));
                    }
                }
            }
            logs
        }
        let seq_logs = drive(
            (0..n).map(|i| SequencerAbcast::new(SiteId(i), n)).collect::<Vec<_>>(),
            &broadcasts,
        );
        let isis_logs = drive(
            (0..n).map(|i| IsisAbcast::new(SiteId(i), n)).collect::<Vec<_>>(),
            &broadcasts,
        );
        let ring_logs = drive(
            (0..n).map(|i| RingAbcast::new(SiteId(i), n)).collect::<Vec<_>>(),
            &broadcasts,
        );
        for logs in [&seq_logs, &isis_logs, &ring_logs] {
            for site in 1..n {
                prop_assert_eq!(&logs[site], &logs[0], "total order agreement");
            }
            prop_assert_eq!(logs[0].len(), broadcasts.len());
        }
        // Per-origin FIFO must also hold for the ring: the pipeline may
        // interleave origins differently from the sequencer, but a single
        // origin's messages are gseq-ordered in submission order.
        for origin in 0..n {
            let sent: Vec<u64> = broadcasts
                .iter()
                .filter(|(o, _)| *o == origin)
                .map(|&(_, p)| p)
                .collect();
            let origin_payloads: std::collections::HashSet<u64> = sent.iter().copied().collect();
            let got: Vec<u64> = ring_logs[0]
                .iter()
                .filter(|p| origin_payloads.contains(p))
                .copied()
                .collect();
            // Duplicate payload values across origins would make the filter
            // ambiguous; skip those generated cases.
            let all: Vec<u64> = broadcasts.iter().map(|&(_, p)| p).collect();
            let unique = all.len()
                == all
                    .iter()
                    .collect::<std::collections::HashSet<_>>()
                    .len();
            if unique {
                prop_assert_eq!(&got, &sent, "ring per-origin FIFO for origin {}", origin);
            }
        }
    }

    /// Lock-step cross-backend equivalence: when each broadcast fully
    /// settles before the next is submitted (every engine drains its wire
    /// queue between submissions), all three atomic backends must deliver
    /// the *identical* total order — the submission order. This pins the
    /// ring backend to the sequencer/ISIS semantics on identical inputs;
    /// any reordering, loss, or duplication in the ring pipeline breaks it.
    #[test]
    fn ring_matches_sequencer_and_isis_order_lock_step(broadcasts in script(5, 20)) {
        let n = 5;
        fn drive_serialized<A: AtomicBcast<u64>>(mut engines: Vec<A>, script: &[(usize, u64)]) -> Vec<Vec<u64>> {
            let n = engines.len();
            let mut logs = vec![Vec::new(); n];
            for &(origin, payload) in script {
                let mut wires = std::collections::VecDeque::new();
                let (_, out) = engines[origin].broadcast(payload);
                for d in out.deliveries {
                    logs[origin].push(d.payload);
                }
                for ob in out.outbound {
                    for to in dest_iter(ob.dest, SiteId(origin), n) {
                        wires.push_back((to, ob.wire.clone()));
                    }
                }
                // Drain to quiescence before the next submission.
                while let Some((to, wire)) = wires.pop_front() {
                    let out = engines[to.0].on_wire(SiteId(0), wire);
                    for d in out.deliveries {
                        logs[to.0].push(d.payload);
                    }
                    for ob in out.outbound {
                        for dest in dest_iter(ob.dest, to, n) {
                            wires.push_back((dest, ob.wire.clone()));
                        }
                    }
                }
            }
            logs
        }
        let seq_logs = drive_serialized(
            (0..n).map(|i| SequencerAbcast::new(SiteId(i), n)).collect::<Vec<_>>(),
            &broadcasts,
        );
        let isis_logs = drive_serialized(
            (0..n).map(|i| IsisAbcast::new(SiteId(i), n)).collect::<Vec<_>>(),
            &broadcasts,
        );
        let ring_logs = drive_serialized(
            (0..n).map(|i| RingAbcast::new(SiteId(i), n)).collect::<Vec<_>>(),
            &broadcasts,
        );
        let submitted: Vec<u64> = broadcasts.iter().map(|&(_, p)| p).collect();
        for logs in [&seq_logs, &isis_logs, &ring_logs] {
            for site_log in logs.iter() {
                prop_assert_eq!(site_log, &submitted, "serialized order is submission order");
            }
        }
        prop_assert_eq!(&ring_logs, &seq_logs, "ring vs sequencer");
        prop_assert_eq!(&ring_logs, &isis_logs, "ring vs isis");
    }
}
