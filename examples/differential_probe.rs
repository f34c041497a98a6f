//! Differential probe for behaviour-neutral protocol refactors.
//!
//! Prints one line of counts (events, messages, commits, fast commits,
//! per-phase traffic) for each of ~1000 small seeded runs: every protocol
//! across the knob matrix — membership, crashes, partitions, state
//! transfer, fast commit, loss recovery with and without backoff, think
//! time, batching, partial placement, all three atomic-broadcast backends —
//! plus the baseline under heavy contention through crashes, the one
//! regime where the order in which a view change settles its orphans shows
//! up in the counts. The committed `results/` cover far fewer corners.
//!
//! Use: run it here and in a checkout of the parent commit (copy this file
//! over if the parent predates it), then `cmp` the two outputs — see
//! `.claude/skills/verify/SKILL.md`.
//!
//! ```console
//! $ cargo run --release --example differential_probe > /tmp/probe-change.txt
//! ```

use bcastdb::prelude::*;
use bcastdb::protocols::AbcastImpl;
use bcastdb::sim::{DetRng, NetworkConfig};

const SUSPECT_AFTER: SimDuration = SimDuration::from_millis(40);

/// Submits `per_site` transactions at every site, `gap_us` apart.
fn load(
    cluster: &mut Cluster,
    cfg: &WorkloadConfig,
    rng: &mut DetRng,
    per_site: usize,
    gap_us: u64,
) {
    let zipf = cfg.sampler();
    for site in cluster.sites().collect::<Vec<_>>() {
        let mut at = SimTime::from_micros(1_000);
        let mut site_rng = rng.fork(site.0 as u64);
        for _ in 0..per_site {
            at += SimDuration::from_micros(gap_us);
            cluster.submit_at(at, site, cfg.gen_txn(&zipf, &mut site_rng));
        }
    }
}

fn report(label: &str, cluster: &Cluster) {
    let m = cluster.metrics();
    println!(
        "{label} events={} msgs={} commits={} fast={} phases={:?}",
        cluster.events_processed(),
        cluster.messages_sent(),
        m.commits(),
        m.counters.get("fast_commits"),
        cluster.phase_counts(),
    );
}

/// Every protocol across the knob matrix; the variant rotates with the seed.
fn knob_matrix() {
    for seed in 0..120u64 {
        for (pi, &proto) in ProtocolKind::ALL.iter().enumerate() {
            let variant = (seed as usize + pi) % 8;
            let sites = if variant == 7 { 6 } else { 5 };
            let mut b = Cluster::builder().sites(sites).protocol(proto).seed(seed);
            let membership = |b: ClusterBuilder| b.membership(true).suspect_after(SUSPECT_AFTER);
            let mut fault = "none";
            match variant {
                0 => {}
                1 => (b, fault) = (membership(b), "crash"),
                2 => (b, fault) = (membership(b).fast_commit(true), "crash"),
                3 => {
                    if matches!(
                        proto,
                        ProtocolKind::PointToPoint | ProtocolKind::AtomicBcast
                    ) {
                        continue; // no loss recovery in these two
                    }
                    b = b
                        .relay(true)
                        .retransmit_backoff(seed % 2 == 0)
                        .network(NetworkConfig::lan().with_loss(0.05));
                }
                4 => b = b.think_time(SimDuration::from_micros(300)),
                5 => {
                    b = b
                        .batch_window(SimDuration::from_micros(400))
                        .placement(Placement::Ring { replicas: 3 });
                }
                6 => (b, fault) = (membership(b), "partition"),
                _ => {
                    let backend = [AbcastImpl::Isis, AbcastImpl::Ring][(seed % 2) as usize];
                    b = membership(b)
                        .abcast(backend)
                        .fast_commit(seed % 4 < 2)
                        .think_time(SimDuration::from_micros(150));
                    fault = "crash_recover";
                }
            }
            let mut cluster = b.build();
            let cfg = WorkloadConfig {
                n_keys: 25,
                readonly_fraction: 0.2,
                ..WorkloadConfig::default()
            };
            let mut rng = DetRng::new(seed * 7 + 1);
            load(&mut cluster, &cfg, &mut rng, 40, 900);
            let t = 6_000 + (seed % 13) * 1_500;
            let victim = SiteId((seed % sites as u64) as usize);
            let neighbour = SiteId((victim.0 + 1) % sites);
            cluster.run_until(SimTime::from_micros(t));
            match fault {
                "crash" => cluster.crash(victim),
                "partition" => {
                    let minority = [victim, neighbour];
                    let rest: Vec<SiteId> =
                        cluster.sites().filter(|s| !minority.contains(s)).collect();
                    cluster.partition(&minority, &rest);
                    cluster.run_until(SimTime::from_micros(t + 150_000));
                    cluster.heal_partitions();
                }
                "crash_recover" => {
                    cluster.crash(victim);
                    cluster.run_until(SimTime::from_micros(t + 200_000));
                    cluster.recover(victim, neighbour);
                    let zipf = cfg.sampler();
                    for k in 0..10 {
                        let at = SimTime::from_micros(t + 260_000 + k * 1_000);
                        cluster.submit_at(at, victim, cfg.gen_txn(&zipf, &mut rng));
                    }
                }
                _ => {}
            }
            cluster.run_until(SimTime::from_micros(3_000_000));
            report(&format!("{seed} {proto} v{variant}"), &cluster);
        }
    }
}

/// The baseline, hot keys, one or two crashes mid-flight.
fn contended_baseline() {
    for seed in 0..300u64 {
        for (n_keys, writes_per_txn) in [(8, 3), (40, 2)] {
            let mut cluster = Cluster::builder()
                .sites(5)
                .protocol(ProtocolKind::PointToPoint)
                .seed(seed)
                .membership(true)
                .suspect_after(SUSPECT_AFTER)
                .build();
            let cfg = WorkloadConfig {
                n_keys,
                theta: 0.9,
                reads_per_txn: 1,
                writes_per_txn,
                ..WorkloadConfig::default()
            };
            load(&mut cluster, &cfg, &mut DetRng::new(seed * 7 + 1), 30, 700);
            cluster.run_until(SimTime::from_micros(4_000 + (seed % 17) * 1_000));
            cluster.crash(SiteId((seed % 5) as usize));
            if seed % 3 == 0 {
                cluster.crash(SiteId(((seed + 2) % 5) as usize));
            }
            cluster.run_until(SimTime::from_micros(2_000_000));
            report(&format!("{seed} p2p-contended k{n_keys}"), &cluster);
        }
    }
}

fn main() {
    knob_matrix();
    contended_baseline();
}
