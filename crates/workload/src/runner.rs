//! Experiment drivers: submit generated transactions into a cluster and
//! collect the measurements the evaluation reports.

use crate::spec::WorkloadConfig;
use bcastdb_core::{Cluster, Metrics, TxnOutcome};
use bcastdb_db::TxnId;
use bcastdb_sim::{DetRng, SimDuration, SimTime, SiteId};

/// Everything an experiment needs from one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Transactions submitted by the driver.
    pub submitted: u64,
    /// Merged metrics across sites.
    pub metrics: Metrics,
    /// Point-to-point messages carried by the network.
    pub messages: u64,
    /// Virtual time consumed.
    pub duration: SimDuration,
    /// Committed transactions per virtual second.
    pub throughput_tps: f64,
    /// True iff the run quiesced (no events left).
    pub quiesced: bool,
    /// True iff all replicas converged to identical committed state.
    pub converged: bool,
}

impl RunReport {
    /// True iff every submitted transaction terminated (committed or
    /// aborted) — silent protocol wedges leave this false even when the
    /// run quiesced.
    pub fn all_terminated(&self) -> bool {
        self.metrics.commits() + self.metrics.aborts() == self.submitted
    }

    fn collect(cluster: &Cluster, quiesced: bool, submitted: u64) -> RunReport {
        let metrics = cluster.metrics();
        let duration = cluster.now().saturating_since(SimTime::ZERO);
        let secs = duration.as_micros() as f64 / 1_000_000.0;
        let throughput_tps = if secs > 0.0 {
            metrics.commits() as f64 / secs
        } else {
            0.0
        };
        RunReport {
            submitted,
            messages: cluster.messages_sent(),
            duration,
            throughput_tps,
            quiesced,
            converged: cluster.replicas_converged(),
            metrics,
        }
    }
}

/// Drivers that feed a workload into a cluster.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The workload shape.
    pub config: WorkloadConfig,
    /// Generator seed (independent of the cluster's network seed).
    pub seed: u64,
}

impl WorkloadRun {
    /// Creates a driver.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        config.validate();
        WorkloadRun { config, seed }
    }

    /// Open-loop run: every site receives `txns_per_site` transactions with
    /// exponential interarrival times of the given mean, then the cluster
    /// runs to quiescence.
    pub fn open_loop(
        &self,
        cluster: &mut Cluster,
        txns_per_site: usize,
        mean_interarrival: SimDuration,
    ) -> RunReport {
        let zipf = self.config.sampler();
        let mut rng = DetRng::new(self.seed);
        let base = cluster.now();
        for site in 0..cluster.config().sites {
            let mut site_rng = rng.fork(site as u64);
            let mut at = base;
            for _ in 0..txns_per_site {
                at += SimDuration::from_micros(
                    site_rng.gen_exp(mean_interarrival.as_micros() as f64) as u64,
                );
                let spec = self.config.gen_txn(&zipf, &mut site_rng);
                cluster.submit_at(at, SiteId(site), spec);
            }
        }
        let out = cluster.run_to_quiescence();
        RunReport::collect(
            cluster,
            matches!(out, bcastdb_sim::RunOutcome::Quiesced { .. }),
            (txns_per_site * cluster.config().sites) as u64,
        )
    }

    /// Closed-loop run: `clients_per_site` clients per site each submit
    /// `txns_per_client` transactions back-to-back (a new one the moment
    /// the previous terminates) — the multiprogramming-level model used by
    /// the throughput experiment.
    pub fn closed_loop(
        &self,
        cluster: &mut Cluster,
        clients_per_site: usize,
        txns_per_client: usize,
    ) -> RunReport {
        let zipf = self.config.sampler();
        let mut rng = DetRng::new(self.seed);
        struct Client {
            site: SiteId,
            rng: DetRng,
            outstanding: Option<TxnId>,
            remaining: usize,
        }
        let mut clients: Vec<Client> = Vec::new();
        for site in 0..cluster.config().sites {
            for c in 0..clients_per_site {
                clients.push(Client {
                    site: SiteId(site),
                    rng: rng.fork((site * 10_000 + c) as u64),
                    outstanding: None,
                    remaining: txns_per_client,
                });
            }
        }
        // Initial submissions.
        for cl in clients.iter_mut() {
            if cl.remaining > 0 {
                let spec = self.config.gen_txn(&zipf, &mut cl.rng);
                cl.outstanding = Some(cluster.submit(cl.site, spec));
                cl.remaining -= 1;
            }
        }
        let quantum = SimDuration::from_millis(2);
        // Generous hard stop: closed loops always drain, but a protocol bug
        // must not hang the experiment harness.
        let hard_stop = cluster.now() + SimDuration::from_secs(3600);
        let quiesced;
        loop {
            let active = clients
                .iter()
                .any(|c| c.outstanding.is_some() || c.remaining > 0);
            if !active {
                let out = cluster.run_to_quiescence();
                quiesced = matches!(out, bcastdb_sim::RunOutcome::Quiesced { .. });
                break;
            }
            if cluster.now() >= hard_stop {
                quiesced = false;
                break;
            }
            let deadline = cluster.now() + quantum;
            cluster.run_until(deadline);
            for cl in clients.iter_mut() {
                let done = cl
                    .outstanding
                    .is_some_and(|t| cluster.outcome(t) != TxnOutcome::Pending);
                if done {
                    cl.outstanding = None;
                    if cl.remaining > 0 {
                        let spec = self.config.gen_txn(&zipf, &mut cl.rng);
                        cl.outstanding = Some(cluster.submit(cl.site, spec));
                        cl.remaining -= 1;
                    }
                }
            }
        }
        RunReport::collect(
            cluster,
            quiesced,
            (clients_per_site * txns_per_client * cluster.config().sites) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcastdb_core::ProtocolKind;

    fn cluster(proto: ProtocolKind, sites: usize, seed: u64) -> Cluster {
        Cluster::builder()
            .sites(sites)
            .protocol(proto)
            .seed(seed)
            .build()
    }

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            n_keys: 200,
            theta: 0.5,
            reads_per_txn: 1,
            writes_per_txn: 1,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn open_loop_commits_everything_without_contention() {
        for proto in ProtocolKind::ALL {
            let mut c = cluster(proto, 3, 11);
            let run = WorkloadRun::new(small_cfg(), 42);
            let report = run.open_loop(&mut c, 10, SimDuration::from_millis(50));
            assert!(report.quiesced, "{proto}");
            assert!(report.converged, "{proto}");
            assert_eq!(
                report.metrics.commits() + report.metrics.aborts(),
                30,
                "{proto}: all transactions terminated"
            );
            assert!(report.metrics.commits() >= 25, "{proto}: too many aborts");
            c.check_serializability()
                .unwrap_or_else(|v| panic!("{proto}: {v}"));
        }
    }

    #[test]
    fn closed_loop_drains_all_clients() {
        for proto in ProtocolKind::ALL {
            let mut c = cluster(proto, 3, 12);
            let run = WorkloadRun::new(small_cfg(), 43);
            let report = run.closed_loop(&mut c, 2, 5);
            assert!(report.quiesced, "{proto}");
            assert_eq!(
                report.metrics.commits() + report.metrics.aborts(),
                3 * 2 * 5,
                "{proto}"
            );
            assert!(report.converged, "{proto}");
            c.check_serializability()
                .unwrap_or_else(|v| panic!("{proto}: {v}"));
        }
    }

    #[test]
    fn contended_workload_stays_serializable() {
        // A 5-key database with multi-key transactions: heavy conflicts.
        let multi_key = WorkloadConfig {
            n_keys: 5,
            theta: 0.9,
            reads_per_txn: 1,
            writes_per_txn: 2,
            ..WorkloadConfig::default()
        };
        // One key, written blind by every transaction: the hot spot.
        let hot_spot = WorkloadConfig {
            n_keys: 1,
            theta: 0.0,
            reads_per_txn: 0,
            writes_per_txn: 1,
            ..WorkloadConfig::default()
        };
        // Half the transactions are six-read queries racing the writers.
        let read_heavy = WorkloadConfig {
            n_keys: 200,
            reads_per_txn: 1,
            reads_per_ro_txn: 6,
            readonly_fraction: 0.5,
            ..WorkloadConfig::default()
        };
        for cfg in [multi_key, hot_spot, read_heavy] {
            let keys = cfg.n_keys;
            for proto in ProtocolKind::ALL {
                let mut c = cluster(proto, 4, 13);
                let run = WorkloadRun::new(cfg.clone(), 44);
                let report = run.open_loop(&mut c, 8, SimDuration::from_millis(2));
                assert!(
                    report.quiesced,
                    "{proto}/{keys} keys: stuck under contention"
                );
                assert!(
                    report.converged,
                    "{proto}/{keys} keys: diverged under contention"
                );
                c.check_serializability()
                    .unwrap_or_else(|v| panic!("{proto}/{keys} keys: {v}"));
                // Every transaction terminated one way or the other.
                assert_eq!(
                    report.metrics.commits() + report.metrics.aborts(),
                    4 * 8,
                    "{proto}/{keys} keys"
                );
            }
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let go = || {
            let mut c = cluster(ProtocolKind::CausalBcast, 3, 7);
            let run = WorkloadRun::new(small_cfg(), 7);
            let r = run.open_loop(&mut c, 20, SimDuration::from_millis(5));
            (r.messages, r.metrics.commits(), r.metrics.aborts())
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn throughput_is_positive_when_commits_happen() {
        let mut c = cluster(ProtocolKind::AtomicBcast, 3, 14);
        let run = WorkloadRun::new(small_cfg(), 45);
        let report = run.open_loop(&mut c, 5, SimDuration::from_millis(10));
        assert!(report.throughput_tps > 0.0);
        assert!(report.duration > SimDuration::ZERO);
    }
}
