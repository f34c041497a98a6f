//! The eight named workloads and their seeded inputs.
//!
//! Everything random about a run is drawn here, in setup, from `--seed`:
//! the per-client (closed loop) or per-site (open loop) transaction
//! streams and the cluster's simulation seed. The timed window of a
//! repetition only ever receives finished [`TxnSpec`]s.

use bcastdb_bench::faultplan::parse_plan;
use bcastdb_core::{AbcastImpl, ProtocolKind};
use bcastdb_db::TxnSpec;
use bcastdb_sim::{DetRng, FaultPlan, SimDuration};
use bcastdb_workload::WorkloadConfig;

/// How transactions are offered to the cluster.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// Closed loop: every client submits its next transaction when the
    /// previous one terminates.
    Closed {
        clients_per_site: usize,
        txns_per_client: usize,
    },
    /// Open loop: one transaction per site every `interval_us`, for
    /// `duration_us`, each timed from its due instant.
    Open { interval_us: u64, duration_us: u64 },
    /// Open loop through a crash and a rejoin of the last site (see
    /// `drivers::crash_rejoin`). Times are virtual microseconds.
    CrashRejoin {
        interval_us: u64,
        crash_at_us: u64,
        survivors_until_us: u64,
        tail_us: u64,
    },
}

/// One named workload: a cluster configuration plus an offered load.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub sites: usize,
    pub protocol: ProtocolKind,
    pub abcast: Option<AbcastImpl>,
    pub shape: WorkloadConfig,
    pub drive: Drive,
    pub batch_window: Option<SimDuration>,
    pub nic_bytes_per_sec: Option<u64>,
    pub membership: bool,
    /// Relay + retransmit backoff + the fault plan + product tracing
    /// (`lossy_traced` only).
    pub lossy: bool,
}

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 11;

/// The fault plan of `lossy_traced`, in `bench::faultplan`'s grammar:
/// loss, duplication and reordering on every link, from the start until
/// well after the last arrival. It is written out, not drawn with
/// `gen_plan(seed, ..)`: that draws one to four clauses of any strength on
/// any links, so two seeds differ by a factor of two in messages per
/// commit, and the benchmark must read the same from one seed to the
/// next. It is mild because the relay masks nearly every 3% loss; plans
/// that leave a few percent of commits waiting for a retransmission
/// timeout make the 99th percentile jump fivefold between seeds. `--seed`
/// still decides which packets the plan hits, through the cluster seed.
const LOSSY_PLAN: &str =
    "drop(0.03)@*>*@0..9000000;dup(0.05,1000)@*>*@0..9000000;reorder(0.1,1500)@*>*@0..9000000";

/// The plan of `lossy_traced`.
pub fn lossy_plan() -> FaultPlan {
    parse_plan(LOSSY_PLAN).expect("LOSSY_PLAN is well formed")
}

/// Sites in `lossy_traced` (the chaos campaign's cluster size).
const LOSSY_SITES: usize = 4;

fn shape(
    n_keys: usize,
    theta: f64,
    reads: usize,
    writes: usize,
    ro_fraction: f64,
    ro_reads: usize,
) -> WorkloadConfig {
    WorkloadConfig {
        n_keys,
        theta,
        reads_per_txn: reads,
        writes_per_txn: writes,
        reads_per_ro_txn: ro_reads,
        readonly_fraction: ro_fraction,
    }
}

/// Every workload, in `BENCHMARK.json` order. The sizes give a repetition
/// of at least one second on the machine the baseline was taken on; why
/// each exists is in `README.md` and `BENCHMARK.json`.
pub fn all() -> Vec<Workload> {
    let base = Workload {
        name: "",
        sites: 5,
        protocol: ProtocolKind::ReliableBcast,
        abcast: None,
        shape: shape(500, 0.8, 2, 2, 0.2, 4),
        drive: Drive::Closed {
            clients_per_site: 4,
            txns_per_client: 1_000,
        },
        batch_window: None,
        nic_bytes_per_sec: None,
        membership: false,
        lossy: false,
    };
    vec![
        Workload {
            name: "steady_rb",
            ..base.clone()
        },
        Workload {
            name: "steady_cb",
            protocol: ProtocolKind::CausalBcast,
            // Uniform keys: on steady_rb's skewed keys P-CB fails the 1SR
            // check (DivergentInstallOrder on a hot key) for about one
            // seed in ten. Cut short: the event loop is quadratic in
            // history today.
            shape: shape(500, 0.0, 2, 2, 0.2, 4),
            drive: Drive::Closed {
                clients_per_site: 4,
                txns_per_client: 120,
            },
            ..base.clone()
        },
        Workload {
            name: "steady_ab",
            protocol: ProtocolKind::AtomicBcast,
            abcast: Some(AbcastImpl::Sequencer),
            drive: Drive::Closed {
                clients_per_site: 4,
                txns_per_client: 2_500,
            },
            ..base.clone()
        },
        Workload {
            name: "contended",
            shape: shape(50, 0.9, 1, 2, 0.1, 4),
            drive: Drive::Closed {
                clients_per_site: 4,
                txns_per_client: 1_000,
            },
            ..base.clone()
        },
        Workload {
            name: "read_mostly",
            protocol: ProtocolKind::PointToPoint,
            shape: shape(2_000, 0.8, 2, 2, 0.9, 6),
            drive: Drive::Closed {
                clients_per_site: 4,
                txns_per_client: 3_500,
            },
            ..base.clone()
        },
        Workload {
            name: "wide_ring",
            sites: 32,
            protocol: ProtocolKind::AtomicBcast,
            abcast: Some(AbcastImpl::Ring),
            shape: shape(5_000, 0.3, 2, 2, 0.0, 4),
            drive: Drive::Closed {
                clients_per_site: 4,
                txns_per_client: 30,
            },
            batch_window: Some(SimDuration::from_micros(500)),
            nic_bytes_per_sec: Some(2_000_000),
            ..base.clone()
        },
        Workload {
            name: "crash_rejoin",
            shape: shape(500, 0.8, 2, 2, 0.0, 4),
            drive: Drive::CrashRejoin {
                interval_us: 2_000,
                crash_at_us: 2_000_000,
                survivors_until_us: 6_000_000,
                tail_us: 2_000_000,
            },
            membership: true,
            ..base.clone()
        },
        Workload {
            name: "lossy_traced",
            sites: LOSSY_SITES,
            shape: shape(500, 0.8, 2, 2, 0.0, 4),
            drive: Drive::Open {
                interval_us: 2_000,
                duration_us: 4_000_000,
            },
            lossy: true,
            ..base
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The generated inputs of one workload for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Closed loop: one stream per client, site-major (client `c` lives
    /// at site `c / clients_per_site`). Open loop: one stream per site.
    pub streams: Vec<Vec<TxnSpec>>,
    /// The packet-fault plan (`lossy_traced` only).
    pub plan: Option<FaultPlan>,
}

impl Inputs {
    /// Transactions across all streams.
    pub fn txns(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

impl Workload {
    /// Number of streams and transactions per stream.
    fn stream_shape(&self) -> (usize, usize) {
        match self.drive {
            Drive::Closed {
                clients_per_site,
                txns_per_client,
            } => (self.sites * clients_per_site, txns_per_client),
            Drive::Open {
                interval_us,
                duration_us,
            } => (self.sites, (duration_us / interval_us) as usize),
            Drive::CrashRejoin {
                interval_us,
                survivors_until_us,
                tail_us,
                ..
            } => (
                self.sites,
                ((survivors_until_us + tail_us) / interval_us) as usize,
            ),
        }
    }

    /// Generates this workload's inputs from `seed`. Stream `i` draws from
    /// its own fork of the seed, so `steady_cb` (shorter streams) sees a
    /// prefix of what `steady_rb` sees.
    pub fn generate(&self, seed: u64) -> Inputs {
        self.shape.validate();
        let (n_streams, per_stream) = self.stream_shape();
        let zipf = self.shape.sampler();
        let mut root = DetRng::new(seed);
        let streams = (0..n_streams)
            .map(|i| {
                let mut rng = root.fork(i as u64);
                (0..per_stream)
                    .map(|_| self.shape.gen_txn(&zipf, &mut rng))
                    .collect()
            })
            .collect();
        let plan = self.lossy.then(lossy_plan);
        Inputs { streams, plan }
    }
}
