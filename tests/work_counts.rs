//! Work-count gates: exact, deterministic counts of what a layer does per
//! unit of work, pulled from the replicas the way the `sim::stats` sampler
//! pulls a sample. A count does not depend on the machine, so these hold
//! on a noisy box where a timing could not.

use bcastdb::db::{HistoryRecorder, SgWork, Store, TxnId, WriteOp};
use bcastdb::prelude::*;
use bcastdb::protocols::ProtocolKind;
use bcastdb::sim::{Node, Sample, SampleWriter, StatsRegistry};
use std::collections::BTreeMap;

/// Peers P-CB's commit evaluation examines per transaction, closed loop on
/// uniform keys, `txns_per_client` transactions from each of 4 clients at
/// each of 5 sites.
fn pcb_peers_examined_per_txn(txns_per_client: usize) -> f64 {
    let cfg = WorkloadConfig {
        n_keys: 500,
        theta: 0.0,
        reads_per_txn: 2,
        writes_per_txn: 2,
        readonly_fraction: 0.0,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(5)
        .protocol(ProtocolKind::CausalBcast)
        .seed(11)
        .build();
    let report = WorkloadRun::new(cfg, 11).closed_loop(&mut c, 4, txns_per_client);
    assert!(report.quiesced && report.converged && report.all_terminated());
    c.check_serializability().expect("serializable");
    quiet_pull(&c).values["cb.decide_peers_examined"] as f64 / report.submitted as f64
}

/// One sample pulled from every replica of a quiet cluster, as the
/// sampler pulls one at a boundary: exact at this instant, where the
/// cluster's own samples stop at the last boundary.
fn quiet_pull(c: &Cluster) -> Sample {
    let mut quiet = SampleWriter::default();
    for s in c.sites() {
        c.replica(s).sample_stats(&mut quiet);
    }
    let mut at_rest = StatsRegistry::new(SimDuration::from_millis(1));
    at_rest.commit_sample(c.now(), &mut quiet);
    at_rest.samples().remove(0)
}

/// P-CB's decision must look only at transactions still live on the keys
/// it writes: the work per transaction may not grow with the length of the
/// run. (Walking every transaction the site has seen, as `try_decide` once
/// did, or an index that is never pruned, both grow ~4x here.)
#[test]
fn pcb_decision_work_does_not_grow_with_history() {
    let short = pcb_peers_examined_per_txn(15);
    let long = pcb_peers_examined_per_txn(60);
    assert!(short > 0.0, "the counter is wired: {short}");
    assert!(
        long < 1.25 * short,
        "peers examined per transaction grew {:.2}x ({short:.3} -> {long:.3}) over a 4x longer run",
        long / short
    );
}

/// The per-site table sizes the engine samples (`core.*`, `rb.*`,
/// `abcast.*`, `ring.*`), closed loop on uniform keys with
/// `txns_per_client` transactions from each of 4 clients at each of 5
/// sites: per gauge, its largest value over all sites and 1 ms samples of
/// the run, and its largest value over the sites once the cluster is quiet.
fn table_sizes(
    proto: ProtocolKind,
    txns_per_client: usize,
) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let cfg = WorkloadConfig {
        n_keys: 500,
        theta: 0.0,
        reads_per_txn: 2,
        writes_per_txn: 2,
        readonly_fraction: 0.0,
        ..WorkloadConfig::default()
    };
    let mut c = Cluster::builder()
        .sites(5)
        .protocol(proto)
        .seed(11)
        .metrics(SimDuration::from_millis(1))
        .build();
    let report = WorkloadRun::new(cfg, 11).closed_loop(&mut c, 4, txns_per_client);
    assert!(report.quiesced && report.converged && report.all_terminated());
    let fold = |samples: &[Sample]| {
        let mut max = BTreeMap::new();
        for (name, &v) in samples.iter().flat_map(|s| &s.values) {
            let gauge = name.split_once('.').map_or("", |(_site, gauge)| gauge);
            if ["core.", "rb.", "abcast.", "ring."]
                .iter()
                .any(|p| gauge.starts_with(p))
            {
                let m = max.entry(gauge.to_owned()).or_insert(0);
                *m = v.max(*m);
            }
        }
        max
    };
    (fold(&c.metrics_samples()), fold(&[quiet_pull(&c)]))
}

/// What a replica keeps per transaction and per message must be released
/// when the transaction is decided and the message delivered: every
/// `*_live` table is empty at quiescence, and none holds more at its
/// fullest when the run is four times as long. (A `RemoteTxn` kept past
/// its decision, or a set of every message id ever received, grows 4x.)
/// The tables that keep history on purpose must at least be reported.
#[test]
fn live_tables_do_not_grow_with_history() {
    for proto in ProtocolKind::ALL {
        let (short, _) = table_sizes(proto, 15);
        let (long, quiet) = table_sizes(proto, 60);
        assert!(short["core.remote_live"] > 0, "{proto}: the gauge is wired");
        assert_eq!(quiet["core.decided_len"], 1200, "{proto}: one outcome each");
        for (gauge, &at_rest) in quiet.iter().filter(|(g, _)| g.ends_with("_live")) {
            assert_eq!(at_rest, 0, "{proto}: {gauge} at quiescence");
            let (s, l) = (short[gauge], long[gauge]);
            assert!(
                l as f64 <= 1.25 * s as f64,
                "{proto}: {gauge} peaked at {s} over the short run and {l} over one 4x as long"
            );
        }
        let expected: &[&str] = match proto {
            ProtocolKind::ReliableBcast => &["rb.dedup_live", "rb.archive_len"],
            ProtocolKind::AtomicBcast => &["abcast.dedup_live"],
            _ => &[],
        };
        for gauge in expected {
            assert!(quiet.contains_key(*gauge), "{proto}: no {gauge} gauge");
        }
    }
}

/// What the 1SR check does on a serial history of `txns` transactions that
/// each read and then overwrite the same key, installed at three replicas:
/// its work counts, and the history's reads + writes.
fn sg_work_on_one_hot_key(txns: u64) -> (SgWork, u64) {
    let hot = Key::new("hot");
    let mut store = Store::new();
    let mut commits = Vec::new();
    for i in 1..=txns {
        let txn = TxnId::new(SiteId(i as usize % 3), i);
        let writes = vec![WriteOp {
            key: hot.clone(),
            value: i as i64,
        }];
        commits.push((txn, vec![(hot.clone(), store.read(&hot).writer)], writes));
        store.apply(txn, &commits.last().expect("just pushed").2);
    }
    let mut h = HistoryRecorder::new();
    for (txn, reads, writes) in &commits {
        h.record_commit_ref(*txn, reads, writes);
    }
    for site in 0..3 {
        h.record_site_order(SiteId(site), &store);
    }
    (h.check_work().expect("a serial history is 1SR"), 2 * txns)
}

/// The 1SR check places each committed read and write by looking at the
/// installs of one writer, not by scanning the key's install order: on a
/// key every transaction writes it examines about one entry per operation,
/// and a history four times as long costs four times as much. (The
/// `position` per read and `contains` per write it once ran grow 16x here.)
#[test]
fn sg_check_work_is_linear_on_a_hot_key() {
    let (short, short_ops) = sg_work_on_one_hot_key(500);
    let (long, long_ops) = sg_work_on_one_hot_key(2_000);
    for (work, ops) in [(short, short_ops), (long, long_ops)] {
        assert!(work.edges > 0, "the counters are wired: {work:?}");
        assert!(
            work.order_entries_examined as f64 <= 1.05 * ops as f64,
            "{} install-order entries examined for {ops} reads + writes",
            work.order_entries_examined
        );
    }
    // Each read but the first looks at its writer's one install, each write
    // at its own; a ww and a wr edge join each transaction to the next.
    assert_eq!(short.order_entries_examined, 499 + 500);
    assert_eq!(short.edges, 499 + 499);
    let total = |w: SgWork| (w.order_entries_examined + w.edges) as f64;
    assert!(
        total(long) <= 4.2 * total(short),
        "entries examined + edges grew {:.2}x ({short:?} -> {long:?}) over a 4x longer history",
        total(long) / total(short)
    );
}
