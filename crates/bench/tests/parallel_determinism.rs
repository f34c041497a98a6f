//! Parallel-harness regression tests: a sweep run on worker threads must
//! be indistinguishable — to the byte — from the serial run, and the
//! JSONL trace stream must survive a cluster that is dropped without an
//! explicit flush.

use bcastdb_bench::experiments::{Experiment, Options, Run};
use bcastdb_bench::Sweep;
use bcastdb_core::{Cluster, ProtocolKind, TxnSpec};
use bcastdb_sim::SimDuration;
use bcastdb_sim::SiteId;
use bcastdb_workload::{WorkloadConfig, WorkloadRun};
use std::path::Path;

/// Runs the table entry `name` with `jobs` sweep workers, mirroring its
/// CSVs into a fresh directory, and returns what it printed (with the
/// directory's name taken out of the "written to" lines) and every CSV
/// it wrote, by file name.
fn rendered(name: &str, jobs: usize) -> (String, Vec<(String, String)>) {
    let dir = std::env::temp_dir().join(format!(
        "bcastdb-determinism-{}-{name}-{jobs}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = Options {
        jobs,
        results_dir: Some(dir.clone()),
        ..Options::default()
    };
    let exp = Experiment::resolve(name).expect("a table entry");
    let run = Run::execute(exp.name, &opts, exp.run);
    assert_eq!(run.failure(), None, "{name} at {jobs} job(s)");
    assert!(run.ledger().iter().all(|row| row.jobs == jobs), "{name}");
    let mut csvs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("results dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let file = path.file_name().expect("file name").to_string_lossy();
            (
                file.into_owned(),
                std::fs::read_to_string(&path).expect("csv"),
            )
        })
        .collect();
    csvs.sort();
    let _ = std::fs::remove_dir_all(&dir);
    let dir_text = Path::new(&dir).display().to_string();
    (run.output().replace(&dir_text, "<results>"), csvs)
}

/// Real table entries run serially and with four workers must print the
/// same bytes and write the same CSV bytes. This is the determinism
/// contract the parallel harness sells: `BCASTDB_JOBS` may change
/// wall-clock, never results. f1 is the widest plain sweep; t1 has two
/// sweeps and a free-form paragraph between them; f6 evaluates its
/// assertions and rows after the sweep, from the collected results.
#[test]
fn table_entries_are_identical_serial_and_parallel() {
    for name in ["f1_latency_vs_n", "t1_messages", "f6_batching"] {
        let (serial_out, serial_csvs) = rendered(name, 1);
        let (parallel_out, parallel_csvs) = rendered(name, 4);
        assert!(!serial_csvs.is_empty(), "{name} wrote no CSV");
        assert_eq!(
            serial_out, parallel_out,
            "{name}: output differs between serial and 4-job runs"
        );
        assert_eq!(
            serial_csvs, parallel_csvs,
            "{name}: CSV bytes differ between serial and 4-job runs"
        );
    }
}

/// One metrics-sampled run: the same F1-style workload with the
/// deterministic sampler on at a 1 ms virtual-time interval, rendered to
/// the exact JSONL bytes `--metrics-out` would write.
fn metrics_run(n: usize, proto: ProtocolKind) -> String {
    let cfg = WorkloadConfig {
        n_keys: 1000,
        theta: 0.6,
        reads_per_txn: 2,
        writes_per_txn: 2,
        readonly_fraction: 0.0,
        ..WorkloadConfig::default()
    };
    let mut cluster = Cluster::builder()
        .sites(n)
        .protocol(proto)
        .metrics(SimDuration::from_millis(1))
        .seed(7)
        .build();
    let run = WorkloadRun::new(cfg, 70 + n as u64);
    let report = run.open_loop(&mut cluster, 30, SimDuration::from_millis(20));
    assert!(report.quiesced, "{proto}@{n} did not quiesce");
    bcastdb_sim::stats::render_jsonl(&cluster.metrics_samples())
}

/// The metrics sampler rides the virtual clock, so its JSONL output must
/// be byte-identical at any worker count — the same contract as the CSV
/// tables, extended to the observability stream.
#[test]
fn metrics_jsonl_is_identical_serial_and_parallel() {
    let mut configs = Vec::new();
    for n in [3usize, 5] {
        for proto in ProtocolKind::ALL {
            configs.push((n, proto));
        }
    }
    let serial = Sweep::with_jobs(1).run(configs.clone(), |&(n, p)| metrics_run(n, p));
    let parallel = Sweep::with_jobs(4).run(configs.clone(), |&(n, p)| metrics_run(n, p));
    for (i, (jsonl_s, jsonl_p)) in serial.results.iter().zip(&parallel.results).enumerate() {
        let (n, proto) = configs[i];
        assert!(
            !jsonl_s.is_empty(),
            "{proto}@{n}: sampled run produced no metrics"
        );
        assert_eq!(
            jsonl_s, jsonl_p,
            "{proto}@{n}: metrics JSONL differs between serial and 4-job runs"
        );
    }
}

/// Dropping a cluster without calling `finish_trace_jsonl` must still
/// leave a complete, well-formed trace file behind: the JSONL sink writes
/// its pending block on drop.
#[test]
fn trace_jsonl_flushes_on_drop() {
    let path =
        std::env::temp_dir().join(format!("bcastdb-drop-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut cluster = Cluster::builder()
            .sites(3)
            .protocol(ProtocolKind::ReliableBcast)
            .trace(1024)
            .trace_jsonl(&path)
            .seed(5)
            .build();
        cluster.submit(SiteId(0), TxnSpec::new().write("x", 1));
        cluster.run_to_quiescence();
        // No finish_trace_jsonl: the cluster (and its sink) drops here.
    }
    let text = std::fs::read_to_string(&path).expect("trace file exists after drop");
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "dropped trace file is empty");
    assert!(text.ends_with('\n'), "dropped trace file ends mid-line");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "incomplete JSONL line after drop: {line:?}"
        );
    }
}
