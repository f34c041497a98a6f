//! The experiment table and its one driver, tested as they ship: the
//! table's names and order are pinned, cheap entries are rendered and held
//! against the committed `results/` and `experiments_output.txt`, and the
//! `run_all` / `chaos` command lines keep the 0 / 1 / 2 exit contract.

use bcastdb_bench::experiments::{Experiment, Options, Run, ALL};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const NAMES: [&str; 13] = [
    "t1_messages",
    "t2_failures",
    "t3_latency_breakdown",
    "f1_latency_vs_n",
    "f2_throughput",
    "f3_aborts",
    "f4_implicit_ack",
    "f5_readonly",
    "f6_batching",
    "a1_abcast_impl",
    "a2_conflict_policy",
    "a3_loss_tolerance",
    "chaos",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed(file: &str) -> String {
    let path = repo_root().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A scratch directory of this test process, emptied.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcastdb-table-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn the_table_is_the_thirteen_names_in_canonical_order() {
    let names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
    assert_eq!(names, NAMES);
    for (i, name) in NAMES.iter().enumerate() {
        assert!(!NAMES[..i].contains(name), "{name} is listed twice");
        // Every name resolves to itself, and so does its shortest prefix
        // no other name shares ("t1", "f6", "ch", ...).
        assert_eq!(Experiment::resolve(name).expect("exact").name, *name);
        let unique = (1..=name.len())
            .map(|len| &name[..len])
            .find(|prefix| NAMES.iter().filter(|n| n.starts_with(prefix)).count() == 1)
            .expect("some prefix is unique");
        assert_eq!(Experiment::resolve(unique).expect("prefix").name, *name);
    }
}

/// Every committed CSV belongs to exactly one entry (its name is the
/// file's prefix, as in `t1_messages_amortized.csv`), every entry has one,
/// and the committed transcript records each file being written once.
#[test]
fn every_results_file_belongs_to_exactly_one_entry() {
    let transcript = committed("experiments_output.txt");
    let mut stems: Vec<String> = std::fs::read_dir(repo_root().join("results"))
        .expect("results/")
        .map(|entry| entry.expect("dir entry").path())
        .map(|path| {
            assert_eq!(path.extension().and_then(|e| e.to_str()), Some("csv"));
            path.file_stem()
                .expect("stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    stems.sort();
    for stem in &stems {
        let owners: Vec<&str> = NAMES
            .iter()
            .copied()
            .filter(|n| stem.starts_with(n))
            .collect();
        assert_eq!(
            owners.len(),
            1,
            "results/{stem}.csv is claimed by {owners:?}"
        );
        let line = format!("(written to results/{stem}.csv)\n");
        assert_eq!(transcript.matches(&line).count(), 1, "{line}");
    }
    for name in NAMES {
        assert!(stems.iter().any(|s| s == name), "no results/{name}.csv");
    }
}

/// What `name` contributes to `experiments_output.txt`: from its banner to
/// the next entry's.
fn transcript_slice<'a>(transcript: &'a str, name: &str) -> &'a str {
    let banner = |n: &str| format!("\n== {n} ==\n");
    let start = transcript.find(&banner(name)).expect("entry's banner");
    let index = NAMES.iter().position(|n| *n == name).expect("a table name");
    let end = NAMES.get(index + 1).map_or(transcript.len(), |next| {
        transcript.find(&banner(next)).expect("next entry's banner")
    });
    &transcript[start..end]
}

/// Cheap entries rendered in-process reproduce the committed artifacts to
/// the byte: their CSVs, and their slice of the transcript (a3's includes
/// the free-form paragraph after the table).
#[test]
fn cheap_entries_reproduce_the_committed_results() {
    let transcript = committed("experiments_output.txt");
    for name in ["a2_conflict_policy", "f3_aborts", "a3_loss_tolerance"] {
        let dir = scratch(name);
        let opts = Options {
            jobs: 2,
            results_dir: Some(dir.clone()),
            ..Options::default()
        };
        let exp = Experiment::resolve(name).expect("a table entry");
        let run = Run::execute(exp.name, &opts, exp.run);
        assert_eq!(run.failure(), None, "{name}");
        let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).expect("csv written");
        assert_eq!(csv, committed(&format!("results/{name}.csv")), "{name}.csv");
        let printed = run.output().replace(&dir.display().to_string(), "results");
        assert_eq!(printed, transcript_slice(&transcript, name), "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The directory the calling test's tools run in: one per test (tests run
/// on threads named after them), so no test empties another's.
fn cwd() -> PathBuf {
    let test = std::thread::current().name().map(str::to_owned);
    let dir = std::env::temp_dir().join(format!(
        "bcastdb-table-{}-cwd-{}",
        std::process::id(),
        test.expect("tests run on named threads").replace("::", "-")
    ));
    std::fs::create_dir_all(&dir).expect("tool cwd");
    dir
}

fn tool(exe: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env_remove("BCASTDB_JOBS")
        .env_remove("BCASTDB_RESULTS_DIR")
        .current_dir(cwd());
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("spawn the tool")
}

/// Exit 2, exactly one line on stderr that contains `needle`, no panic,
/// nothing on stdout.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn run_all_usage_errors_exit_2_with_one_line() {
    let run_all = env!("CARGO_BIN_EXE_run_all");
    for (args, env, needle) in [
        (&["--no-such-flag"][..], &[][..], "unknown argument"),
        (&["--only"], &[], "--only needs a value"),
        (
            &["--only", "t3", "--trace-out"],
            &[],
            "--trace-out needs a value",
        ),
        (
            &["--only", "t3", "--metrics-out"],
            &[],
            "--metrics-out needs a value",
        ),
        (
            &["--only", "t9_nope"],
            &[],
            "unknown experiment \"t9_nope\"",
        ),
        (&["--only", "f"], &[], "ambiguous experiment \"f\""),
        (&["--only", "a2,zz"], &[], "unknown experiment \"zz\""),
        (
            &["--only", "a2"],
            &[("BCASTDB_JOBS", "zero")],
            "BCASTDB_JOBS=\"zero\"",
        ),
        (
            &["--only", "a2"],
            &[("BCASTDB_JOBS", "0")],
            "BCASTDB_JOBS=\"0\"",
        ),
        (&["--smoke"], &[], "need --only"),
        (
            &["--only", "a2,f3", "--trace-out", "x"],
            &[],
            "single experiment",
        ),
    ] {
        let out = tool(run_all, args, env);
        assert_usage_error(&out, needle);
        if needle.contains("experiment \"") {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(NAMES.iter().all(|n| stderr.contains(n)), "{stderr}");
        }
    }
}

/// The drift this driver replaced: `f3_aborts --trace-out x.jsonl
/// --no-such-flag` used to exit 0 and write nothing. A bad flag now stops
/// the run before anything executes or is written.
#[test]
fn a_trailing_bad_flag_is_not_ignored() {
    let args = ["--only", "f3_aborts", "--trace-out", "x.jsonl", "--bogus"];
    let out = tool(env!("CARGO_BIN_EXE_run_all"), &args, &[]);
    assert_usage_error(&out, "unknown argument \"--bogus\"");
    assert_eq!(std::fs::read_dir(cwd()).expect("cwd").count(), 0);
}

#[test]
fn chaos_usage_errors_exit_2_with_one_line() {
    let chaos = env!("CARGO_BIN_EXE_chaos");
    for (args, env, needle) in [
        (&["--bogus"][..], &[][..], "unknown argument"),
        (&["--seeds"], &[], "--seeds needs a value"),
        (&["--seeds", "many"], &[], "--seeds wants a number"),
        (&["--seed", "-1"], &[], "--seed wants a number"),
        (&["--artifacts"], &[], "--artifacts needs a value"),
        (&["--replay"], &[], "--replay needs a value"),
        (
            &["--replay", "nope|drop(0.5)@0>1@0..10"],
            &[],
            "unknown cell",
        ),
        (&["--replay", "causal|garbage"], &[], "bad clause"),
        (
            &["--seeds", "1"],
            &[("BCASTDB_JOBS", "zero")],
            "BCASTDB_JOBS",
        ),
    ] {
        assert_usage_error(&tool(chaos, args, env), needle);
    }
}

/// `--only` by prefix: the table on stdout (the same bytes the full suite
/// records, minus the "written to" line), a timing line per sweep on
/// stderr, and no file written without `BCASTDB_RESULTS_DIR`.
#[test]
fn only_prints_to_stdout_and_times_on_stderr() {
    let out = tool(
        env!("CARGO_BIN_EXE_run_all"),
        &["--only", "a2", "--timing"],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let transcript = committed("experiments_output.txt");
    let expect = transcript_slice(&transcript, "a2_conflict_policy")
        .replace("(written to results/a2_conflict_policy.csv)\n", "");
    assert_eq!(String::from_utf8_lossy(&out.stdout), expect);
    assert!(
        stderr.contains("[bench] a2_conflict_policy: 10 runs, "),
        "{stderr}"
    );
    assert!(
        stderr.contains("[sweep-timing] a2_conflict_policy run 9: "),
        "{stderr}"
    );
    assert_eq!(std::fs::read_dir(cwd()).expect("cwd").count(), 0);
}

/// A results directory that cannot be created (its parent is a regular
/// file) fails the run with exit 1 — it used to be a green run with no
/// CSVs.
#[test]
fn an_unwritable_results_dir_exits_1() {
    let file = scratch("unwritable").join("regular-file");
    std::fs::write(&file, "not a directory").expect("regular file");
    let dir = file.join("results");
    let env = [("BCASTDB_RESULTS_DIR", dir.to_str().expect("utf-8 temp dir"))];
    let out = tool(env!("CARGO_BIN_EXE_run_all"), &["--only", "a2"], &env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("run_all: a2_conflict_policy: writing CSV"),
        "{stderr}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("written to"));
}
