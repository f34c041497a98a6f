//! The experiment table and its one driver, tested as they ship: the
//! table's names and order are pinned, cheap entries are rendered and held
//! against the committed `results/` and `experiments_output.txt`, and the
//! `run_all` / `chaos` / `bcast-trace` command lines keep the 0 / 1 / 2 exit
//! contract — the last one also on hostile files, with a mutation sweep
//! over the JSON readers behind it — and the fault-plan grammar behind
//! `chaos --replay` gets a sweep of its own.

use bcastdb_bench::experiments::{Experiment, Options, Run, ALL};
use bcastdb_bench::faultplan::{parse_plan, plan_to_string};
use bcastdb_bench::perfdiff::WallclockLedger;
use bcastdb_sim::json::{self, Json};
use bcastdb_sim::stats::Sample;
use bcastdb_sim::telemetry::TraceEvent;
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
            &["--replay", "reliable|drop(0.5)@0>1@0.."],
            &[],
            "time must be integer µs",
        ),
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

const SUBMIT: &str = r#"{"ev":"submit","at":0,"origin":0,"num":1,"ro":false}"#;
const COMMIT: &str = r#"{"ev":"commit","at":5,"site":0,"origin":0,"num":1}"#;
const CAFE: &str = r#"{"ev":"abort","at":1,"site":0,"origin":0,"num":1,"reason":"café"}"#;
const TRAILER: &str = r#"{"type":"trace_meta","events":2,"ring_evicted":0}"#;
const LEDGER: &str = r#"{ "git_rev": "abc", "jobs": 1, "total_wall_ms": 2.5, "experiments": [
  { "experiment": "t1", "events": 1509, "wall_ms": 2.2, "events_per_sec": 681322.6, "allocs_per_event": 5.8 }
] }"#;

/// Writes `lines` (newline-terminated) to `name` in the test's directory.
fn file(name: &str, lines: &[&str]) -> String {
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(cwd().join(name), text).expect("input file");
    name.to_owned()
}

/// Unreadable, empty, truncated, trailing-garbage and inconsistent inputs
/// are exit 2 with one line — never a panic, a stack overflow or a silent
/// coercion.
#[test]
fn bcast_trace_refuses_hostile_input_with_exit_2() {
    let bcast_trace = env!("CARGO_BIN_EXE_bcast-trace");
    let good = file("good.jsonl", &[SUBMIT, COMMIT, TRAILER]);
    let good_ledger = repo_root().join("BENCH_wallclock.json");
    let good_ledger = good_ledger.to_str().expect("utf-8 repo path");
    let ledger = |name: &str, from: &str, to: &str| {
        assert!(LEDGER.contains(from), "{from}");
        file(name, &[&LEDGER.replacen(from, to, 1)])
    };
    for (input, needle) in [
        ("no-such-file.jsonl".to_owned(), "cannot read"),
        (file("empty.jsonl", &[]), "empty trace"),
        (
            file("cut.jsonl", &[SUBMIT, &COMMIT[..30]]),
            "cut.jsonl:2: bad trace line",
        ),
        (
            file("tail.jsonl", &[&format!("{SUBMIT} x")]),
            "trailing bytes",
        ),
        (
            file("twice.jsonl", &[SUBMIT, COMMIT, TRAILER, TRAILER]),
            "duplicate trace_meta",
        ),
        (
            file("after.jsonl", &[SUBMIT, TRAILER, COMMIT]),
            "event line after",
        ),
        (
            file("short.jsonl", &[SUBMIT, TRAILER]),
            "claims 2 events but 1 were parsed",
        ),
        (
            file(
                "meta.jsonl",
                &[SUBMIT, r#"{"type":"trace_meta","events":"1"}"#],
            ),
            "\"events\"",
        ),
        (
            file("deep.jsonl", &[&"[".repeat(200_000)]),
            "nesting too deep",
        ),
        (
            file(
                "far.jsonl",
                &[&SUBMIT.replace("\"origin\":0", "\"origin\":1152921504606846976")],
            ),
            "site index 1152921504606846976 is out of range",
        ),
    ] {
        assert_usage_error(&tool(bcast_trace, &["check", &input], &[]), needle);
        assert_usage_error(&tool(bcast_trace, &["summary", &input], &[]), needle);
    }
    for (input, needle) in [
        (
            file("deep.json", &[&"[".repeat(200_000)]),
            "nesting too deep",
        ),
        (file("cut.json", &[&LEDGER[..100]]), "cut.json: "),
        (
            ledger("neg.json", "\"jobs\": 1,", "\"jobs\": -1,"),
            "\"jobs\": expected an unsigned",
        ),
        (
            ledger("half.json", "\"jobs\": 1,", "\"jobs\": 2.5,"),
            "\"jobs\": expected an unsigned",
        ),
        (
            ledger("big.json", "\"events\": 1509,", "\"events\": 1e30,"),
            "\"events\": expected",
        ),
        (
            ledger("rev.json", "\"git_rev\": \"", "\"git_rev\": 7, \"x\": \""),
            "\"git_rev\"",
        ),
    ] {
        assert_usage_error(
            &tool(bcast_trace, &["perf-diff", &input, good_ledger], &[]),
            needle,
        );
        assert_usage_error(
            &tool(bcast_trace, &["perf-diff", good_ledger, &input], &[]),
            needle,
        );
    }
    let samples = file("samples.jsonl", &[r#"{"t":1000,"v":{"queue_depth":-3}}"#]);
    let export = ["export", &good, "out.json", "--metrics", &samples];
    assert_usage_error(
        &tool(bcast_trace, &export, &[]),
        "samples.jsonl:1: bad metrics line",
    );
    assert!(!cwd().join("out.json").exists(), "nothing exported");
}

/// The other two exit codes, and a non-ASCII abort reason surviving the
/// trip through the reader and the Perfetto writer.
#[test]
fn bcast_trace_exits_0_on_good_input_and_1_on_a_failed_check() {
    let bcast_trace = env!("CARGO_BIN_EXE_bcast-trace");
    let good = file("good.jsonl", &[SUBMIT, COMMIT, TRAILER]);
    let out = tool(bcast_trace, &["check", &good], &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 events, invariants hold"));

    let twice = file("twice.jsonl", &[SUBMIT, COMMIT, COMMIT]);
    let out = tool(bcast_trace, &["check", &twice], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("invariant violated: transaction s0:1 terminated 2 times"),
        "{stderr}"
    );

    let ledger = repo_root().join("BENCH_wallclock.json");
    let ledger = ledger.to_str().expect("utf-8 repo path");
    let out = tool(bcast_trace, &["perf-diff", ledger, ledger], &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("perf-diff: ok (14 experiments"));

    let cafe = file("cafe.jsonl", &[SUBMIT, CAFE]);
    let out = tool(bcast_trace, &["export", &cafe, "cafe.json"], &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let exported = std::fs::read_to_string(cwd().join("cafe.json")).expect("export written");
    assert!(exported.contains(r#""reason":"café""#), "{exported}");
}

/// One good line per `TraceEvent` variant, as the writer spells it.
const TRACE_LINES: [&str; 16] = [
    r#"{"ev":"send","at":3,"from":0,"to":1,"phase":"prepare"}"#,
    r#"{"ev":"deliver","at":4,"from":0,"to":1,"phase":"vote"}"#,
    r#"{"ev":"drop","at":8,"from":1,"to":2,"phase":"retransmit"}"#,
    r#"{"ev":"batch","at":12,"from":0,"to":1,"msgs":3,"bytes":200}"#,
    r#"{"ev":"submit","at":1,"origin":0,"num":1,"ro":true}"#,
    r#"{"ev":"locks","at":2,"origin":0,"num":1}"#,
    r#"{"ev":"commit_req","at":2,"origin":0,"num":1}"#,
    r#"{"ev":"vote","at":5,"site":1,"origin":0,"num":1,"yes":true}"#,
    r#"{"ev":"decided","at":6,"site":1,"origin":0,"num":1,"commit":false}"#,
    r#"{"ev":"commit","at":7,"site":0,"origin":0,"num":1}"#,
    r#"{"ev":"abort","at":9,"site":0,"origin":0,"num":2,"reason":"café \"q\" \n"}"#,
    r#"{"ev":"total_order","at":6,"site":0,"origin":0,"num":1,"gseq":18446744073709551615}"#,
    r#"{"ev":"view","at":10,"site":1,"members":[0,1]}"#,
    r#"{"ev":"crash","at":11,"site":2}"#,
    r#"{"ev":"suspect","at":13,"site":0,"suspect":2}"#,
    r#"{"ev":"fast_decide","at":14,"site":0,"origin":1,"num":3}"#,
];
const SAMPLE_LINE: &str =
    r#"{"t":1000,"v":{"queue_depth":200,"s0.lock_keys":0},"h":{"batch.flush_msgs":[[1,5],[4,2]]}}"#;

/// Every prefix of `good`, and every byte of it replaced by each byte of a
/// small structural alphabet; only what is still UTF-8 can reach a reader
/// (the tools read files as strings).
fn mutations(good: &str) -> impl Iterator<Item = String> + '_ {
    const ALPHABET: &[u8] = b"{}[]\"\\,:0e-\x00\xC3";
    let prefixes = (0..good.len()).map(move |cut| good.as_bytes()[..cut].to_vec());
    let substitutions = (0..good.len()).flat_map(move |at| {
        ALPHABET.iter().map(move |&byte| {
            let mut bytes = good.as_bytes().to_vec();
            bytes[at] = byte;
            bytes
        })
    });
    prefixes
        .chain(substitutions)
        .filter_map(|bytes| String::from_utf8(bytes).ok())
}

/// `value` as JSON text, through the product escaper.
fn encode(value: &Json, out: &mut String) {
    let mut list = |open: char, items: &mut dyn Iterator<Item = (Option<&String>, &Json)>| {
        out.push(open);
        for (i, (key, item)) in items.enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            if let Some(key) = key {
                json::write_str(out, key);
                out.push(':');
            }
            encode(item, out);
        }
    };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(&b.to_string()),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Num(x) => out.push_str(&format!("{x:?}")),
        Json::Str(s) => json::write_str(out, s),
        Json::Arr(items) => {
            list('[', &mut items.iter().map(|v| (None, v)));
            out.push(']');
        }
        Json::Obj(members) => {
            list('{', &mut members.iter().map(|(k, v)| (Some(k), v)));
            out.push('}');
        }
    }
}

/// ROADMAP item 4, the JSON half: no mutation of a good trace line, sample
/// line or ledger makes a reader panic, and whatever a reader still accepts
/// survives its own writer — encode, parse again, same value.
#[test]
fn mutated_json_never_panics_and_accepted_values_round_trip() {
    let (mut tried, mut accepted) = (0u32, 0u32);
    // The committed ledger cut to its header and first two rows: the other
    // twelve repeat the second's structure and only multiply the run time.
    let ledger = committed("BENCH_wallclock.json");
    let lines: Vec<&str> = ledger.lines().collect();
    let (head, row) = (lines[..8].join("\n"), lines[8].trim_end_matches(','));
    let ledger = format!("{head}\n{row}\n  ]\n}}\n");
    let parsed = WallclockLedger::parse(&ledger).expect("the cut ledger parses");
    assert_eq!(parsed.experiments.len(), 2);
    for line in TRACE_LINES {
        let ev = TraceEvent::from_jsonl(line).expect(line);
        assert_eq!(ev.to_jsonl(), line, "the writer's spelling");
    }
    for good in TRACE_LINES.iter().copied().chain([SAMPLE_LINE, &ledger]) {
        for text in mutations(good) {
            tried += 1;
            if let Ok(value) = json::parse(&text) {
                accepted += 1;
                let mut again = String::new();
                encode(&value, &mut again);
                assert_eq!(json::parse(&again), Ok(value), "{text:?} -> {again:?}");
            }
            if let Ok(ev) = TraceEvent::from_jsonl(&text) {
                let again = ev.to_jsonl();
                assert!(!again.contains('\n'), "one event, one line: {again:?}");
                assert_eq!(
                    TraceEvent::from_jsonl(&again),
                    Ok(ev),
                    "{text:?} -> {again:?}"
                );
            }
            if let Ok(sample) = Sample::from_jsonl(&text) {
                let again = sample.to_jsonl();
                assert_eq!(
                    Sample::from_jsonl(&again),
                    Ok(sample),
                    "{text:?} -> {again:?}"
                );
            }
            if let Ok(parsed) = WallclockLedger::parse(&text) {
                let finite = |x: f64| assert!(x.is_finite(), "{text:?}");
                finite(parsed.total_wall_ms);
                parsed
                    .experiments
                    .iter()
                    .for_each(|e| finite(e.events_per_sec));
            }
        }
    }
    assert!(
        tried > 20_000 && accepted > 1_000,
        "{tried} tried, {accepted} accepted"
    );
}

/// Every prefix of `good`, and every byte of it replaced by each byte of
/// the fault-plan grammar's alphabet.
fn plan_mutations(good: &str) -> impl Iterator<Item = String> + '_ {
    const ALPHABET: &[u8] = b";@>.*(),0159e-+ a";
    let prefixes = (0..good.len()).map(move |cut| good[..cut].to_owned());
    let substitutions = (0..good.len()).flat_map(move |at| {
        ALPHABET.iter().map(move |&byte| {
            let mut bytes = good.as_bytes().to_vec();
            bytes[at] = byte;
            String::from_utf8(bytes).expect("an ASCII plan stays UTF-8")
        })
    });
    prefixes.chain(substitutions)
}

/// ROADMAP item 9, the fault-plan half: no mutation of a good plan makes
/// `parse_plan` panic, and every plan it still accepts survives its own
/// writer — render, parse again, same plan, same text.
#[test]
fn mutated_fault_plans_never_panic_and_accepted_plans_round_trip() {
    let (mut tried, mut accepted) = (0u32, 0u32);
    for good in [
        "drop(0.25)@1>2@0..600000;dup(0.1,2500)@*>*@50000..150000",
        "reorder(0.5,300)@0>*@10..20;burst@*>1@5..6",
        "spike(1,99)@2>0@0..18446744073709551615",
    ] {
        assert!(parse_plan(good).is_ok(), "{good}");
        for text in plan_mutations(good) {
            tried += 1;
            if let Ok(plan) = parse_plan(&text) {
                accepted += 1;
                let again = plan_to_string(&plan);
                assert_eq!(parse_plan(&again), Ok(plan), "{text:?} -> {again:?}");
                assert_eq!(plan_to_string(&parse_plan(&again).unwrap()), again);
            }
        }
    }
    assert!(
        tried > 1_500 && accepted > 300,
        "{tried} tried, {accepted} accepted"
    );
}
