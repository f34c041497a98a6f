#!/usr/bin/env python3
"""The repo benchmark's one command. Run it from the root of the checkout.

    python3 benchmark/run.py                  every workload, both passes
    python3 benchmark/run.py --check-repeat   the end-to-end pass twice, compared
    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                              one workload, one pass; the last
                                              line of stdout is the result JSON

Every form builds the package under benchmark/ first (into
$CARGO_TARGET_DIR, default <root>/target) and runs one process per workload
and pass. Results land in benchmark/out/. The exit code is non-zero when the
build fails, a validation fails, or --check-repeat finds a disagreement.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BINARY = "bcastdb-benchmark"
# Measured on wall clock or process memory; everything else is virtual time
# or a count and must repeat exactly for a given seed.
HOST_METRICS = {"txns_per_sec", "peak_rss_mb", "setup_s"}
# The 1SR checker iterates std HashMaps, whose order differs from process to
# process, so a repetition's allocation count moves by a handful in a million.
ALMOST_EXACT = {"allocs_per_txn": 1e-4}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark package; returns the path of its binary."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        log("run.py: building benchmark/ failed")
        sys.exit(1)
    return os.path.join(target, "release", BINARY)


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def command(binary, workload, seed, seconds, trace):
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", OUT]


def run_pass(binary, workload, seed, seconds, trace, echo):
    """One process: one workload, one pass. Returns (exit code, result)."""
    done = subprocess.run(command(binary, workload, seed, seconds, trace), stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode or 1, None
    return done.returncode, result


def check_shape(spec, result, trace):
    """The result must name exactly the metrics BENCHMARK.json promises."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return [] if want == got else [
        "metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(n for n in set(want) & set(got) if want[n] != got[n]))]


def run_set(binary, spec, seed, seconds, passes, echo):
    """Runs every workload through `passes`; returns (results, failures)."""
    results, failures = {}, []
    for w in (w["name"] for w in spec["workloads"]):
        results[w] = {}
        for trace in passes:
            log("run.py: %s, %s pass" % (w, "per-layer" if trace else "end-to-end"))
            code, result = run_pass(binary, w, seed, seconds, trace, echo)
            if result is None:
                failures.append("%s --trace %d: no result (exit %d)" % (w, trace, code))
                continue
            results[w]["per_layer" if trace else "end_to_end"] = result
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append("%s --trace %d: validation failed (exit %d)" % (w, trace, code))
            failures += ["%s --trace %d: %s" % (w, trace, m) for m in check_shape(spec, result, trace)]
    return results, failures


def check_repeat(binary, spec, seed, seconds):
    """Two end-to-end sets back to back, compared metric by metric.

    A count or virtual-time metric that differs is a failure: the run is not
    deterministic. A host metric further apart than its bound is reported as
    unresolved: the machine was too noisy to tell, which is not a verdict on
    the code.
    """
    first, fail_a = run_set(binary, spec, seed, seconds, [0], False)
    second, fail_b = run_set(binary, spec, seed, seconds, [0], False)
    failures = fail_a + fail_b
    unresolved = 0
    print("%-14s %-24s %16s %16s  %s" % ("workload", "metric", "first", "second", "verdict"))
    for w in first:
        a = first[w].get("end_to_end", {}).get("metrics", {})
        b = second[w].get("end_to_end", {}).get("metrics", {})
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in a or name not in b:
                continue
            x, y = a[name]["value"], b[name]["value"]
            if name in HOST_METRICS:
                apart = abs(y - x) / x
                if apart <= m["bound"]:
                    verdict = "within %g%%" % (100 * m["bound"])
                else:
                    verdict = "UNRESOLVED (%.1f%% apart)" % (100 * apart)
                    unresolved += 1
            elif abs(y - x) <= ALMOST_EXACT.get(name, 0) * abs(x):
                verdict = "identical" if x == y else "identical to 1 in %g" % (1 / ALMOST_EXACT[name])
            else:
                verdict = "DIFFERS"
                failures.append("%s %s: %r vs %r" % (w, name, x, y))
            print("%-14s %-24s %16.6f %16.6f  %s" % (w, name, x, y, verdict))
    if unresolved:
        log("run.py: %d host metrics unresolved: run again on a quieter machine" % unresolved)
    return failures


def main():
    spec = contract()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check-repeat", action="store_true")
    args = ap.parse_args()
    binary = build()
    os.makedirs(OUT, exist_ok=True)

    if args.workload:
        # Driver form: the binary's own stdout, result line last.
        return subprocess.run(command(binary, args.workload, args.seed, args.seconds, args.trace)).returncode

    if args.check_repeat:
        failures = check_repeat(binary, spec, args.seed, args.seconds)
    else:
        results, failures = run_set(binary, spec, args.seed, args.seconds, [0, 1], True)
        with open(os.path.join(OUT, "results.json"), "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": results}, f, indent=1)
            f.write("\n")
        log("run.py: wrote %s" % os.path.join(OUT, "results.json"))
    for failure in failures:
        log("run.py: FAILED: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
