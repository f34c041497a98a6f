#!/usr/bin/env python3
"""Paired perf gate: times a base revision and the working tree side by side.

A committed wall-clock rate describes the machine and the session it was
recorded in, not the code, so this gate never compares against one. It
builds the base revision (default `HEAD^`) in a `git worktree`, then runs
both builds' `run_all` in one session at `BCASTDB_JOBS=1`, alternating
sides, and holds the working tree's per-row median events/sec against the
base's with `bcast-trace perf-diff` at its default bound (15 %). Exit
status: 0 within bounds, 1 a regression (perf-diff names the rows), 2 a
usage or build error.

Each of RUNS rounds takes one sample per side of every experiment, base
and head back to back (so drift in the machine's speed hits both), the
side that goes first alternating by round. A sample runs `run_all --only
NAME` again and again until each of its rows has summed MIN_WALL seconds
of wall or the experiment has summed MAX_WALL: a row that never reaches
the floor is timed over what it got and flagged `short` in the report. A
row's sample is its summed events over its summed wall.
`a1_abcast_impl`, about ten seconds a run, runs only in the first A1_RUNS
rounds, so at least once per side.

A row that fails is not failed yet: the experiments it belongs to are
timed again, alone, over CONFIRM_RUNS more rounds, and the gate fails only
if perf-diff fails on those fresh medians too. One slow stretch of a shared
machine can push a single row past the bound; it has to do so twice.

The medians go into `<out>/base.json` and `<out>/head.json` (and
`confirm-base.json`, `confirm-head.json`), ledgers in the
`BENCH_wallclock.json` shape, and the report into `<out>/report.txt`.

    python3 tools/paired_gate.py [--base REF] [--out DIR]
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROW = re.compile(
    r"^\[bench\] (\S+): \d+ runs, ([0-9.]+) ms wall \(.*, ([0-9.]+) events/s, ([0-9.]+) allocs/event\)$"
)
SLOW = "a1_abcast_impl"
RUNS, A1_RUNS, CONFIRM_RUNS = 3, 1, 6
MIN_WALL, MAX_WALL = 0.5, 4.0  # seconds


def sh(cmd, **kw):
    print("+", " ".join(cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, check=True, **kw)


def build(checkout, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    sh(["cargo", "build", "-q", "--release", "-p", "bcastdb-bench", "--bin", "run_all",
        "--bin", "bcast-trace"], cwd=checkout, env=env)
    return os.path.join(target, "release")


def experiments(run_all):
    """The experiment names, from the driver's own unknown-name message."""
    out = subprocess.run([run_all, "--only", "?"], capture_output=True, text=True)
    match = re.search(r"one of: ([^)]*)\)", out.stderr)
    if out.returncode != 2 or not match:
        sys.exit(f"paired_gate: cannot list the experiments of {run_all}: {out.stderr.strip()}")
    return match.group(1).split(", ")


def run_once(run_all, name, cwd):
    """One `run_all --only name`: per row, (wall ms, events, allocs/event)."""
    env = dict(os.environ, BCASTDB_JOBS="1")
    env.pop("BCASTDB_RESULTS_DIR", None)
    out = subprocess.run([run_all, "--only", name], cwd=cwd, env=env, text=True,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if out.returncode != 0:
        sys.exit(f"paired_gate: {run_all} --only {name} exited {out.returncode}:\n{out.stderr}")
    rows = {}
    for line in out.stderr.splitlines():
        m = ROW.match(line)
        if m:
            wall, rate, allocs = float(m.group(2)), float(m.group(3)), float(m.group(4))
            rows[m.group(1)] = (wall, rate * wall / 1000.0, allocs)
    if not rows:
        sys.exit(f"paired_gate: {run_all} --only {name} printed no [bench] row")
    return rows


def sample(run_all, name, cwd):
    """Repeats `name` until every row has MIN_WALL or the experiment
    MAX_WALL: per row, (events/sec, summed wall ms, allocs/event)."""
    walls, events, allocs = {}, {}, {}
    while True:
        for row, (wall, ev, ape) in run_once(run_all, name, cwd).items():
            walls[row] = walls.get(row, 0.0) + wall
            events[row] = events.get(row, 0.0) + ev
            allocs[row] = ape
        if min(walls.values()) >= MIN_WALL * 1000 or sum(walls.values()) >= MAX_WALL * 1000:
            break
    return {r: (events[r] * 1000.0 / walls[r], walls[r], allocs[r]) for r in walls}


def rounds(bins, workdirs, names, runs, a1_runs):
    """`runs` rounds over `names`, base and head back to back: per side, per
    row, its samples; and per row, the experiment it came from."""
    samples, source = {"base": {}, "head": {}}, {}
    started = time.time()
    for rnd in range(runs):
        order = ["base", "head"] if rnd % 2 == 0 else ["head", "base"]
        for name in names:
            if name == SLOW and rnd >= a1_runs:
                continue
            for side in (s for s in order if s in names[name]):
                got = sample(os.path.join(bins[side], "run_all"), name, workdirs[side])
                for row, s in got.items():
                    samples[side].setdefault(row, []).append(s)
                    source[row] = name
        print(f"paired_gate: round {rnd + 1}/{runs} done after "
              f"{time.time() - started:.0f} s", file=sys.stderr, flush=True)
    return samples, source


def perf_diff(bins, out, prefix, base_rev, samples):
    """Writes both sides' ledgers and runs perf-diff: (exit code, report)."""
    paths = {}
    for side, rev in (("base", base_rev), ("head", "working-tree")):
        paths[side] = os.path.join(out, f"{prefix}{side}.json")
        with open(paths[side], "w") as f:
            json.dump(ledger(rev, samples[side]), f, indent=1)
    diff = subprocess.run([os.path.join(bins["head"], "bcast-trace"), "perf-diff", paths["base"],
                           paths["head"]], capture_output=True, text=True)
    return diff.returncode, diff.stdout + diff.stderr


def ledger(rev, samples):
    rows = []
    for row, runs in samples.items():
        rate = statistics.median(s[0] for s in runs)
        wall = statistics.median(s[1] for s in runs)
        rows.append({"experiment": row, "runs": len(runs), "jobs": 1, "wall_ms": wall,
                     "events": round(rate * wall / 1000.0), "events_per_sec": rate,
                     "allocs_per_event": runs[-1][2]})
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {"git_rev": rev, "rustc": rustc or "unknown", "jobs": 1,
            "total_wall_ms": sum(r["wall_ms"] for r in rows), "experiments": rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD^", help="revision to compare against (default HEAD^)")
    ap.add_argument("--out", default="perf_gate", help="output directory (default perf_gate)")
    args = ap.parse_args()

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                          text=True, check=True).stdout.strip()
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    base_rev = subprocess.run(["git", "rev-parse", "--short=12", args.base], cwd=root,
                              capture_output=True, text=True, check=True).stdout.strip()
    worktree = os.path.join(out, "base-src")
    if os.path.isdir(worktree):
        sh(["git", "worktree", "remove", "--force", worktree], cwd=root)
    sh(["git", "worktree", "add", "--detach", worktree, base_rev], cwd=root)
    try:
        code, report = gate(root, out, worktree, base_rev)
    finally:
        sh(["git", "worktree", "remove", "--force", worktree], cwd=root)
    with open(os.path.join(out, "report.txt"), "w") as f:
        f.write(report)
    print(report, end="")
    return 0 if code == 0 else (1 if code == 1 else 2)


def gate(root, out, worktree, base_rev):
    """Builds both sides, times them, and confirms a failure: (perf-diff's
    exit code, the report)."""
    bins = {"base": build(worktree, os.path.join(out, "base-target")),
            "head": build(root, os.environ.get("CARGO_TARGET_DIR", os.path.join(root, "target")))}
    listed = {side: experiments(os.path.join(b, "run_all")) for side, b in bins.items()}
    # Per experiment, the sides that have it: head's order, then base's own.
    names = {n: {s for s in listed if n in listed[s]} for n in listed["head"] + listed["base"]}
    workdirs = {side: os.path.join(out, f"{side}-cwd") for side in bins}
    for d in workdirs.values():
        os.makedirs(d, exist_ok=True)

    samples, source = rounds(bins, workdirs, names, RUNS, A1_RUNS)
    code, report = perf_diff(bins, out, "", base_rev, samples)
    report = (f"paired gate: base {base_rev} vs the working tree, {RUNS} rounds at "
              f"BCASTDB_JOBS=1, per-row median events/sec\n" + report)
    short = sorted({r for side in samples for r, runs in samples[side].items()
                    if statistics.median(s[1] for s in runs) < MIN_WALL * 1000})
    if short:
        report += f"short (timed over less than {MIN_WALL} s a round): {', '.join(short)}\n"
    failed = sorted({source[line.split()[0]] for line in report.splitlines()
                     if line.endswith("REGRESSED") and line.split()[0] in source})
    if code == 1 and failed and "MISSING" not in report:
        print(report, end="", file=sys.stderr, flush=True)
        again = {n: names[n] for n in failed}
        samples, _ = rounds(bins, workdirs, again, CONFIRM_RUNS, CONFIRM_RUNS)
        code, confirm = perf_diff(bins, out, "confirm-", base_rev, samples)
        report += (f"confirmation: {', '.join(failed)} timed again alone, {CONFIRM_RUNS} "
                   f"rounds; the gate fails only if this fails too\n" + confirm)
    return code, report


if __name__ == "__main__":
    sys.exit(main())
