#!/usr/bin/env python3
"""Structure ratchet: the commit skeleton exists once, and the code stays small.

Run from the repository root (CI does). Prints the non-test line counts it
checks and exits 1 when

- `crates/core/src/protocols/*.rs` + `engine.rs`, the 1SR checker
  (`crates/db/src/sg.rs` + `graph.rs`), the JSON codec and telemetry
  (`crates/sim/src/json.rs` + `telemetry/*.rs`), the experiment harness
  (`crates/bench/src`), or all of `crates/*/src`, grow past the ceilings
  below (a non-test line is one before a file's first test module, a
  column-0 `#[cfg(test)]` on an inline `mod name {`; raise a ceiling only
  in the change that earns it, and say why in CHANGES.md);
- a piece of the skeleton is defined a second time under `crates/core/src`
  (a trait's bodiless declaration is not a definition);
- `enum Proto` is back in `engine.rs`;
- `RedoLog` is named under `crates/core/src` (a replica keeps commit
  state, not a log: recovery is state transfer, DESIGN.md section 5);
- speculative fast commit comes back under `crates/*/src`: `fast_commit`,
  `FastCommit`, `FastDecide`, `on_suspect` or `suspected_within` (a
  transaction is decided by the installed view's full vote only, DESIGN.md
  section 15; the `fast_commits` counter name stays for `benchmark/`);
- a `BCASTDB_*` variable is read from the environment anywhere under
  `crates/` but `crates/bench/src/harness.rs`;
- a JSON parser, a string escaper or the `trace_meta` trailer literal shows
  up under `crates/` outside `crates/sim/src/json.rs` and
  `crates/sim/src/telemetry/codec.rs`; or
- `crates/bench/src/bin/` holds anything but the one experiment driver and
  the two tools; or
- a second way to time the code comes back: a `[[bench]]` target or a
  `criterion` dependency in the root manifest or a crate's, or a
  `benches/` directory under `crates/` (the timing path is `run_all`'s
  ledger and `benchmark/`, DESIGN.md section 12).
"""
import glob
import re
import sys

# Set when the driver landed (DESIGN.md section 19): 3569 -> 2918 and
# 21151 -> 20424 lines then, so each ceiling leaves a few lines of slack;
# minus the 5 lines `trace_send_outcome` saved in engine.rs. Lowered by
# exactly the 25 lines P-CB's debug full-history scan took, 2945 -> 2920,
# when it became a test oracle, and by the 8 protocols/atomic.rs lost when
# both coordinator-based backends started following views through one
# ordering core, 2920 -> 2912. Lowered by the 2 lines engine.rs lost when a
# send stopped being counted under its kind as well as its phase, 2912 ->
# 2910. Raised by exactly its growth, 2910 -> 2924, when broadcast payloads
# started coming off a per-site shelf and P-CB's emptied conflict-index
# vectors started being kept for the next key (PERFORMANCE.md section 3,
# DESIGN.md section 18): the shelf field at each of the three broadcasting
# protocols (atomic.rs +3, reliable.rs +1), and in causal.rs (+10) the spare
# vectors, their hand-back in `prune`, and the NACK set as a `SiteSet`.
# Lowered to the count, 2924 -> 2893, when the atomic protocol stopped
# offering ISIS (DESIGN.md section 16): protocols/atomic.rs -19, and the 12
# lines of slack the ceiling had kept since the shelf landed. Lowered to
# the count, 2893 -> 2890, when metrics started flowing one way (DESIGN.md
# section 14): P-CB's examined-peers count became a plain increment in
# `Metrics` (causal.rs -2) and the engine's two histogram pushes one
# `sample_into` call (engine.rs -1). Unchanged at 2890 when clock stamps
# and P-AB's commit requests started coming off one generic shelf
# (DESIGN.md section 18): protocols/atomic.rs +3 (the request shelf and
# its refill, net of one `versions` vector in place of two and a flatter
# certification stall), causal.rs -3 (the one `versions` field and a
# flatter doomed-self check). Lowered to the count, 2890 -> 2881, when
# P-CB's per-transaction state moved into the shared `RemoteTxn` (DESIGN.md
# section 7 item 12, section 18): causal.rs -15 (`CbTxn` and the `info`
# map with its retain and clear gone, the kept floor clock and peer list
# added, a delivered NACK aborting in one arm; 2 of the 15 are the null
# and foreign-vote arms merged into one), reliable.rs +6 (the RSync
# watermark shelf and its refill). Lowered to the count, 2881 -> 2877,
# when the replica stopped keeping a redo log (DESIGN.md section 18):
# engine.rs -4, the state-transfer snapshot's log field, its clone and its
# overwrite, with the two docs that named it. Raised by exactly its
# growth, 2877 -> 2881, when causal wires started carrying clock deltas
# (DESIGN.md sections 2, 11 and 18): P-CB's conflict index keeps its clocks
# in a `ClockSlab` (the field, its construction, its reset on resume), its
# nulls go in full and its gap report reads the full stamp. Lowered to the
# count, 2881 -> 2776, when speculative fast commit was retired (DESIGN.md
# section 15): protocols/mod.rs -58 (`Quorum`'s suspicion set and fast
# branch, `Verdict::FastCommit`, `own_yes`, `on_suspect` and its driver
# impl), engine.rs -30 (the speculative window and `last_suspected`),
# reliable.rs -9 and causal.rs -8 (the fast arms and flag).
PROTOCOLS_AND_ENGINE_CEILING = 2776
# Set when the dense checker landed (PERFORMANCE.md section 3): sg.rs 313 ->
# 457 and graph.rs 164 -> 160, which is what moved the total from 20424 to
# 20585 (CHANGES.md says why that is more than a swap). Lowered by the 8
# lines the two files lost, 618 -> 610 (ceiling 620 -> 610), when a store's
# install orders became one arena (DESIGN.md sections 6 and 18): a store
# numbers its keys, and grouping a store's installs by those numbers and
# keeping each key's first order is `storage::InstallOrders` (sg.rs -16);
# `bucket` fills an earlier sort's storage (graph.rs +8).
CHECKER_CEILING = 610
# Set when the experiment table landed (DESIGN.md section 12): the twelve
# experiment binaries became entries of one table run by one driver, 5282 ->
# 5205 lines, and CRATES_CEILING came down from 20590 by the same 77.
# Both came down again when the one JSON codec landed (DESIGN.md section 9):
# 5205 -> 4957 and 20510 -> 20293. Raised by exactly its growth, 4960 ->
# 5005, for T2's coordinator-crash rows (a sixth nemesis schedule, the
# crash_mid_2pc schedule aimed at site 0, once per backend). Lowered by
# exactly the 13 lines it lost, 5005 -> 4992, when every count started being
# kept once (DESIGN.md section 14): the per-kind vs per-phase reconciliation
# in lib.rs went, with the commit series' own total and peak. Lowered by
# exactly the 103 lines it lost, 4992 -> 4889, when the Perfetto export
# started reading each event's name, fields and sites off its JSONL line
# instead of a hand-written arm per variant (perfetto.rs). Raised by
# exactly its growth, 4889 -> 4893, when the checker's history left the
# replica: the two nemesis schedules that readmit sites also check 1SR over
# every site once readmission is done. Lowered to the count, 4893 -> 4762,
# when the second timing path went (DESIGN.md section 12): the
# `profile_loop` driver (-53), the `scenarios` crash run it and the
# criterion benches shared (-76), its module line and a crate-doc line.
# Lowered to the count, 4762 -> 4688, when speculative fast commit was
# retired: T2's two fast rows and their assertion block
# (t2_failures.rs -47), the nemesis knob, column and outcome field
# (nemesis.rs -27).
BENCH_CEILING = 4688
# Raised by exactly its growth when keys started caching their hash and
# clocks started sharing snapshots (DESIGN.md sections 6 and 18): 20293 ->
# 20402, the `Key`/`KeyMap` and owned-or-shared `VectorClock` code less
# what it deleted (`PendingCert`, placement's own FNV-1a, the lock
# holders' copy). Raised by exactly its growth, 20402 -> 20408, when P-CB
# started stamping broadcasts with what it had processed and crediting
# implicit acks by watermark (DESIGN.md section 7, items 4 and 12):
# `CausalBcast::broadcast_after` and the per-origin ack queues, less the
# ack sets, the B-tree walk, `ever_held` and `Fate::AbortedUnheld`.
# Raised by exactly its growth, 20410 -> 20485 (crates 20408 -> 20483),
# when a lock started costing what its transaction holds (PERFORMANCE.md
# section 3, DESIGN.md section 18): the per-transaction lock index, the
# deadlock pre-check from the new waiter with its "may be cyclic" flag, the
# remembered grantable keys that keep the old full-sweep grants, and a
# fixed pool of spare table entries. Raised by exactly its growth, 20485 ->
# 20620 (crates 20483 -> 20618), when tracing and metrics started costing
# what they write (PERFORMANCE.md section 3, DESIGN.md sections 9 and 14):
# the metrics sample writer, its rows and name tables (+81 in stats.rs),
# the block-buffered JSONL sink and the pair-table integer speller (+45,
# below), less the per-sample map `Sample::set`/`set_site` built and the
# unused `StatsRegistry::into_samples`. Raised by exactly its growth,
# 20620 -> 20742 (crates 20618 -> 20740), when a ring hop started costing
# O(1) (PERFORMANCE.md section 3, DESIGN.md sections 11, 16 and 18): the
# ring engine's per-origin payload tables, gseq-indexed log and per-origin
# ordered-id trackers with their helpers (+47 in ring.rs, +5 for
# `Contig::contains`), the batcher's destination-indexed slots and the
# reused flush buffer (+19, +5 in engine.rs), and a key's first two installs
# held inline (+46 in storage.rs), less the B-tree and hashed-set code they
# replaced. The B-tree engine and batcher kept as test oracles are test-only.
# Re-baselined by exactly the recount, 20742 -> 20933, when the count stopped
# ending at the first `#[cfg(test)]` of any kind: a test-only helper at line
# 173 of telemetry/invariants.rs had hidden the 191 lines after it. Lowered by
# the 6 lines that helper took, 20933 -> 20927, when it moved into its tests.
# Lowered by exactly the 56 lines the debug twins took, 20927 -> 20871, when
# they became test oracles (DESIGN.md section 18): `SeenIds::reference` (-9),
# `ReliableBcast::seen` (-22) and P-CB's full-history scan (-25, now one
# test-build field checked at each decision). Unchanged by the sequencer and
# the ring starting to share one ordering core (DESIGN.md section 16):
# order.rs +393 against ring.rs -376, atomic.rs -14, protocols/atomic.rs -8,
# payload.rs +3, lib.rs +2. Raised by exactly its growth, 20871 -> 20916, for
# T2's two coordinator-crash rows (+45 in crates/bench/src). Lowered by
# exactly the 337 lines it lost, 20916 -> 20579 (crates 20914 -> 20577),
# when every count started being kept once, and only if read (DESIGN.md
# section 14): sim/trace.rs went (-264; `LatencyStats` moved into
# analyze.rs, +63, the rest folded into core's metrics.rs, +86, with -2 in
# cluster.rs and -1 in sim's lib.rs), the stats registry lost push-side
# gauges, histogram sums and maxima, `render_csv` and the unread accessors
# (-149), the phase tally became one array (telemetry -36), every message's
# kind label gave way to the three kinds counted by name (payload.rs -19,
# engine.rs -2), and the harness lost its per-kind reconciliation (-13).
# Raised by exactly its growth, 20577 -> 20792 (ceiling 20579 -> 20794),
# when the trace consumers moved off the simulation thread (DESIGN.md
# section 14): `WorkerSink` in telemetry/sinks.rs (+209: the block, the
# pool and its Mutex + Condvar handoff, the settle, the worker loop, panic
# resumption, the start rule's block count and idle-core count), +2 in
# telemetry/mod.rs, +4 in cluster.rs (`Consumers`, `settled`); state.rs
# is unchanged in length. Raised by exactly its growth, 20792 -> 20902
# (ceiling 20794 -> 20904), when a replica's undecided-transaction table
# became indexed (DESIGN.md section 18): `LiveTxns` as a slab plus
# per-origin windows and the vote `SiteSet` in state.rs (+91 net of the
# sorted vector and the four B-tree sets), one `Archive` in
# broadcast/msg.rs (+75) replacing both engines' maps and cursor loops
# (reliable.rs -33, causal.rs -31), `Batcher::push_sized` (+6) and its
# caller in engine.rs (+2). Raised by exactly its growth, 20902 -> 20926
# (ceiling 20904 -> 20928), when a replica started reusing what every
# transaction allocated (DESIGN.md sections 11 and 18): retired `RemoteTxn`
# shells reset in place, with `LiveTxns::retire` taking over
# `mark_decided` (state.rs +14), the redo log's one write arena (log.rs +1,
# net of the dropped `truncate` and `committed`), batch vectors taken at a
# batch's first message and handed back by `recycle` (batch.rs +11, net of
# `pending_for`, now a test helper), the envelope's hand-back in engine.rs
# (+4) and the dirty-tree stamp (harness.rs +1), less the unused
# `Cluster::replica_mut` (-5). Raised by exactly its growth, 20926 -> 20964
# (ceiling 20928 -> 20966), when the event queue's wheel slots and ready
# queue became lists of recycled cells in one pool (DESIGN.md section 13):
# the pool, its links, free list and list type in sim/event.rs (+58 net of
# the per-slot vectors, the `VecDeque` and the two-way merge, which became
# a splice), less `Ctx::send_all`, `Ctx::send_others` and `Ctx::all_sites`,
# which nothing but a test called (sim/simulation.rs -20, with the
# pre-size comment now saying what the pool's starting size covers).
# Lowered by exactly the 4 lines it lost, 20964 -> 20960 (ceiling 20966 ->
# 20962), when one per-origin sequence window replaced the four
# watermark-plus-gaps structures in crates/broadcast (DESIGN.md section
# 18): `msg::SeqWindow` (+109 in msg.rs net of the archive's rows and
# count), contig.rs deleted (-97, not moved: its oracle is the `HashSet`
# test in msg.rs), reliable.rs -15, causal.rs 0 (the rescan became a
# check of each origin's head), atomic.rs and order.rs -1 each, ring.rs
# +1, lib.rs 0 (the module line out, a line of crate docs in). Unchanged by the count now ending only at an inline test
# `mod name {` (an out-of-line `#[cfg(test)] mod name;` no longer hides
# the rest of its file): no file declares one today. Raised by exactly its
# growth, 20960 -> 21017 (ceiling 20962 -> 21019), when broadcast payloads,
# P-CB's conflict-index vectors and lock-table entries started being
# recycled instead of reallocated (PERFORMANCE.md section 3, DESIGN.md
# section 18): the payload `Shelf` in payload.rs (+28), its use in the three
# broadcasting protocols and causal.rs's spare vectors (+14, see
# PROTOCOLS_AND_ENGINE_CEILING), retransmissions handed to a `send` closure
# with the archive's cursors kept for reuse (msg.rs +9, reliable.rs +7,
# causal.rs +5, mostly the longer signatures), and memprobe's module doc
# naming the frame-pointer attribution (+1), less the lock table's fixed
# spare slots, now an unbounded free list (lock.rs -7). Lowered to the
# count, 21017 (ceiling 21019 -> 21017), when install orders, origin read
# sets and committed write sets moved into arenas (DESIGN.md section 18):
# the shared chunked `Arena`, a store's key numbers and `InstallOrders`
# against the per-key `Installs` enum (storage.rs +42, sg.rs and graph.rs
# -8), origin commit records without abort records or a copy of the
# shell's ops (state.rs -13, cluster.rs -1), `TxnSpec::into_writes` against
# the unused `ww_conflicts_with` (types.rs -3), memprobe's unread byte
# counter (-12) and the unused `Simulation::into_nodes` (-5): net 0.
# Lowered by exactly the 46 lines it lost, 21017 -> 20971, when the
# replica stopped offering ISIS, the one backend with no view change
# (DESIGN.md section 16): protocols/atomic.rs -19 (its engine arm, wire
# route, view no-op and the ISIS state-transfer position), payload.rs -13
# (`AbcastImpl::Isis`, `ReplicaMsg::AIsis` and their phase and size arms),
# broadcast/atomic.rs -18 (`lamport`, `resume_from`, `pending_len` and
# `dedup_live`, net of a doc saying why the replica does not offer it),
# broadcast/lib.rs +1, and the abort reason borrowed as a `Cow` in the
# trace schema (telemetry/mod.rs +1, codec.rs +1, spans.rs +1). Lowered
# to the count, 20971 -> 20930, when every sampled series started being
# pulled at the boundary and `StatsHandle` left the replica (DESIGN.md
# section 14): stats.rs -39 (the handle and the registry's counter and
# histogram maps, net of `add`, `add_hist` and a public `Histogram`),
# cluster.rs -20 (the handle's wiring and `metrics_counter`), state.rs -5,
# causal.rs -2, engine.rs -1, simulation.rs 0 (the registry is its own
# field), metrics.rs +24 (the two batch-size histograms, the examined-peers
# count and their share of a sample), and the ledger's `rustc` stamp
# (harness.rs +2). Lowered to the count, 20930 -> 20865, when clock stamps
# and P-AB's commit requests started coming off one generic shelf
# (DESIGN.md section 18): the generic `msg::Shelf` (msg.rs +46) against
# core's payload shelf and P-AB's second version vector (payload.rs -37),
# `VectorClock::freeze` (vclock.rs +10), the stamp shelf (broadcast
# causal.rs +4), protocols 0 (see PROTOCOLS_AND_ENGINE_CEILING), a quiesced
# run's last sample taken when its samples are read (simulation.rs +15),
# paid for by the Perfetto export reading every event off its JSONL line
# (perfetto.rs -103, see BENCH_CEILING). Lowered to the count, 20865 ->
# 20862, when P-CB's per-transaction state moved into the shared
# `RemoteTxn`: protocols -9 (see PROTOCOLS_AND_ENGINE_CEILING) against
# state.rs +6 (the entry's `cr_seq` and `commit_pending`);
# broadcast/reliable.rs 0 (the watermarks handed out as an iterator, the
# inline delivery list at 8). Raised by exactly its growth, 20862 ->
# 20935, when the checker's history left the replica for one cluster-owned
# `History` (DESIGN.md sections 6 and 18): core/history.rs +83 (the
# per-origin table of commits, its read arena, the public `commits`
# iterator and the one recorder path with the bare-commit rule),
# core/lib.rs +2, state.rs -4 (`CommitRecord`, `commits` and `reads` out;
# the observed versions inline on `LocalTxn`, its `observed` pairs and the
# history handle in), cluster.rs -12 (the redo-log scan out; the history
# field, `Cluster::history` and the crashed-donor check in), bench +4 (see
# BENCH_CEILING). Lowered to the count, 20935 -> 20835, when the replica
# stopped keeping a redo log that nothing read (DESIGN.md sections 5 and
# 18): db/log.rs -94 (checkpoints, borrowed records, abort records,
# replay, truncation and recovery gone; only the append path a benchmark
# kernel times is left), state.rs -6 (the field, its two abort appends and
# the copy `apply_commit` installed from), engine.rs -4 (see
# PROTOCOLS_AND_ENGINE_CEILING), db/lib.rs +1 (the crate doc says how a
# replica recovers instead), storage.rs +3 (`Store::apply` takes any
# iterator of writes, so the shell's held ops install without a copy; each
# write goes through one non-generic `install`, which kept
# `kernel.store_apply_ns` where it was, where a fully generic body read it
# at twice the parent's). Lowered to the count, 20835 -> 20609, when the
# second timing path went (DESIGN.md section 12): crates/bench/src -131
# (see BENCH_CEILING) and the workload crate's five `Scenario` presets,
# which nothing but an example and a doctest built (scenarios.rs -99, its
# two module lines, net of the doctest's inline `WorkloadConfig`, +6).
# Raised by exactly its growth, 20609 -> 20701, when causal wires started
# carrying clock deltas (DESIGN.md sections 2, 11 and 18): broadcast
# causal.rs +68 (the `Stamp` forms and their sizes, the per-origin table
# of last stamps, the delta shelf and the empty delta, encoding in
# `send_stamped`, decoding in `on_wire`, the delta's BSS check and the
# engine `Snapshot` with its resume), vclock.rs +14 (`CausalRelation`,
# `relation` and the `PartialOrd` impl out; `frozen`, one `le` and the
# `ClockSlab` P-CB's conflict index copies its clocks into, in), msg.rs
# +6 (a shelf looks at its four oldest values for a free one),
# protocols +4 (see PROTOCOLS_AND_ENGINE_CEILING). The slab and the shelf's
# look-ahead are what keep `allocs_per_txn` at or under the parent's on
# `steady_cb` (1.145 without them) and `wide_ring` (8.72 without them).
# Lowered to the count, 20701 -> 20456, when speculative fast commit was
# retired (DESIGN.md section 15): protocols -105 (see
# PROTOCOLS_AND_ENGINE_CEILING), telemetry -28 (see TELEMETRY_CEILING),
# crates/bench/src -74 (see BENCH_CEILING), state.rs -14
# (`trace_fast_decide`), cluster.rs -12 (the knob and its builder),
# membership.rs -9 (`suspected_within` folded into `suspected`),
# spans.rs -4, metrics.rs +1 (why `fast_commits` stays a name).
CRATES_CEILING = 20456
# `crates/sim/src/json.rs` + `crates/sim/src/telemetry/*.rs`, set when
# telemetry.rs (1184 lines) became json.rs and four files: 1321 in all, of
# which 310 are the parser, escaper and getters every JSON reader shares.
# Raised by exactly its growth, 1325 -> 1370 (1321 -> 1366), when the JSONL
# sink started encoding into one block its writer takes whole (with a
# `Drop` that writes the rest) and integers started going through a
# two-digit table instead of `core::fmt`, behind the `Digits` seam the
# test oracle spells them through; the ring's eviction lost its special
# case for capacity zero. Re-baselined by exactly the recount, 1370 -> 1561,
# and lowered by 6 to 1555 with the helper's move (see CRATES_CEILING).
# Lowered by exactly the 36 lines it lost, 1555 -> 1519, when `PhaseCounts`
# became one array indexed by phase and the checker's per-link table a
# `PhaseCounts` per link. Raised by exactly its growth, 1515 -> 1726
# (1519 -> 1730), for `WorkerSink` (see CRATES_CEILING). Lowered to the
# count, 1730 -> 1700, when the `Suspect` and `FastDecide` trace events
# went with speculative fast commit (telemetry/mod.rs -23,
# invariants.rs -5).
TELEMETRY_CEILING = 1700

# The only files under crates/bench/src/bin: an experiment is an entry of
# `bcastdb_bench::experiments::ALL`, not a process.
BENCH_BINS = ["chaos.rs", "run_all.rs", "trace_tool.rs"]
ENV_READER = "crates/bench/src/harness.rs"
# One JSON codec: its function names and the one wire literal that is not
# derived from the `TraceEvent` schema table live here and nowhere else.
JSON_HOMES = ["crates/sim/src/json.rs", "crates/sim/src/telemetry/codec.rs"]
JSON_ONLY = [
    r"fn (json_)?escape\b",
    r"fn parse_string\b",
    r"fn parse_value\b",
    r"fn parse_number\b",
    r'\{\\"type\\":\\"trace_meta',
]

# Retired with speculative fast commit (DESIGN.md section 15).
FAST_COMMIT = re.compile(r"\b(fast_commit|FastCommit|FastDecide|on_suspect|suspected_within)\b")

ONCE = [
    r"enum Work\b",
    r"fn pump\b",
    r"fn emit_write_step\b",
    r"fn start_write_phase\b",
    r"fn continue_write\b",
    r"fn gate_local_readers\b",
]


TEST_MOD = re.compile(r"(pub(\(crate\))? )?mod \w+\s*\{")


def non_test_lines(path):
    """The lines before the file's first test module: a column-0
    `#[cfg(test)]` whose item is an inline `mod name {`. A `#[cfg(test)]` on
    anything else (a helper fn, a field, an indented item, an out-of-line
    `mod name;` declaration) does not end the count."""
    lines = open(path, encoding="utf-8").read().splitlines()
    for i, line in enumerate(lines):
        if line.rstrip() != "#[cfg(test)]":
            continue
        item = next((l for l in lines[i + 1:] if l.strip() and not l.startswith(("#", "//"))), "")
        if TEST_MOD.match(item):
            return lines[:i]
    return lines


def definitions(pattern, text):
    """Matches of `pattern` that open a body: for a `fn`, `{` comes before `;`."""
    count = 0
    for m in re.finditer(pattern, text):
        if pattern.startswith("enum"):
            count += 1
            continue
        tail = text[m.end():]
        brace, semi = tail.find("{"), tail.find(";")
        count += brace != -1 and (semi == -1 or brace < semi)
    return count


def main():
    failures = []

    def group(name, paths, ceiling):
        total = 0
        for path in paths:
            n = len(non_test_lines(path))
            total += n
            print(f"{n:6}  {path}")
        print(f"{total:6}  {name} (ceiling {ceiling})")
        if total > ceiling:
            failures.append(f"{name}: {total} > {ceiling}")

    core = sorted(glob.glob("crates/core/src/protocols/*.rs")) + ["crates/core/src/engine.rs"]
    group("protocols + engine", core, PROTOCOLS_AND_ENGINE_CEILING)
    group("1SR checker", ["crates/db/src/sg.rs", "crates/db/src/graph.rs"], CHECKER_CEILING)
    telemetry = ["crates/sim/src/json.rs"] + sorted(glob.glob("crates/sim/src/telemetry/*.rs"))
    group("json + telemetry", telemetry, TELEMETRY_CEILING)

    def total(name, pattern, ceiling):
        lines = sum(len(non_test_lines(p)) for p in glob.glob(pattern, recursive=True))
        print(f"{lines:6}  {name} (ceiling {ceiling})")
        if lines > ceiling:
            failures.append(f"{name}: {lines} > {ceiling}")

    total("crates/bench/src", "crates/bench/src/**/*.rs", BENCH_CEILING)
    total("crates/*/src", "crates/*/src/**/*.rs", CRATES_CEILING)

    text = "\n".join(
        "\n".join(non_test_lines(p))
        for p in glob.glob("crates/core/src/**/*.rs", recursive=True)
    )
    for pattern in ONCE:
        n = definitions(pattern, text)
        if n > 1:
            failures.append(f"`{pattern}` is defined {n} times under crates/core/src")
    if re.search(r"enum Proto\b", open("crates/core/src/engine.rs", encoding="utf-8").read()):
        failures.append("`enum Proto` is back in engine.rs")
    for path in glob.glob("crates/core/src/**/*.rs", recursive=True):
        if re.search(r"\bRedoLog\b", open(path, encoding="utf-8").read()):
            failures.append(f"{path} names `RedoLog`; a replica keeps no redo log")
    for path in glob.glob("crates/*/src/**/*.rs", recursive=True):
        m = FAST_COMMIT.search(open(path, encoding="utf-8").read())
        if m:
            failures.append(f"{path} names `{m.group(1)}`; speculative fast commit is retired")

    for path in glob.glob("crates/**/*.rs", recursive=True):
        code = open(path, encoding="utf-8").read()
        if path != ENV_READER and re.search(r'env::var(_os)?\(\s*"BCASTDB_', code):
            failures.append(f"{path} reads a BCASTDB_ variable; only {ENV_READER} may")
        for pattern in JSON_ONLY:
            if path not in JSON_HOMES and re.search(pattern, code):
                failures.append(f"{path} matches `{pattern}`; only {JSON_HOMES} may")
    bins = sorted(p.rsplit("/", 1)[1] for p in glob.glob("crates/bench/src/bin/*"))
    if bins != BENCH_BINS:
        failures.append(f"crates/bench/src/bin holds {bins}, expected {BENCH_BINS}")
    for path in ["Cargo.toml"] + glob.glob("crates/*/Cargo.toml"):
        manifest = open(path, encoding="utf-8").read()
        if re.search(r"^\s*(\[\[bench\]\]|(\[[\w.-]*dependencies\.)?criterion\b)", manifest, re.M):
            failures.append(f"{path} declares a bench target or criterion; time the code with run_all or benchmark/")
    for path in glob.glob("crates/**/benches", recursive=True):
        failures.append(f"{path} exists; time the code with run_all or benchmark/")

    for f in failures:
        print(f"structure ratchet: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
