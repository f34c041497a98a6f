//! Per-site state shared by all four protocols: the local database
//! substrate, origin-side transaction driving (read phase, read-only
//! commit), remote write-lock acquisition with pluggable conflict policy,
//! and commit/abort application.
//!
//! The protocols differ in *how they disseminate writes and decide
//! commitment*; everything below that line — strict 2PL, read phases at the
//! origin, applying a decided transaction — is identical and lives here.
//! State-changing helpers return [`LocalEvent`]s that the protocol layer
//! reacts to (e.g. "all write locks granted → cast my vote").

use crate::history::History;
use crate::metrics::{AbortReason, Metrics};
use crate::payload::TxnPriority;
use crate::placement::Placement;
use bcastdb_db::lock::{Grants, LockMode, RequestOutcome};
use bcastdb_db::sg::ObservedVersion;
use bcastdb_db::{Key, LockManager, Store, TxnId, TxnSpec, WriteOp};
use bcastdb_sim::inline::InlineVec;
use bcastdb_sim::telemetry::{TraceEvent, Tracer, TxnRef};
use bcastdb_sim::{SimTime, SiteId};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// The trace-level reference for a transaction id (`bcastdb-sim` cannot
/// depend on the database crate, so its events carry this mirror type).
pub fn txn_ref(id: TxnId) -> TxnRef {
    TxnRef {
        origin: id.origin,
        num: id.num,
    }
}

/// How write-lock conflicts between update transactions are resolved
/// (ablation A2). Both are deadlock-free priority schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// Older requester wounds younger holder; younger requester waits.
    #[default]
    WoundWait,
    /// Older requester waits; younger requester dies.
    WaitDie,
}

/// Where an origin-side transaction currently is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalPhase {
    /// Acquiring read locks; `next` is the index of the next read.
    AcquiringReads {
        /// Index into the spec's read list.
        next: usize,
    },
    /// All reads done; the protocol owns the transaction now.
    WritePhase,
}

/// Origin-side state of a transaction submitted at this site.
#[derive(Debug, Clone)]
pub struct LocalTxn {
    /// Transaction identity.
    pub id: TxnId,
    /// Global priority (submission time, origin, number).
    pub prio: TxnPriority,
    /// The full specification.
    pub spec: TxnSpec,
    /// Virtual submission time (latency measurement baseline).
    pub submitted: SimTime,
    /// Current phase.
    pub phase: LocalPhase,
    /// The version each read observed, in read order, set when the read
    /// phase completes; inline, so a read phase of up to 8 reads
    /// allocates nothing.
    pub versions: InlineVec<ObservedVersion, 8>,
}

impl LocalTxn {
    /// Each read's key and the version it observed.
    pub(crate) fn observed(&self) -> impl ExactSizeIterator<Item = (Key, ObservedVersion)> + '_ {
        let reads = self.spec.reads().iter().enumerate();
        reads.map(|(i, key)| (key.clone(), self.versions[i]))
    }
}

/// Per-site state of a *broadcast* update transaction (kept at every site,
/// including the origin).
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteTxn {
    /// Transaction identity.
    pub id: TxnId,
    /// Global priority.
    pub prio: TxnPriority,
    /// Write operations delivered so far, in index order.
    pub ops: Vec<WriteOp>,
    /// Total write count (known from any op's `of` field or the commit
    /// request).
    pub n_writes: Option<usize>,
    /// Keys whose exclusive lock has been granted at this site. Each key
    /// is here at most once, and a write set is small: a vector scanned in
    /// full, not a tree.
    pub keys_granted: Vec<Key>,
    /// Keys requested but still queued (likewise).
    pub keys_waiting: Vec<Key>,
    /// True once this site delivered the transaction's commit request.
    pub commit_req_seen: bool,
    /// Set when this site has condemned the transaction.
    pub doomed: Option<AbortReason>,
    /// This site's 2PC vote, once cast (reliable protocol).
    pub my_vote: Option<bool>,
    /// YES votes collected (reliable protocol, baseline).
    pub votes_yes: SiteSet,
    /// NO votes collected, or NACKs delivered (causal protocol).
    pub votes_no: SiteSet,
    /// Causal protocol: the commit request's clock component at its origin.
    pub cr_seq: Option<u64>,
    /// Causal protocol: commit decided, applied once every lock is granted.
    pub commit_pending: bool,
}

impl RemoteTxn {
    fn new(id: TxnId, prio: TxnPriority) -> Self {
        RemoteTxn {
            id,
            prio,
            ops: Vec::new(),
            n_writes: None,
            keys_granted: Vec::new(),
            keys_waiting: Vec::new(),
            commit_req_seen: false,
            doomed: None,
            my_vote: None,
            votes_yes: SiteSet::default(),
            votes_no: SiteSet::default(),
            cr_seq: None,
            commit_pending: false,
        }
    }

    /// Makes a retired entry what [`RemoteTxn::new`] gives, keeping the
    /// storage of its vectors.
    fn reset(&mut self, id: TxnId, prio: TxnPriority) {
        fn cleared<T>(mut v: Vec<T>) -> Vec<T> {
            v.clear();
            v
        }
        let old = std::mem::replace(self, RemoteTxn::new(id, prio));
        self.ops = cleared(old.ops);
        self.keys_granted = cleared(old.keys_granted);
        self.keys_waiting = cleared(old.keys_waiting);
        self.votes_yes.high = cleared(old.votes_yes.high);
        self.votes_no.high = cleared(old.votes_no.high);
    }

    /// True iff the full write set is delivered and every key's exclusive
    /// lock is held at this site.
    pub fn fully_prepared(&self) -> bool {
        match self.n_writes {
            Some(n) => self.ops.len() == n && self.keys_waiting.is_empty(),
            None => false,
        }
    }
}

/// A set of sites, one bit each: ids below 64 in an inline word, the rest
/// in words spilled to the heap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteSet {
    low: u64,
    high: Vec<u64>,
}

impl SiteSet {
    /// Whether `site` is in the set.
    pub fn contains(&self, site: SiteId) -> bool {
        let word = std::iter::once(&self.low)
            .chain(&self.high)
            .nth(site.0 / 64);
        word.is_some_and(|w| w >> (site.0 % 64) & 1 == 1)
    }

    /// Adds `site`.
    pub fn insert(&mut self, site: SiteId) {
        let (w, bit) = (site.0 / 64, 1 << (site.0 % 64));
        if w == 0 {
            self.low |= bit;
        } else {
            self.high.resize(self.high.len().max(w), 0);
            self.high[w - 1] |= bit;
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.iter().all(|&w| w == 0)
    }
}

/// The broadcast transactions still undecided at a site.
///
/// A dense slab of entries plus, per origin, a window of slab indices
/// addressed by `TxnId::num - base`. An origin's window spans its oldest to
/// its newest live transaction, so a lookup is two indexings and a retire
/// swaps the entry with the last of the `live` ones and re-points the one
/// moved: nothing shifts. Retired entries stay as shells that inserts reset,
/// keeping their vectors' storage, so the slab holds the peak live count.
#[derive(Debug, Default)]
pub struct LiveTxns {
    slab: Vec<RemoteTxn>,
    live: usize,
    windows: Vec<Window>,
}

/// One origin's window: `slots[i]` is the slab index of number `base + i`,
/// or [`HOLE`]. Both ends are live whenever it is not empty.
#[derive(Debug, Default)]
struct Window {
    base: u64,
    slots: VecDeque<u32>,
}

const HOLE: u32 = u32::MAX;

impl LiveTxns {
    fn slot(&self, id: &TxnId) -> Option<usize> {
        let w = self.windows.get(id.origin.0)?;
        let i = *w.slots.get(id.num.checked_sub(w.base)? as usize)?;
        (i != HOLE).then_some(i as usize)
    }

    fn point(&mut self, id: TxnId, i: u32) {
        let w = &mut self.windows[id.origin.0];
        w.slots[(id.num - w.base) as usize] = i;
    }

    /// The entry for `id`, if it is live.
    pub fn get(&self, id: &TxnId) -> Option<&RemoteTxn> {
        self.slot(id).map(|i| &self.slab[i])
    }

    /// The entry for `id`, if it is live.
    pub fn get_mut(&mut self, id: &TxnId) -> Option<&mut RemoteTxn> {
        self.slot(id).map(|i| &mut self.slab[i])
    }

    /// Whether `id` is live.
    pub fn contains_key(&self, id: &TxnId) -> bool {
        self.slot(id).is_some()
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no transaction is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = TxnId> + '_ {
        let live = self.windows.iter().flat_map(|w| w.slots.iter());
        live.filter(|&&i| i != HOLE)
            .map(|&i| self.slab[i as usize].id)
    }

    /// Adds a fresh entry for `id`, which is not live, in a shell if any.
    fn insert(&mut self, id: TxnId, prio: TxnPriority) -> &mut RemoteTxn {
        if self.windows.len() <= id.origin.0 {
            self.windows.resize_with(id.origin.0 + 1, Window::default);
        }
        let w = &mut self.windows[id.origin.0];
        if w.slots.is_empty() {
            w.base = id.num;
        }
        for _ in id.num..w.base {
            w.slots.push_front(HOLE);
        }
        w.base = w.base.min(id.num);
        let len = w.slots.len().max((id.num - w.base) as usize + 1);
        w.slots.resize(len, HOLE);
        self.point(id, self.live as u32);
        match self.slab.get_mut(self.live) {
            Some(shell) => shell.reset(id, prio),
            None => self.slab.push(RemoteTxn::new(id, prio)),
        }
        self.live += 1;
        &mut self.slab[self.live - 1]
    }

    /// Records `fate` for `id` in `decided`, then retires `id`'s entry, if
    /// it is live, and hands back its shell. Every `decided` insertion goes
    /// through here.
    fn retire(&mut self, decided: &mut Outcomes, id: &TxnId, fate: Fate) -> Option<&RemoteTxn> {
        decided.record(*id, fate);
        let i = self.slot(id)?;
        self.point(*id, HOLE);
        let w = &mut self.windows[id.origin.0];
        while w.slots.front() == Some(&HOLE) {
            w.slots.pop_front();
            w.base += 1;
        }
        while w.slots.back() == Some(&HOLE) {
            w.slots.pop_back();
        }
        self.live -= 1;
        self.slab.swap(i, self.live);
        if i < self.live {
            self.point(self.slab[i].id, i as u32);
        }
        Some(&self.slab[self.live])
    }
}

impl std::ops::Index<&TxnId> for LiveTxns {
    type Output = RemoteTxn;
    fn index(&self, id: &TxnId) -> &RemoteTxn {
        self.get(id).expect("live transaction")
    }
}

/// How a transaction ended at a site: one byte of [`Outcomes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Pending,
    Committed,
    Aborted,
}

/// Outcome of every transaction terminated at a site: a dense table with
/// one byte per transaction, indexed by origin and by `TxnId::num` (a
/// per-origin counter, so the rows have no holes worth a map).
#[derive(Debug, Clone, Default)]
pub struct Outcomes {
    by_origin: Vec<Vec<Fate>>,
    len: usize,
}

impl Outcomes {
    fn fate(&self, id: &TxnId) -> Fate {
        let row = self.by_origin.get(id.origin.0);
        row.and_then(|r| r.get(id.num as usize))
            .copied()
            .unwrap_or(Fate::Pending)
    }

    /// `Some(true)` = committed, `Some(false)` = aborted, `None` = not
    /// terminated here.
    pub fn get(&self, id: &TxnId) -> Option<bool> {
        match self.fate(id) {
            Fate::Pending => None,
            fate => Some(fate == Fate::Committed),
        }
    }

    /// Whether `id` has terminated here.
    pub fn contains_key(&self, id: &TxnId) -> bool {
        self.fate(id) != Fate::Pending
    }

    /// Number of terminated transactions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing has terminated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records `fate` for `id` unless it already has one.
    fn record(&mut self, id: TxnId, fate: Fate) {
        if self.by_origin.len() <= id.origin.0 {
            self.by_origin.resize_with(id.origin.0 + 1, Vec::new);
        }
        let row = &mut self.by_origin[id.origin.0];
        let num = id.num as usize;
        if row.len() <= num {
            row.resize(num + 1, Fate::Pending);
        }
        if row[num] == Fate::Pending {
            row[num] = fate;
            self.len += 1;
        }
    }

    /// The table a replica recovering by state transfer starts from: the
    /// donor's verdicts, plus the verdicts this site reached on its *own*
    /// transactions that the donor never heard of (a transaction aborted
    /// at its origin before anything was broadcast exists nowhere else).
    fn rebased_on(&self, donor: &Outcomes, me: SiteId) -> Outcomes {
        let mut out = donor.clone();
        for (num, f) in self.by_origin.get(me.0).into_iter().flatten().enumerate() {
            if *f != Fate::Pending {
                out.record(TxnId::new(me, num as u64), *f);
            }
        }
        out
    }
}

/// Events surfaced to the protocol layer by common state transitions.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalEvent {
    /// A local transaction finished its read phase and has writes; the
    /// protocol must start the write phase.
    ReadsComplete(TxnId),
    /// A broadcast transaction now holds all its write locks here (and its
    /// full write set is known).
    RemotePrepared(TxnId),
    /// This site condemned a broadcast transaction (wound / wait-die); the
    /// protocol decides how to communicate it.
    RemoteDoomed(TxnId, AbortReason),
    /// A previously queued exclusive lock was granted (the point-to-point
    /// baseline acknowledges individual writes on this event).
    RemoteKeyGranted(TxnId, Key),
    /// A local transaction acquired one read lock and is pausing for its
    /// per-operation think time; the engine schedules the next step.
    ReadPaused(TxnId),
}

/// The event buffer handed to every state-transition method.
///
/// A single delivery or timer step produces at most a couple of events, so
/// inline storage keeps the hot path allocation-free; rare bursts (a view
/// change aborting many transactions at once) spill to the heap and stay
/// correct. The alloc-audit test in `crates/bench/tests/` ratchets this.
pub type EventBuf = bcastdb_sim::inline::InlineVec<LocalEvent, 4>;

/// All protocol-independent state of one replica.
#[derive(Debug)]
pub struct SiteState {
    /// This site.
    pub me: SiteId,
    /// System size.
    pub n: usize,
    /// The replica's copy of the database.
    pub store: Store,
    /// Strict-2PL lock table.
    pub locks: LockManager,
    /// Metrics for this site.
    pub metrics: Metrics,
    /// Structured trace sink (disabled by default; zero overhead when off).
    pub tracer: Tracer,
    /// The cluster's history, which origin-side commits are recorded into
    /// (none for a site built alone).
    pub history: Option<Rc<RefCell<History>>>,
    /// Conflict policy between update transactions.
    pub policy: ConflictPolicy,
    /// Whether delivered writes may wound *broadcast* (remote or
    /// write-phase local) lock holders. True only in the reliable
    /// protocol, whose votes make site-local wounds globally visible; the
    /// causal protocol must not wound broadcast transactions site-locally
    /// because its implicit acknowledgements cannot retract an ack.
    pub wound_remote: bool,
    /// Whether delivered writes may wound local update transactions still
    /// in their read phase (purely local, so always safe); the
    /// point-to-point baseline disables this and resolves conflicts by
    /// waiting + timeout, which is exactly how it deadlocks.
    pub wound_local_readers: bool,
    /// Whether a blocked local read triggers waits-for-graph deadlock
    /// detection, dooming an unprepared broadcast transaction in the cycle
    /// (the reliable protocol publishes the doom as a NO vote). Keeps
    /// read-only transactions deadlock-free without ever aborting them.
    pub resolve_read_deadlocks: bool,
    /// Rank exclusive lock queues by *delivery order* instead of
    /// transaction age. The causal protocol needs this: its committed
    /// conflicting transactions are always causally ordered, and causal
    /// delivery order is the one per-key apply order every site shares
    /// (it has no vote round to serialize applies). The vote-based
    /// protocols keep age ranks, which their deadlock prevention relies on.
    pub rank_by_delivery: bool,
    /// Per-operation think time in the read phase (zero = reads complete
    /// within one event, the fastest client model; nonzero spreads a read
    /// phase over virtual time as the paper's sequential-operation model
    /// does).
    pub think: bcastdb_sim::SimDuration,
    /// Which keys this site stores (defaults to full replication, the
    /// paper's model). Non-held keys are never locked or installed here.
    pub placement: Placement,
    rank_counter: u64,
    /// Transactions originated here, still running.
    pub local: BTreeMap<TxnId, LocalTxn>,
    /// Broadcast transactions still undecided here; an entry is dropped
    /// the moment its transaction is decided and is never re-created.
    pub remote: LiveTxns,
    /// Terminated transactions.
    pub decided: Outcomes,
    next_txn_num: u64,
}

impl SiteState {
    /// Fresh state for site `me` of an `n`-site system.
    pub fn new(me: SiteId, n: usize, policy: ConflictPolicy) -> Self {
        SiteState {
            me,
            n,
            store: Store::new(),
            locks: LockManager::new(),
            metrics: Metrics::new(),
            tracer: Tracer::disabled(),
            history: None,
            policy,
            wound_remote: true,
            wound_local_readers: true,
            resolve_read_deadlocks: false,
            rank_by_delivery: false,
            think: bcastdb_sim::SimDuration::ZERO,
            placement: Placement::Full,
            rank_counter: 0,
            local: BTreeMap::new(),
            remote: LiveTxns::default(),
            decided: Outcomes::default(),
            next_txn_num: 0,
        }
    }

    /// Records this site's verdict on a broadcast transaction in the trace:
    /// an explicit 2PC vote, a causal-protocol NACK (`yes == false`), or a
    /// deterministic certification outcome (atomic protocol).
    pub fn trace_vote(&self, id: TxnId, yes: bool, now: SimTime) {
        let me = self.me;
        self.tracer.emit(|| TraceEvent::Vote {
            at: now,
            site: me,
            txn: txn_ref(id),
            yes,
        });
    }

    /// Records the origin handing a transaction's commit request (the final
    /// leg of its write dissemination) to the network — the boundary between
    /// the `disseminate` and `order_wait` latency segments. Each protocol
    /// calls this exactly once per update transaction, at its single
    /// commit-request broadcast site.
    pub fn trace_commit_req_out(&self, id: TxnId, now: SimTime) {
        self.tracer.emit(|| TraceEvent::CommitReqOut {
            at: now,
            txn: txn_ref(id),
        });
    }

    /// Records this site fixing a transaction's outcome separately from
    /// applying it (the causal protocol's decision point: its implicit
    /// acknowledgement set just completed, whether or not the lock queue
    /// lets the commit apply yet).
    pub fn trace_decided(&self, id: TxnId, commit: bool, now: SimTime) {
        let me = self.me;
        self.tracer.emit(|| TraceEvent::Decided {
            at: now,
            site: me,
            txn: txn_ref(id),
            commit,
        });
    }

    /// Records a speculative fast decision: this site fixed `id`'s outcome
    /// from a surviving quorum's votes without waiting for suspected
    /// members, and bumps the `fast_commits` counter. The regular
    /// `Decided`/`Commit` events follow immediately.
    pub fn trace_fast_decide(&mut self, id: TxnId, now: SimTime) {
        self.metrics.counters.add("fast_commits", 1);
        let me = self.me;
        self.tracer.emit(|| TraceEvent::FastDecide {
            at: now,
            site: me,
            txn: txn_ref(id),
        });
    }

    /// True iff this site knows of any transaction that has not terminated.
    pub fn has_undecided(&self) -> bool {
        !self.local.is_empty() || !self.remote.is_empty()
    }

    /// Number of local transactions still in flight at this site.
    pub fn local_active_count(&self) -> usize {
        self.local.len()
    }

    /// Drops all in-flight state and adopts a donor's verdicts (state
    /// transfer into a recovering replica), keeping this site's verdicts
    /// on its own transactions that the donor never saw.
    pub fn rebase_on(&mut self, donor: &Outcomes) {
        self.local.clear();
        self.remote = LiveTxns::default();
        self.decided = self.decided.rebased_on(donor, self.me);
    }

    // ------------------------------------------------------------------
    // Origin-side driving
    // ------------------------------------------------------------------

    /// Registers a freshly submitted transaction and starts its read phase.
    /// Returns the id plus any events (the read phase may complete
    /// immediately).
    pub fn begin_txn(&mut self, now: SimTime, spec: TxnSpec) -> (TxnId, EventBuf) {
        self.next_txn_num += 1;
        let id = TxnId::new(self.me, self.next_txn_num);
        let prio = TxnPriority {
            ts: now.as_micros(),
            origin: self.me,
            num: self.next_txn_num,
        };
        let read_only = spec.is_read_only();
        self.tracer.emit(|| TraceEvent::Submit {
            at: now,
            txn: txn_ref(id),
            read_only,
        });
        self.local.insert(
            id,
            LocalTxn {
                id,
                prio,
                spec,
                submitted: now,
                phase: LocalPhase::AcquiringReads { next: 0 },
                versions: InlineVec::new(),
            },
        );
        let mut events = EventBuf::new();
        self.advance_reads(id, now, &mut events);
        (id, events)
    }

    /// Pushes a local transaction through its read phase as far as locks
    /// allow. Emits [`LocalEvent::ReadsComplete`] when an update
    /// transaction becomes ready for its write phase; commits read-only
    /// transactions on the spot.
    pub fn advance_reads(&mut self, id: TxnId, now: SimTime, events: &mut EventBuf) {
        loop {
            let Some(txn) = self.local.get(&id) else {
                return; // aborted meanwhile
            };
            let LocalPhase::AcquiringReads { next } = txn.phase else {
                return;
            };
            if next >= txn.spec.reads().len() {
                // Read phase complete: observe the versions now (locks held).
                let txn = self.local.get_mut(&id).expect("present");
                let store = &self.store;
                txn.versions = (txn.spec.reads().iter())
                    .map(|k| store.read(k).writer)
                    .collect();
                self.tracer.emit(|| TraceEvent::LocksAcquired {
                    at: now,
                    txn: txn_ref(id),
                });
                if txn.spec.is_read_only() {
                    self.commit_read_only(id, now, events);
                } else {
                    txn.phase = LocalPhase::WritePhase;
                    events.push(LocalEvent::ReadsComplete(id));
                }
                return;
            }
            let key = txn.spec.reads()[next].clone();
            match self.locks.request(id, &key, LockMode::Shared) {
                RequestOutcome::Granted => {
                    let txn = self.local.get_mut(&id).expect("present");
                    txn.phase = LocalPhase::AcquiringReads { next: next + 1 };
                    // With think time, pause after each acquired read (the
                    // engine schedules the next step); zero think time
                    // acquires the whole read set in one event.
                    if !self.think.is_zero() && next + 1 < txn.spec.reads().len() {
                        events.push(LocalEvent::ReadPaused(id));
                        return;
                    }
                }
                RequestOutcome::Conflict { .. } => {
                    // Readers always queue behind queued writers (rank MAX):
                    // letting an older reader jump a pending write would let
                    // it observe a state where later transactions are
                    // applied but earlier ones are not. Priority ranks only
                    // order writers among themselves.
                    self.locks.enqueue(id, &key, LockMode::Shared, u64::MAX);
                    // A blocked read can close a reader/writer waiting
                    // cycle; break it by dooming an unprepared broadcast
                    // transaction in the cycle (never a reader).
                    if self.resolve_read_deadlocks {
                        self.resolve_deadlock(events);
                    }
                    // Mark progress so the grant callback resumes at the
                    // right index (the queued read is `next`).
                    return;
                }
            }
        }
    }

    /// Commits a read-only transaction locally: record, measure, release.
    fn commit_read_only(&mut self, id: TxnId, now: SimTime, events: &mut EventBuf) {
        let txn = self.local.remove(&id).expect("present");
        let latency = now.saturating_since(txn.submitted);
        self.metrics.commit_readonly(latency, now);
        let me = self.me;
        self.tracer.emit(|| TraceEvent::Commit {
            at: now,
            site: me,
            txn: txn_ref(id),
        });
        self.remote.retire(&mut self.decided, &id, Fate::Committed);
        self.record_commit(txn);
        let granted = self.locks.release_all(id);
        self.process_grants(granted, now, events);
    }

    /// Hands a transaction committed here, its origin, to the history.
    fn record_commit(&self, txn: LocalTxn) {
        if let Some(history) = &self.history {
            history.borrow_mut().record(txn);
        }
    }

    /// Aborts a transaction originated here. Safe in any phase; releases
    /// its locks and records metrics.
    pub fn abort_local(
        &mut self,
        id: TxnId,
        reason: AbortReason,
        now: SimTime,
        events: &mut EventBuf,
    ) {
        let Some(gone) = self.local.remove(&id) else {
            return; // already gone
        };
        self.metrics.abort(reason);
        let me = self.me;
        self.tracer.emit(|| TraceEvent::Abort {
            at: now,
            site: me,
            txn: txn_ref(id),
            reason: reason.counter().into(),
        });
        if gone.spec.is_read_only() {
            // Only the atomic protocol ever does this (the price of
            // acknowledgement-free commitment); tracked separately so the
            // read-only experiments can report it.
            self.metrics.counters.add("aborts_readonly", 1);
        }
        self.remote.retire(&mut self.decided, &id, Fate::Aborted);
        let granted = self.locks.release_all(id);
        self.process_grants(granted, now, events);
    }

    // ------------------------------------------------------------------
    // Remote (broadcast) transaction processing
    // ------------------------------------------------------------------

    /// Returns (creating if needed) the remote entry for `id`, or `None`
    /// if `id` is already decided: a late message must not bring a
    /// retired transaction back. A smaller (older) priority refines any
    /// placeholder recorded earlier — votes can arrive before the write
    /// ops that carry the real priority.
    pub fn remote_entry(&mut self, id: TxnId, prio: TxnPriority) -> Option<&mut RemoteTxn> {
        let e = match self.remote.slot(&id) {
            Some(i) => &mut self.remote.slab[i],
            None if self.decided.contains_key(&id) => return None,
            None => self.remote.insert(id, prio),
        };
        if prio < e.prio {
            e.prio = prio;
        }
        Some(e)
    }

    /// Handles a delivered write operation: records it and tries to acquire
    /// its exclusive lock under the configured conflict policy.
    ///
    /// Emits [`LocalEvent::RemotePrepared`] when this grant completes the
    /// transaction's lock set, and [`LocalEvent::RemoteDoomed`] for every
    /// transaction condemned in the process.
    pub fn deliver_write_op(
        &mut self,
        id: TxnId,
        prio: TxnPriority,
        op: WriteOp,
        of: usize,
        now: SimTime,
        events: &mut EventBuf,
    ) {
        let Some(entry) = self.remote_entry(id, prio) else {
            return; // already terminated (e.g. wounded before this op arrived)
        };
        entry.ops.push(op.clone());
        entry.n_writes = Some(of);
        if entry.doomed.is_some() {
            return; // no point locking for a condemned transaction
        }
        let key = op.key;
        let already = entry.keys_granted.contains(&key) || entry.keys_waiting.contains(&key);
        if !self.placement.is_holder(self.me, &key, self.n) {
            // Not a replica of this key: record the op (write-set
            // knowledge) but take no lock and never install it.
            self.check_prepared(id, events);
            return;
        }
        if !already {
            self.acquire_write_lock(id, prio, &key, now, events);
        }
        self.check_prepared(id, events);
    }

    /// Attempts to take the exclusive lock on `key` for broadcast
    /// transaction `id`, applying the conflict policy against current
    /// holders.
    fn acquire_write_lock(
        &mut self,
        id: TxnId,
        prio: TxnPriority,
        key: &Key,
        now: SimTime,
        events: &mut EventBuf,
    ) {
        loop {
            match self.locks.request(id, key, LockMode::Exclusive) {
                RequestOutcome::Granted => {
                    let entry = self.remote.get_mut(&id).expect("present");
                    entry.keys_granted.push(key.clone());
                    return;
                }
                RequestOutcome::Conflict { holders } => {
                    let mut wounded_someone = false;
                    for holder in holders {
                        if holder == id {
                            continue;
                        }
                        match self.classify_holder(holder) {
                            HolderKind::ReadOnlyLocal => {
                                // Writers wait for read-only transactions —
                                // the paper guarantees they never abort.
                            }
                            HolderKind::UpdateLocalReadPhase => {
                                if !self.wound_local_readers {
                                    continue; // wait (baseline: may deadlock)
                                }
                                let holder_prio = self.local[&holder].prio;
                                if self.should_wound(prio, holder_prio) {
                                    self.abort_local(holder, AbortReason::Wounded, now, events);
                                    wounded_someone = true;
                                } else if self.policy == ConflictPolicy::WaitDie
                                    && !prio.older_than(&holder_prio)
                                {
                                    self.doom_remote(id, AbortReason::WaitDie, events);
                                    return;
                                }
                            }
                            HolderKind::RemoteUndecided => {
                                if !self.wound_remote {
                                    continue; // wait; ordered conflicts queue
                                }
                                // A local transaction in its write phase may
                                // hold read locks before its own broadcast
                                // comes back; materialize its remote entry so
                                // dooming it has somewhere to land.
                                if !self.remote.contains_key(&holder) {
                                    let Some(lp) = self.local.get(&holder).map(|l| l.prio) else {
                                        continue; // unknown holder: just wait
                                    };
                                    self.remote_entry(holder, lp);
                                }
                                let hp = self.remote[&holder].prio;
                                let holder_voted = self.remote[&holder].my_vote == Some(true);
                                if holder_voted {
                                    // A locally-prepared holder (YES vote
                                    // cast) can no longer be wounded — the
                                    // vote cannot be retracted. An *older*
                                    // requester must not wait either (two
                                    // mutually-prepared transactions would
                                    // deadlock), so the requester is doomed
                                    // instead: this site votes NO for it.
                                    //
                                    // Under wound-wait a *younger* requester
                                    // may wait: every wait edge then points
                                    // from younger to older and no cycle can
                                    // close. Under wait-die the normal edges
                                    // point the other way (older waits for
                                    // younger), so mixing in younger-waits-
                                    // for-prepared edges breaks the age
                                    // argument — there the requester dies
                                    // regardless of age.
                                    if prio.older_than(&hp)
                                        || self.policy == ConflictPolicy::WaitDie
                                    {
                                        self.doom_remote(id, AbortReason::Wounded, events);
                                        return;
                                    }
                                    // Younger requester waits (wound-wait).
                                } else if self.should_wound(prio, hp) {
                                    self.doom_remote(holder, AbortReason::Wounded, events);
                                    // Holder keeps its locks until its abort
                                    // decision; we queue behind it.
                                } else if self.policy == ConflictPolicy::WaitDie
                                    && !prio.older_than(&hp)
                                {
                                    self.doom_remote(id, AbortReason::WaitDie, events);
                                    return;
                                }
                            }
                            HolderKind::Terminated => {
                                // Lock about to be released; just queue.
                            }
                        }
                    }
                    if wounded_someone {
                        // A wound released locks synchronously; retry the
                        // request before queueing.
                        continue;
                    }
                    let rank = if self.rank_by_delivery {
                        self.rank_counter += 1;
                        self.rank_counter
                    } else {
                        prio.ts
                    };
                    self.locks.enqueue(id, key, LockMode::Exclusive, rank);
                    let entry = self.remote.get_mut(&id).expect("present");
                    entry.keys_waiting.push(key.clone());
                    // This enqueue may close a waiting cycle through local
                    // readers (which are never wounded); break it now.
                    if self.resolve_read_deadlocks {
                        self.resolve_deadlock(events);
                    }
                    return;
                }
            }
        }
    }

    /// Breaks a local waits-for cycle, if one exists, by dooming the first
    /// unprepared broadcast transaction in it. Prepared (voted) holders and
    /// readers are never victims: prepared transactions terminate on their
    /// own, and the paper guarantees read-only transactions never abort.
    /// Runs after every enqueue, which is what lets the lock table start
    /// from the new waiter (`LockManager::check_deadlock`).
    fn resolve_deadlock(&mut self, events: &mut EventBuf) {
        let Some(cycle) = self.locks.check_deadlock() else {
            return;
        };
        let mut candidates: Vec<TxnId> = cycle
            .into_iter()
            .filter(|t| {
                self.remote
                    .get(t)
                    .is_some_and(|e| e.my_vote.is_none() && e.doomed.is_none())
            })
            .collect();
        candidates.sort();
        if let Some(&victim) = candidates.first() {
            self.doom_remote(victim, AbortReason::Wounded, events);
        }
    }

    /// Called when `id` becomes locally prepared (its YES vote is about to
    /// go out): any *older* broadcast transaction queued behind its locks
    /// would be waiting on a vote that can no longer be retracted — the
    /// forbidden older-waits-for-prepared configuration. Doom those waiters
    /// now (this site votes NO for them). Under wound-wait the older
    /// requester could never have queued behind an unvoted younger holder;
    /// under wait-die it legally does, so this hook is what keeps the
    /// prepared rule airtight for both policies.
    pub fn doom_older_waiters_behind(&mut self, id: TxnId, events: &mut EventBuf) {
        let Some(entry) = self.remote.get(&id) else {
            return;
        };
        let hp = entry.prio;
        // Every lock the voter holds counts — including the shared locks
        // protecting its own reads at its origin: an older writer queued
        // behind one of those is just as stuck as one behind an exclusive
        // lock.
        for (k, _) in self.locks.locks_of(id) {
            for (w, mode) in self.locks.queued(k) {
                if mode != LockMode::Exclusive || w == id {
                    continue;
                }
                // `doom_remote`, inline: the lock table stays borrowed.
                let doomable = |we: &&mut RemoteTxn| {
                    we.prio.older_than(&hp) && we.doomed.is_none() && we.my_vote.is_none()
                };
                if let Some(we) = self.remote.get_mut(&w).filter(doomable) {
                    we.doomed = Some(AbortReason::Wounded);
                    events.push(LocalEvent::RemoteDoomed(w, AbortReason::Wounded));
                }
            }
        }
    }

    fn should_wound(&self, requester: TxnPriority, holder: TxnPriority) -> bool {
        self.policy == ConflictPolicy::WoundWait && requester.older_than(&holder)
    }

    /// Condemns a broadcast transaction at this site.
    pub fn doom_remote(&mut self, id: TxnId, reason: AbortReason, events: &mut EventBuf) {
        let Some(entry) = self.remote.get_mut(&id) else {
            return;
        };
        if entry.doomed.is_none() {
            entry.doomed = Some(reason);
            events.push(LocalEvent::RemoteDoomed(id, reason));
        }
    }

    fn classify_holder(&self, holder: TxnId) -> HolderKind {
        if self.decided.contains_key(&holder) {
            return HolderKind::Terminated;
        }
        if let Some(l) = self.local.get(&holder) {
            if l.spec.is_read_only() {
                return HolderKind::ReadOnlyLocal;
            }
            if matches!(l.phase, LocalPhase::AcquiringReads { .. }) {
                return HolderKind::UpdateLocalReadPhase;
            }
            // Write phase: the remote entry (same id) speaks for it.
        }
        // A broadcast transaction, or a local update transaction whose
        // write phase has started but whose own broadcast has not come back
        // yet: remote-undecided semantics, with its local priority.
        HolderKind::RemoteUndecided
    }

    /// Emits [`LocalEvent::RemotePrepared`] if `id` just became fully
    /// prepared.
    pub fn check_prepared(&self, id: TxnId, events: &mut EventBuf) {
        if let Some(entry) = self.remote.get(&id) {
            if entry.doomed.is_none() && entry.fully_prepared() {
                events.push(LocalEvent::RemotePrepared(id));
            }
        }
    }

    // ------------------------------------------------------------------
    // Termination
    // ------------------------------------------------------------------

    /// Applies the commit of broadcast transaction `id` at this site:
    /// installs the writes, records origin-side bookkeeping, and
    /// releases locks.
    ///
    /// # Panics
    /// Panics if the full write set has not been delivered.
    pub fn apply_commit(&mut self, id: TxnId, now: SimTime, events: &mut EventBuf) {
        if self.decided.contains_key(&id) {
            return;
        }
        let entry = (self.remote.retire(&mut self.decided, &id, Fate::Committed))
            .expect("commit of unknown transaction");
        assert_eq!(
            Some(entry.ops.len()),
            entry.n_writes,
            "commit applied before full write set delivered"
        );
        // The held writes install straight from the shell; the origin's
        // own copy, its specification's, moves into the cluster's history.
        let origin = self.local.remove(&id);
        let (me, n, placement) = (self.me, self.n, &self.placement);
        let held = entry
            .ops
            .iter()
            .filter(|w| placement.is_holder(me, &w.key, n));
        self.store.apply(id, held);
        let me = self.me;
        self.tracer.emit(|| TraceEvent::Commit {
            at: now,
            site: me,
            txn: txn_ref(id),
        });

        // Origin side: latency + the commit for the checker.
        if let Some(local) = origin {
            let latency = now.saturating_since(local.submitted);
            self.metrics.commit_update(latency, now);
            self.record_commit(local);
        }

        let granted = self.locks.release_all(id);
        self.process_grants(granted, now, events);
    }

    /// Applies the abort of broadcast transaction `id` at this site.
    pub fn apply_remote_abort(
        &mut self,
        id: TxnId,
        reason: AbortReason,
        now: SimTime,
        events: &mut EventBuf,
    ) {
        if self.decided.contains_key(&id) {
            return;
        }
        self.remote.retire(&mut self.decided, &id, Fate::Aborted);
        let me = self.me;
        self.tracer.emit(|| TraceEvent::Abort {
            at: now,
            site: me,
            txn: txn_ref(id),
            reason: reason.counter().into(),
        });
        if self.local.remove(&id).is_some() {
            // Origin records the abort (one metrics entry per transaction,
            // at its origin only).
            self.metrics.abort(reason);
        }
        let granted = self.locks.release_all(id);
        self.process_grants(granted, now, events);
    }

    /// Routes queue grants produced by a lock release: read grants resume
    /// local read phases, write grants advance remote transactions.
    pub fn process_grants(&mut self, granted: Grants, now: SimTime, events: &mut EventBuf) {
        for g in granted {
            match g.mode {
                LockMode::Shared => {
                    if let Some(txn) = self.local.get_mut(&g.txn) {
                        if let LocalPhase::AcquiringReads { next } = txn.phase {
                            // The queued read is `next`; it is now granted.
                            txn.phase = LocalPhase::AcquiringReads { next: next + 1 };
                            self.advance_reads(g.txn, now, events);
                        }
                    }
                }
                LockMode::Exclusive => {
                    if let Some(entry) = self.remote.get_mut(&g.txn) {
                        entry.keys_waiting.retain(|k| *k != g.key);
                        entry.keys_granted.push(g.key.clone());
                        events.push(LocalEvent::RemoteKeyGranted(g.txn, g.key.clone()));
                        self.check_prepared(g.txn, events);
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HolderKind {
    ReadOnlyLocal,
    UpdateLocalReadPhase,
    RemoteUndecided,
    Terminated,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The table `LiveTxns` replaced: the entries sorted by id, found by
    /// binary search, shifted on every insert and retire.
    #[derive(Default)]
    struct SortedLive(Vec<RemoteTxn>);

    impl SortedLive {
        fn slot(&self, id: &TxnId) -> Result<usize, usize> {
            self.0.binary_search_by_key(id, |e| e.id)
        }

        fn insert(&mut self, entry: RemoteTxn) {
            let i = self.slot(&entry.id).expect_err("not live");
            self.0.insert(i, entry);
        }

        fn remove(&mut self, id: &TxnId) -> Option<RemoteTxn> {
            self.slot(id).ok().map(|i| self.0.remove(i))
        }
    }

    /// One step against both live tables.
    #[derive(Debug, Clone)]
    enum LiveStep {
        Insert(usize, u64),
        Lookup(usize, u64),
        /// Marks the live entry at this rank, modulo the live count.
        Mark(usize, Scribble),
        /// Retires the live entry at this rank, modulo the live count
        /// (front, middle or back).
        Retire(usize),
        RetireMissing(usize, u64),
        Clear,
    }

    /// What a mark writes into a live entry, so that the shell it leaves
    /// behind holds state a reset must clear: one bit per field of
    /// `RemoteTxn` but its id (which every insert sets), and the site it
    /// votes with (at or past 64, the vote sets spill a word).
    #[derive(Debug, Clone, Copy)]
    struct Scribble {
        fields: u16,
        site: usize,
    }

    impl Scribble {
        fn apply(self, e: &mut RemoteTxn) {
            let on = |bit: u16| self.fields >> bit & 1 == 1;
            let site = SiteId(self.site);
            if on(0) {
                e.prio.ts += 1_000_000;
            }
            if on(1) {
                e.ops.push(wop("k", self.site as i64));
            }
            if on(2) {
                e.n_writes = Some(self.site);
            }
            if on(3) {
                e.keys_granted.push(Key::new("g"));
            }
            if on(4) {
                e.keys_waiting.push(Key::new("w"));
            }
            if on(5) {
                e.commit_req_seen = true;
            }
            if on(6) {
                e.doomed = Some(AbortReason::Wounded);
            }
            if on(7) {
                e.my_vote = Some(self.site.is_multiple_of(2));
            }
            if on(8) {
                e.votes_yes.insert(site);
            }
            if on(9) {
                e.votes_no.insert(site);
            }
            if on(10) {
                e.cr_seq = Some(self.site as u64);
            }
            if on(11) {
                e.commit_pending = true;
            }
        }
    }

    /// Nums cluster near the start and near 5 000, so one origin's window
    /// must reach across a wide gap; origin 40 grows the window list.
    fn live_id() -> impl Strategy<Value = (usize, u64)> {
        let origin = prop_oneof![0usize..4, 0usize..4, 0usize..4, Just(40usize)];
        let num = prop_oneof![1u64..24, 1u64..24, 1u64..24, 4_990u64..5_010];
        (origin, num)
    }

    fn live_step() -> impl Strategy<Value = LiveStep> {
        prop_oneof![
            live_id().prop_map(|(o, n)| LiveStep::Insert(o, n)),
            live_id().prop_map(|(o, n)| LiveStep::Insert(o, n)),
            live_id().prop_map(|(o, n)| LiveStep::Insert(o, n)),
            live_id().prop_map(|(o, n)| LiveStep::Lookup(o, n)),
            (
                0usize..1_000,
                0u16..1 << 12,
                prop_oneof![0usize..8, 60usize..130]
            )
                .prop_map(|(rank, fields, site)| LiveStep::Mark(rank, Scribble { fields, site })),
            (0usize..1_000).prop_map(LiveStep::Retire),
            (0usize..1_000).prop_map(LiveStep::Retire),
            live_id().prop_map(|(o, n)| LiveStep::RetireMissing(o, n)),
            Just(LiveStep::Clear),
        ]
    }

    proptest! {
        /// The slab and its windows hold exactly what the sorted vector
        /// holds, find the same entry for every id (a mark made through one
        /// lookup is seen by the next, after any number of swaps), retire
        /// the same entries and list the same ids in the same order. An
        /// insert into a retired shell gives exactly a fresh entry, whatever
        /// the shell's last transaction wrote into it, and the slab never
        /// holds more entries than were live at once.
        #[test]
        fn indexed_live_table_agrees_with_the_sorted_vector(
            steps in proptest::collection::vec(live_step(), 0..200)
        ) {
            let (mut live, mut decided) = (LiveTxns::default(), Outcomes::default());
            let mut old = SortedLive::default();
            let mut peak = 0;
            for (ts, step) in steps.into_iter().enumerate() {
                match step {
                    LiveStep::Insert(o, n) => {
                        let id = TxnId::new(SiteId(o), n);
                        if old.slot(&id).is_err() {
                            let fresh = RemoteTxn::new(id, prio(ts as u64, o, n));
                            prop_assert_eq!(&*live.insert(id, fresh.prio), &fresh);
                            old.insert(fresh);
                        }
                    }
                    LiveStep::Lookup(o, n) => {
                        let id = TxnId::new(SiteId(o), n);
                        let want = old.slot(&id).ok().map(|i| old.0[i].prio);
                        prop_assert_eq!(live.get(&id).map(|e| e.prio), want);
                        prop_assert_eq!(live.get_mut(&id).map(|e| e.prio), want);
                        prop_assert_eq!(live.contains_key(&id), want.is_some());
                    }
                    LiveStep::Mark(rank, scribble) if !old.0.is_empty() => {
                        let i = rank % old.0.len();
                        scribble.apply(live.get_mut(&old.0[i].id).expect("live"));
                        scribble.apply(&mut old.0[i]);
                    }
                    LiveStep::Mark(..) => prop_assert!(live.is_empty()),
                    LiveStep::Retire(rank) if !old.0.is_empty() => {
                        let id = old.0[rank % old.0.len()].id;
                        let got = live.retire(&mut decided, &id, Fate::Aborted).cloned();
                        prop_assert_eq!(got, old.remove(&id));
                    }
                    LiveStep::Retire(_) => prop_assert!(live.is_empty()),
                    LiveStep::RetireMissing(o, n) => {
                        let id = TxnId::new(SiteId(o), n);
                        let got = live.retire(&mut decided, &id, Fate::Aborted).cloned();
                        prop_assert_eq!(got, old.remove(&id));
                    }
                    LiveStep::Clear => {
                        live = LiveTxns::default();
                        old.0.clear();
                        peak = 0;
                    }
                }
                peak = peak.max(old.0.len());
                prop_assert!(live.slab.len() <= peak, "shells: {} > peak {}", live.slab.len(), peak);
                prop_assert_eq!(live.len(), old.0.len());
                for w in &live.windows {
                    let ends = [w.slots.front(), w.slots.back()];
                    prop_assert!(!ends.contains(&Some(&HOLE)), "a window spans live ends only");
                }
                prop_assert!(live.keys().eq(old.0.iter().map(|e| e.id)), "keys() ascending");
                for e in &old.0 {
                    prop_assert_eq!(&live[&e.id], e);
                }
            }
        }

        /// Site ids on both sides of the inline word and past a second
        /// spilled one: the bitset answers as a `BTreeSet` does.
        #[test]
        fn site_set_agrees_with_a_btree_set(
            sites in proptest::collection::vec(0usize..130, 0..40)
        ) {
            let (mut set, mut old) = (SiteSet::default(), BTreeSet::new());
            prop_assert!(set.is_empty());
            for s in sites {
                set.insert(SiteId(s));
                old.insert(s);
                prop_assert!(!set.is_empty());
                for q in 0..140 {
                    prop_assert_eq!(set.contains(SiteId(q)), old.contains(&q), "site {}", q);
                }
            }
        }
    }

    fn state() -> SiteState {
        SiteState::new(SiteId(0), 3, ConflictPolicy::WoundWait)
    }

    fn prio(ts: u64, site: usize, num: u64) -> TxnPriority {
        TxnPriority {
            ts,
            origin: SiteId(site),
            num,
        }
    }

    fn wop(key: &str, v: i64) -> WriteOp {
        WriteOp {
            key: Key::new(key),
            value: v,
        }
    }

    #[test]
    fn read_only_txn_commits_immediately_when_unblocked() {
        let mut st = state();
        let (id, events) = st.begin_txn(SimTime::from_micros(5), TxnSpec::new().read("x"));
        assert!(events.is_empty(), "read-only commits without events");
        assert_eq!(st.decided.get(&id), Some(true));
        assert_eq!(st.metrics.commits(), 1);
        assert!(st.local.is_empty());
    }

    #[test]
    fn update_txn_signals_reads_complete() {
        let mut st = state();
        let (id, events) = st.begin_txn(SimTime::ZERO, TxnSpec::new().read("x").write("y", 1));
        assert_eq!(events, vec![LocalEvent::ReadsComplete(id)]);
        assert_eq!(st.local[&id].phase, LocalPhase::WritePhase);
        assert_eq!(st.local[&id].observed().len(), 1);
    }

    #[test]
    fn empty_read_set_goes_straight_to_write_phase() {
        let mut st = state();
        let (id, events) = st.begin_txn(SimTime::ZERO, TxnSpec::new().write("y", 1));
        assert_eq!(events, vec![LocalEvent::ReadsComplete(id)]);
    }

    #[test]
    fn delivered_write_op_prepares_remote_txn() {
        let mut st = state();
        let t = TxnId::new(SiteId(1), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(t, prio(1, 1, 1), wop("x", 5), 1, SimTime::ZERO, &mut events);
        assert_eq!(events, vec![LocalEvent::RemotePrepared(t)]);
        assert!(st.remote[&t].fully_prepared());
    }

    #[test]
    fn multi_op_txn_prepares_after_last_op() {
        let mut st = state();
        let t = TxnId::new(SiteId(1), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(t, prio(1, 1, 1), wop("x", 5), 2, SimTime::ZERO, &mut events);
        assert!(events.is_empty());
        st.deliver_write_op(t, prio(1, 1, 1), wop("y", 6), 2, SimTime::ZERO, &mut events);
        assert_eq!(events, vec![LocalEvent::RemotePrepared(t)]);
    }

    #[test]
    fn writer_waits_for_read_only_reader() {
        let mut st = state();
        // A long read-only transaction holding "x": block it behind an
        // unrelated queue so it stays active... simplest: a read-only txn
        // with two reads where the second is blocked.
        let t_w = TxnId::new(SiteId(1), 1);
        let mut events = EventBuf::new();
        // Pre-hold x with an exclusive remote lock so the reader queues.
        st.deliver_write_op(
            t_w,
            prio(1, 1, 1),
            wop("x", 1),
            1,
            SimTime::ZERO,
            &mut events,
        );
        // Reader arrives, queues on x.
        let (ro, ev) = st.begin_txn(SimTime::from_micros(2), TxnSpec::new().read("x"));
        assert!(ev.is_empty());
        assert!(!st.decided.contains_key(&ro), "reader waits");
        // Writer commits; reader resumes and commits.
        events.clear();
        st.apply_commit(t_w, SimTime::from_micros(9), &mut events);
        assert_eq!(st.decided.get(&ro), Some(true));
        assert_eq!(st.store.value(&Key::new("x")), 1);
    }

    #[test]
    fn older_writer_wounds_younger_local_reader() {
        let mut st = state();
        // Pin "y" with a remote exclusive lock so the local reader stays in
        // its read phase: it gets S on "x", then queues on "y".
        let blocker = TxnId::new(SiteId(2), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(
            blocker,
            prio(0, 2, 1),
            wop("y", 0),
            1,
            SimTime::ZERO,
            &mut events,
        );
        let (reader, ev) = st.begin_txn(
            SimTime::from_micros(100),
            TxnSpec::new().read("x").read("y").write("z", 1),
        );
        assert!(ev.is_empty(), "reader blocked mid read phase");
        // An older remote write on x arrives and wounds the reader.
        let t_w = TxnId::new(SiteId(1), 1);
        events.clear();
        st.deliver_write_op(
            t_w,
            prio(1, 1, 1),
            wop("x", 9),
            1,
            SimTime::from_micros(101),
            &mut events,
        );
        assert!(
            events.contains(&LocalEvent::RemotePrepared(t_w)),
            "wound freed the lock"
        );
        assert_eq!(st.decided.get(&reader), Some(false), "reader wounded");
        assert_eq!(st.metrics.counters.get("abort_wounded"), 1);
    }

    #[test]
    fn younger_writer_waits_for_older_local_reader() {
        let mut st = state();
        let (reader, _) = st.begin_txn(
            SimTime::from_micros(1),
            TxnSpec::new().read("x").write("z", 1),
        );
        let t_w = TxnId::new(SiteId(1), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(
            t_w,
            prio(500, 1, 1),
            wop("x", 9),
            1,
            SimTime::from_micros(501),
            &mut events,
        );
        assert!(events.is_empty(), "younger writer queues");
        assert!(!st.decided.contains_key(&reader));
        assert!(st.remote[&t_w].keys_waiting.contains(&Key::new("x")));
    }

    #[test]
    fn older_remote_wounds_younger_remote_holder() {
        let mut st = state();
        let young = TxnId::new(SiteId(1), 1);
        let old = TxnId::new(SiteId(2), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(
            young,
            prio(100, 1, 1),
            wop("x", 1),
            1,
            SimTime::ZERO,
            &mut events,
        );
        events.clear();
        st.deliver_write_op(
            old,
            prio(1, 2, 1),
            wop("x", 2),
            1,
            SimTime::ZERO,
            &mut events,
        );
        assert!(events.contains(&LocalEvent::RemoteDoomed(young, AbortReason::Wounded)));
        // Old queues behind the doomed holder until its abort is applied.
        assert!(st.remote[&old].keys_waiting.contains(&Key::new("x")));
        events.clear();
        st.apply_remote_abort(young, AbortReason::Wounded, SimTime::ZERO, &mut events);
        assert!(events.contains(&LocalEvent::RemotePrepared(old)));
    }

    #[test]
    fn prepared_voted_holder_is_never_wounded() {
        let mut st = state();
        let young = TxnId::new(SiteId(1), 1);
        let old = TxnId::new(SiteId(2), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(
            young,
            prio(100, 1, 1),
            wop("x", 1),
            1,
            SimTime::ZERO,
            &mut events,
        );
        st.remote.get_mut(&young).unwrap().my_vote = Some(true);
        events.clear();
        st.deliver_write_op(
            old,
            prio(1, 2, 1),
            wop("x", 2),
            1,
            SimTime::ZERO,
            &mut events,
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, LocalEvent::RemoteDoomed(t, _) if *t == young)),
            "a locally-prepared transaction must not be wounded"
        );
        // Instead the older requester is doomed at this site — the only
        // deadlock-free option once the holder's YES vote is out.
        assert!(events.contains(&LocalEvent::RemoteDoomed(old, AbortReason::Wounded)));
    }

    #[test]
    fn wait_die_kills_younger_requester() {
        let mut st = SiteState::new(SiteId(0), 3, ConflictPolicy::WaitDie);
        let old = TxnId::new(SiteId(1), 1);
        let young = TxnId::new(SiteId(2), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(
            old,
            prio(1, 1, 1),
            wop("x", 1),
            1,
            SimTime::ZERO,
            &mut events,
        );
        events.clear();
        st.deliver_write_op(
            young,
            prio(100, 2, 1),
            wop("x", 2),
            1,
            SimTime::ZERO,
            &mut events,
        );
        assert!(events.contains(&LocalEvent::RemoteDoomed(young, AbortReason::WaitDie)));
    }

    #[test]
    fn wait_die_lets_older_requester_wait() {
        let mut st = SiteState::new(SiteId(0), 3, ConflictPolicy::WaitDie);
        let young = TxnId::new(SiteId(1), 1);
        let old = TxnId::new(SiteId(2), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(
            young,
            prio(100, 1, 1),
            wop("x", 1),
            1,
            SimTime::ZERO,
            &mut events,
        );
        events.clear();
        st.deliver_write_op(
            old,
            prio(1, 2, 1),
            wop("x", 2),
            1,
            SimTime::ZERO,
            &mut events,
        );
        assert!(events.is_empty(), "older requester waits under wait-die");
        assert!(st.remote[&old].keys_waiting.contains(&Key::new("x")));
    }

    #[test]
    fn apply_commit_installs_and_releases() {
        let mut st = state();
        let t = TxnId::new(SiteId(1), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(t, prio(1, 1, 1), wop("x", 7), 1, SimTime::ZERO, &mut events);
        events.clear();
        st.apply_commit(t, SimTime::from_micros(10), &mut events);
        assert_eq!(st.store.value(&Key::new("x")), 7);
        assert_eq!(st.decided.get(&t), Some(true));
        assert_eq!(st.locks.locks_of(t).count(), 0);
        let installs: Vec<_> = st.store.installs().collect();
        assert_eq!(installs, [(&Key::new("x"), t)]);
    }

    #[test]
    #[should_panic(expected = "full write set")]
    fn commit_before_full_write_set_panics() {
        let mut st = state();
        let t = TxnId::new(SiteId(1), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(t, prio(1, 1, 1), wop("x", 7), 2, SimTime::ZERO, &mut events);
        st.apply_commit(t, SimTime::ZERO, &mut events);
    }

    #[test]
    fn duplicate_decisions_are_idempotent() {
        let mut st = state();
        let t = TxnId::new(SiteId(1), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(t, prio(1, 1, 1), wop("x", 7), 1, SimTime::ZERO, &mut events);
        st.apply_commit(t, SimTime::ZERO, &mut events);
        st.apply_commit(t, SimTime::ZERO, &mut events);
        st.apply_remote_abort(t, AbortReason::NegativeVote, SimTime::ZERO, &mut events);
        assert_eq!(st.decided.get(&t), Some(true));
        assert_eq!(st.store.value(&Key::new("x")), 7);
    }

    #[test]
    fn write_op_after_decision_is_ignored() {
        let mut st = state();
        let t = TxnId::new(SiteId(1), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(t, prio(1, 1, 1), wop("x", 7), 1, SimTime::ZERO, &mut events);
        st.apply_remote_abort(t, AbortReason::NegativeVote, SimTime::ZERO, &mut events);
        events.clear();
        st.deliver_write_op(t, prio(1, 1, 1), wop("y", 1), 1, SimTime::ZERO, &mut events);
        assert!(events.is_empty());
        assert!(
            st.locks.locks_of(t).next().is_none(),
            "no lock acquired post-abort"
        );
    }

    #[test]
    fn has_undecided_tracks_lifecycle() {
        let mut st = state();
        assert!(!st.has_undecided());
        let t = TxnId::new(SiteId(1), 1);
        let mut events = EventBuf::new();
        st.deliver_write_op(t, prio(1, 1, 1), wop("x", 7), 1, SimTime::ZERO, &mut events);
        assert!(st.has_undecided());
        st.apply_commit(t, SimTime::ZERO, &mut events);
        assert!(!st.has_undecided());
    }

    #[test]
    fn upgrade_own_read_lock_to_write() {
        // A transaction reads x and writes x: its broadcast write op must
        // upgrade its own origin-side shared lock.
        let mut st = state();
        let (id, ev) = st.begin_txn(SimTime::ZERO, TxnSpec::new().read("x").write("x", 1));
        assert_eq!(ev, vec![LocalEvent::ReadsComplete(id)]);
        let p = st.local[&id].prio;
        let mut events = EventBuf::new();
        st.deliver_write_op(id, p, wop("x", 1), 1, SimTime::from_micros(1), &mut events);
        assert_eq!(events, vec![LocalEvent::RemotePrepared(id)]);
        assert!(st.locks.holds(id, &Key::new("x"), LockMode::Exclusive));
    }
}
