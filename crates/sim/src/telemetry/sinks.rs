//! Where trace events go: the [`TraceSink`] trait, the bounded in-memory
//! [`RingSink`], the JSON-Lines [`JsonlSink`], the [`WorkerSink`] that
//! moves a consumer off the recording thread, and the [`Tracer`] handle
//! instrumented code holds.

use super::TraceEvent;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::panic;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

/// A destination for trace events.
pub trait TraceSink {
    /// Records one event, which the sink may keep.
    fn record(&mut self, ev: TraceEvent);
}

/// A bounded in-memory sink keeping the most recent events.
#[derive(Debug, Default)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    evicted: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (the oldest are
    /// evicted beyond that).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity,
            // The full ring plus the event arriving before the oldest leaves,
            // allocated once: every traced run fills it, and growing would
            // step through the doubling sequence.
            buf: VecDeque::with_capacity(capacity + 1),
            evicted: 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Copies the held events out, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: TraceEvent) {
        self.buf.push_back(ev);
        if self.buf.len() > self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
    }
}

/// A [`JsonlSink`] hands its writer a block once it holds this many bytes.
const BLOCK: usize = 64 * 1024;

/// A sink writing one JSON object per event to a [`Write`] target
/// (typically a `.jsonl` file or an in-memory buffer), in blocks the writer
/// receives whole. Dropping the sink writes the pending block and ignores a
/// write error, which [`JsonlSink::into_inner`] reports.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    /// `None` once `into_inner` took it.
    out: Option<W>,
    /// Lines not yet written; reused, so recording allocates nothing.
    block: String,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Some(out),
            // Room for the line that crosses the threshold.
            block: String::with_capacity(BLOCK + 1024),
            lines: 0,
            error: None,
        }
    }

    /// Lines recorded so far, written or pending. A failed write discards
    /// its block, so after an error these are the lines the writer took.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Encodes `ev` as one line; a failed write drops the lines after it.
    pub fn ingest(&mut self, ev: &TraceEvent) {
        if self.error.is_none() {
            ev.write_jsonl(&mut self.block);
            self.block.push('\n');
            self.lines += 1;
            if self.block.len() >= BLOCK {
                self.write_block();
            }
        }
    }

    fn write_block(&mut self) {
        if let (Some(out), None) = (&mut self.out, &self.error) {
            if let Err(e) = out.write_all(self.block.as_bytes()) {
                self.lines -= self.block.matches('\n').count() as u64;
                self.error = Some(e);
            }
        }
        self.block.clear();
    }

    /// Writes the pending block, flushes and returns the underlying writer.
    ///
    /// # Errors
    /// Returns the first write error, or the flush error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.write_block();
        let mut out = self.out.take().expect("only into_inner takes the writer");
        self.error
            .take()
            .map_or_else(|| out.flush().map(|()| out), Err)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: TraceEvent) {
        self.ingest(&ev);
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        self.write_block();
    }
}

/// Events a [`WorkerSink`] hands on at once: 56 KiB, cache-sized.
pub const BLOCK_EVENTS: usize = 1024;

/// The block whose filling starts a [`WorkerSink`]'s worker; the blocks
/// before it are consumed on the recording thread. Starting a thread and
/// waking it across cores costs about what consuming five blocks does
/// (0.5 ms on a two-core VM): a run of a few blocks is faster on one
/// thread, and one this long loses at most a few percent to the start.
pub const WORKER_START_BLOCK: usize = 32;

/// Threads busy with traced runs: one recording into each live
/// [`WorkerSink`], one per running worker. A worker starts only while this
/// leaves a core idle; on a busy core it would only add a thread switch.
/// A scheduling hint that guards no data, so `Relaxed`.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Blocks in a running worker's pool, allocated once (900 KiB). With none
/// free the recorder waits, which bounds the memory in flight; fifteen
/// blocks of slack ride out a worker that the host briefly deschedules.
const POOL: usize = 16;

/// A sink feeding its consumer `C` in blocks of [`BLOCK_EVENTS`] events: on
/// a worker thread, started when block [`WORKER_START_BLOCK`] fills if a
/// core is idle then, else on the recording thread. `C` sees every event
/// once, in order. [`WorkerSink::settle`] and drop wait until the worker
/// has drained, then consume the partial block here. A panic of `C` on the
/// worker resumes here, payload intact, at the next handoff, settle or drop.
pub struct WorkerSink<C: TraceSink + Send + 'static> {
    block: Vec<TraceEvent>,
    shared: Arc<Shared<C>>,
    worker: Option<JoinHandle<()>>,
    /// Blocks filled so far, counted up to [`WORKER_START_BLOCK`]: the
    /// worker starts then or never.
    filled: usize,
}

struct Shared<C> {
    consumer: Mutex<C>,
    queue: Mutex<Queue>,
    /// Wakes the other thread: each side waits only for the other.
    turn: Condvar,
}

impl<C> Shared<C> {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        (self.queue.lock()).expect("nothing panics while holding the trace queue")
    }

    fn wait<'a>(&self, queue: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        (self.turn.wait(queue)).expect("nothing panics while holding the trace queue")
    }
}

/// Handed-over blocks, oldest first (an empty one closes the queue), and
/// consumed ones to refill; `exited` once the worker has left.
#[derive(Default)]
struct Queue {
    filled: VecDeque<Vec<TraceEvent>>,
    empty: Vec<Vec<TraceEvent>>,
    exited: bool,
}

impl<C: TraceSink + Send + 'static> WorkerSink<C> {
    /// A sink feeding `consumer`. No thread starts before a run is long.
    pub fn new(consumer: C) -> Self {
        let shared = Shared {
            consumer: Mutex::new(consumer),
            queue: Mutex::default(),
            turn: Condvar::new(),
        };
        BUSY.fetch_add(1, Ordering::Relaxed);
        WorkerSink {
            // Half a block, doubled once if the run fills one: most traced
            // runs are short, and a smaller first allocation is cheaper.
            block: Vec::with_capacity(BLOCK_EVENTS / 2),
            shared: Arc::new(shared),
            worker: None,
            filled: 0,
        }
    }

    /// The consumer, once it has seen every event recorded so far.
    ///
    /// # Panics
    /// Resumes the consumer's panic on the worker; panics if the consumer
    /// was lost to an earlier one.
    pub fn settle(&mut self) -> MutexGuard<'_, C> {
        self.wait_until(|q| q.empty.len() == POOL - 1);
        let mut consumer = (self.shared.consumer.lock()).expect("the trace consumer panicked");
        self.block.drain(..).for_each(|ev| consumer.record(ev));
        consumer
    }

    /// With a worker running, waits until `ready` holds of the queue. If the
    /// worker exits first, joins it, resumes its panic (unless this thread
    /// is unwinding already) and returns false.
    fn wait_until(&mut self, ready: fn(&Queue) -> bool) -> bool {
        let Some(_) = self.worker else { return false };
        let mut queue = self.shared.queue();
        while !queue.exited && !ready(&queue) {
            queue = self.shared.wait(queue);
        }
        if !queue.exited {
            return true;
        }
        drop(queue);
        BUSY.fetch_sub(1, Ordering::Relaxed);
        match self.worker.take().map(JoinHandle::join) {
            Some(Err(payload)) if !thread::panicking() => panic::resume_unwind(payload),
            _ => false,
        }
    }

    /// Starts the worker and its pool, if a core is idle.
    fn spawn(&self) -> Option<JoinHandle<()>> {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        if BUSY.fetch_add(1, Ordering::Relaxed) >= cores {
            BUSY.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        let shared = Arc::clone(&self.shared);
        let spawned = (thread::Builder::new().name("trace-consumer".to_owned())).spawn(move || {
            let worked = panic::catch_unwind(panic::AssertUnwindSafe(|| work(&shared)));
            shared.queue().exited = true;
            shared.turn.notify_one();
            worked.unwrap_or_else(|payload| panic::resume_unwind(payload));
        });
        let Ok(worker) = spawned else {
            BUSY.fetch_sub(1, Ordering::Relaxed);
            return None;
        };
        let mut queue = self.shared.queue();
        queue.filled.reserve_exact(POOL);
        queue.empty = (1..POOL)
            .map(|_| Vec::with_capacity(BLOCK_EVENTS))
            .collect();
        Some(worker)
    }
}

/// The worker: consumes handed-over blocks in order and hands each back.
fn work<C: TraceSink>(shared: &Shared<C>) {
    let mut queue = shared.queue();
    loop {
        match queue.filled.pop_front() {
            None => queue = shared.wait(queue),
            Some(block) if block.is_empty() => return,
            Some(mut block) => {
                drop(queue);
                let mut consumer = (shared.consumer.lock()).expect("the trace consumer panicked");
                block.drain(..).for_each(|ev| consumer.record(ev));
                drop(consumer);
                queue = shared.queue();
                queue.empty.push(block);
                shared.turn.notify_one();
            }
        }
    }
}

impl<C: TraceSink + Send + 'static> TraceSink for WorkerSink<C> {
    /// Collects `ev`. A full block goes to the worker, if one runs or starts
    /// with this block, or else is consumed here.
    fn record(&mut self, ev: TraceEvent) {
        self.block.push(ev);
        if self.block.len() < BLOCK_EVENTS {
            return;
        }
        if self.filled < WORKER_START_BLOCK {
            self.filled += 1;
            if self.filled == WORKER_START_BLOCK {
                self.worker = self.spawn();
            }
        }
        if self.wait_until(|q| !q.empty.is_empty()) {
            let mut queue = self.shared.queue();
            let empty = queue.empty.pop().expect("a free block");
            let full = std::mem::replace(&mut self.block, empty);
            queue.filled.push_back(full);
            self.shared.turn.notify_one();
        } else {
            drop(self.settle());
        }
    }
}

impl<C: TraceSink + Send + 'static> Drop for WorkerSink<C> {
    /// Settles the consumer, unless a panic lost it, then closes the queue
    /// and joins the worker. Resumes a consumer panic from the worker unless
    /// this thread is unwinding already.
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
        self.wait_until(|q| q.empty.len() == POOL - 1);
        if let Ok(mut consumer) = self.shared.consumer.lock() {
            self.block.drain(..).for_each(|ev| consumer.record(ev));
        }
        if self.worker.is_some() {
            self.shared.queue().filled.push_back(Vec::new());
            self.shared.turn.notify_one();
            self.wait_until(|_| false);
        }
    }
}

/// A cheap, cloneable tracing handle. Disabled by default; when disabled,
/// [`Tracer::emit`] never evaluates its closure, so instrumented hot
/// paths pay only a branch on an `Option`.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl Tracer {
    /// A tracer that drops everything at zero cost.
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// A tracer recording into `sink`.
    pub fn new<S: TraceSink + 'static>(sink: Rc<RefCell<S>>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// True iff a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event produced by `f` — or does nothing (without
    /// calling `f`) when disabled.
    pub fn emit<F: FnOnce() -> TraceEvent>(&self, f: F) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(f());
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::t;
    use super::super::Phase;
    use super::*;
    use crate::SiteId;

    #[test]
    fn disabled_tracer_never_evaluates_the_closure() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.emit(|| panic!("closure must not run when tracing is disabled"));
    }

    #[test]
    fn enabled_tracer_records_into_the_sink() {
        let ring = Rc::new(RefCell::new(RingSink::new(4)));
        let tracer = Tracer::new(ring.clone());
        assert!(tracer.is_enabled());
        tracer.emit(|| TraceEvent::Crash {
            at: t(9),
            site: SiteId(2),
        });
        assert_eq!(
            ring.borrow().to_vec(),
            vec![TraceEvent::Crash {
                at: t(9),
                site: SiteId(2)
            }]
        );
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let mut ring = RingSink::new(2);
        for i in 0..5 {
            ring.record(TraceEvent::Crash {
                at: t(i),
                site: SiteId(0),
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicted(), 3);
        let kept: Vec<u64> = ring.events().map(|e| e.at().as_micros()).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    fn crash(at: u64) -> TraceEvent {
        TraceEvent::Crash {
            at: t(at),
            site: SiteId(0),
        }
    }

    /// The sinks below must be the only live ones in the process, so that
    /// each starts its worker when a core is idle: they take turns.
    fn alone() -> MutexGuard<'static, ()> {
        static ALONE: Mutex<()> = Mutex::new(());
        ALONE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Below one block, exactly one, one more, and past the worker's start:
    /// the consumer sees every event once and in order, whether a block went
    /// to the worker or was consumed here, and settling between blocks
    /// changes nothing.
    #[test]
    fn worker_sink_feeds_every_event_in_order() {
        let _alone = alone();
        let many = 3 * WORKER_START_BLOCK * BLOCK_EVENTS + 7;
        for n in [5, BLOCK_EVENTS, BLOCK_EVENTS + 1, many] {
            let mut sink = WorkerSink::new(RingSink::new(n));
            for at in 0..n as u64 {
                sink.record(crash(at));
                if at % 5_000 == 4_999 {
                    assert_eq!(sink.settle().len() as u64, at + 1);
                }
            }
            let ring = sink.settle();
            let seen: Vec<u64> = ring.events().map(|e| e.at().as_micros()).collect();
            assert_eq!(seen, (0..n as u64).collect::<Vec<_>>(), "{n} events");
        }
    }

    /// The payload a [`Fuse`] panics with.
    #[derive(Debug, PartialEq)]
    struct Blown(u64);

    /// A consumer that panics on its `at`-th event.
    struct Fuse {
        seen: u64,
        at: u64,
    }

    impl TraceSink for Fuse {
        fn record(&mut self, _ev: TraceEvent) {
            self.seen += 1;
            if self.seen == self.at {
                panic::panic_any(Blown(self.at));
            }
        }
    }

    /// Records `events` into a sink whose consumer panics on its `at`-th
    /// event, then ends with `finish`; returns the step the panic came out
    /// of (0 = recording, 1 = `finish`) and its payload.
    fn blow(
        events: usize,
        at: u64,
        finish: impl FnOnce(WorkerSink<Fuse>),
    ) -> (usize, Box<dyn std::any::Any + Send>) {
        let mut sink = WorkerSink::new(Fuse { seen: 0, at });
        let recorded = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            for i in 0..events as u64 {
                sink.record(crash(i));
            }
        }));
        match recorded {
            Err(payload) => (0, payload),
            Ok(()) => {
                let finished = panic::catch_unwind(panic::AssertUnwindSafe(|| finish(sink)));
                (1, finished.expect_err("the consumer's panic was swallowed"))
            }
        }
    }

    /// A consumer's panic comes back on the recording thread with its own
    /// payload: at a later handoff, at `settle`, or at drop. On a worker it
    /// waits for the next of those; consumed here it is immediate.
    #[test]
    fn a_consumer_panic_resurfaces_with_its_payload() {
        let _alone = alone();
        let worker = thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        let block = BLOCK_EVENTS as u64;
        let start = WORKER_START_BLOCK as u64;
        // The fuse sits in the worker's first block; recording goes on.
        let fuse = (start - 1) * block + 5;
        let (step, payload) = blow((WORKER_START_BLOCK + 40) * BLOCK_EVENTS, fuse, drop);
        assert_eq!(step, 0, "a later handoff reports it");
        assert_eq!(payload.downcast_ref(), Some(&Blown(fuse)));
        // The fuse's block is the last one handed over: `settle` or drop.
        let last = (WORKER_START_BLOCK + 1) * BLOCK_EVENTS;
        let settle = |mut sink: WorkerSink<Fuse>| drop(sink.settle());
        let fuse = start * block + 1;
        for (step, payload) in [blow(last, fuse, settle), blow(last, fuse, drop)] {
            assert_eq!(step, usize::from(worker));
            assert_eq!(payload.downcast_ref(), Some(&Blown(fuse)));
        }
        // In the partial block the fuse blows at `settle`, on this thread.
        let (step, payload) = blow(last + 9, last as u64 + 3, settle);
        assert_eq!(step, 1);
        assert_eq!(payload.downcast_ref(), Some(&Blown(last as u64 + 3)));
    }

    /// What a [`Disk`] accepted, one write per chunk.
    type Chunks = Rc<RefCell<Vec<Vec<u8>>>>;

    /// A writer keeping each write it accepts as one chunk, and refusing
    /// its `fail_at`-th write (counting from 1) and every one after.
    struct Disk {
        chunks: Chunks,
        fail_at: usize,
    }

    impl Write for Disk {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut chunks = self.chunks.borrow_mut();
            if chunks.len() + 1 >= self.fail_at {
                return Err(io::Error::other("disk full"));
            }
            chunks.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn disk(fail_at: usize) -> (JsonlSink<Disk>, Chunks) {
        let chunks = Rc::new(RefCell::new(Vec::new()));
        let sink = JsonlSink::new(Disk {
            chunks: chunks.clone(),
            fail_at,
        });
        (sink, chunks)
    }

    fn send(at: u64) -> TraceEvent {
        TraceEvent::Send {
            at: t(at),
            from: SiteId(0),
            to: SiteId(1),
            phase: Phase::Ack,
        }
    }

    /// A writer that fails on its third write: the sink stops there, counts
    /// exactly the lines the writer holds, and `into_inner` reports the
    /// error (so the cluster writes no trailer).
    #[test]
    fn jsonl_sink_counts_only_what_a_failing_writer_took() {
        let (mut sink, chunks) = disk(3);
        for at in 0..10_000 {
            sink.record(send(at));
        }
        let took = chunks.borrow().concat();
        assert_eq!(chunks.borrow().len(), 2, "10 000 lines fill 3 blocks");
        assert!(took.ends_with(b"\n"), "a block holds whole lines");
        let held = took.iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!(sink.lines(), held);
        assert!(sink.into_inner().is_err());
        assert_eq!(
            chunks.borrow().concat(),
            took,
            "nothing written after the error"
        );
    }

    /// The line that crosses the block threshold leaves whole, with the
    /// block it started in, however far past the threshold it reaches.
    #[test]
    fn jsonl_sink_writes_an_event_that_crosses_the_block_threshold() {
        let (mut sink, chunks) = disk(usize::MAX);
        let mut expected = String::new();
        let mut record = |sink: &mut JsonlSink<Disk>, ev: TraceEvent| {
            ev.write_jsonl(&mut expected);
            expected.push('\n');
            sink.record(ev);
        };
        let mut at = 0;
        while sink.block.len() < BLOCK - 100 {
            record(&mut sink, send(at));
            at += 1;
        }
        assert!(
            chunks.borrow().is_empty(),
            "below the threshold nothing is written"
        );
        let members = (0..2_000).map(SiteId).collect();
        let site = SiteId(0);
        record(
            &mut sink,
            TraceEvent::ViewChange {
                at: t(at),
                site,
                members,
            },
        );
        assert_eq!(
            chunks.borrow().len(),
            1,
            "the crossing line completes the block"
        );
        record(&mut sink, send(at + 1));
        assert_eq!(sink.lines(), at + 2);
        sink.into_inner().expect("this disk never fails");
        let chunks = chunks.borrow();
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].len() > BLOCK + 1024, "{}", chunks[0].len());
        assert_eq!(chunks.concat(), expected.as_bytes());
    }
}
