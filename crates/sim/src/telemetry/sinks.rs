//! Where trace events go: the [`TraceSink`] trait, the bounded in-memory
//! [`RingSink`], the JSON-Lines [`JsonlSink`], and the [`Tracer`] handle
//! instrumented code holds.

use super::TraceEvent;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::rc::Rc;

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
