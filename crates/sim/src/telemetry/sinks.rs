//! Where trace events go: the [`TraceSink`] trait, the bounded in-memory
//! [`RingSink`], the JSON-Lines [`JsonlSink`], and the [`Tracer`] handle
//! instrumented code holds.

use super::TraceEvent;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::rc::Rc;

/// A destination for trace events.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, ev: &TraceEvent);
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
            // Pre-size to the full ring: the buffer reaches capacity on
            // every traced run anyway, so allocate once up front instead
            // of growing through the doubling sequence.
            buf: VecDeque::with_capacity(capacity),
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
    fn record(&mut self, ev: &TraceEvent) {
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(ev.clone());
    }
}

/// A sink writing one JSON object per event to a [`Write`] target
/// (typically a `.jsonl` file or an in-memory buffer).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    /// The line being encoded; reused, so recording allocates nothing.
    line: String,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            line: String::new(),
            lines: 0,
            error: None,
        }
    }

    /// Number of lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first I/O error encountered, if any (subsequent events are
    /// dropped once a write fails).
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    /// Returns the first deferred write error, or the flush error.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        ev.write_jsonl(&mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
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
            sink.borrow_mut().record(&f());
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
            ring.record(&TraceEvent::Crash {
                at: t(i),
                site: SiteId(0),
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicted(), 3);
        let kept: Vec<u64> = ring.events().map(|e| e.at().as_micros()).collect();
        assert_eq!(kept, vec![3, 4]);
    }
}
