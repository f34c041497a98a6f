//! Benchmark spans: wall-clock intervals recorded around the calls this
//! benchmark makes into each layer, kept in memory and written out when
//! the run ends. The end-to-end pass runs with the recorder off, which
//! makes every method a single branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is the span that was open when this
/// one started (the span that caused it).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Spans::enter`]; `None` while the recorder is off.
pub type SpanId = Option<usize>;

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Seconds spent in spans called `name` directly under `parent`
    /// (zero while the recorder is off).
    pub fn total_under(&self, parent: SpanId, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| parent.is_some() && s.parent == parent && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part its direct children cover.
    pub fn self_times_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Share of the `rep` spans' time that their direct children cover.
    pub fn rep_coverage(&self) -> f64 {
        let rep_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == "rep")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let covered_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == "rep"))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        if rep_ns == 0 {
            0.0
        } else {
            covered_ns as f64 / rep_ns as f64
        }
    }

    /// The whole recording as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + 96 * self.spans.len());
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"self_time_s\":{{"
        );
        for (i, (name, s)) in self.self_times_s().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{s}");
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
