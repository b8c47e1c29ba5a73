//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name (`layer.operation`), its start and end, the span
//! that was open when it began, and the iteration it belongs to.  Spans
//! stay in memory and are written once, at exit, as Chrome trace-event
//! JSON — the format `laec-cli forensics --chrome-trace` emits.  The
//! program itself carries no spans: every span wraps a public call made
//! from this crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `pipeline.execute`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the outermost enclosing span (itself for a top-level span).
    pub root: usize,
    /// The iteration (set-up or repetition) the span belongs to.
    pub iteration: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder; [`Tracer::off`] records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Tags the spans begun from now on with `iteration`.
    pub fn set_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].  Returns `None` when
    /// the tracer is off.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            root: self.open.first().copied().unwrap_or(id),
            iteration: self.iteration,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span `id`.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.open.pop();
        }
    }

    /// Renames a span after the fact (a replay that diverged).
    pub fn rename(&mut self, id: Option<usize>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Runs `call` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let value = call();
        self.end(id);
        value
    }

    /// Total milliseconds per span name, per iteration, over the spans
    /// under top-level spans named in `roots` (the roots included).
    pub fn totals(&self, roots: &[&str]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut totals: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for span in self.under(roots) {
            *totals
                .entry(span.iteration)
                .or_default()
                .entry(span.name)
                .or_default() += span.ms();
        }
        totals
    }

    /// Durations in milliseconds of every span named `name` under the
    /// top-level spans named in `roots`.
    pub fn durations(&self, roots: &[&str], name: &str) -> Vec<f64> {
        self.under(roots)
            .filter(|span| span.name == name)
            .map(Span::ms)
            .collect()
    }

    fn under<'a>(&'a self, roots: &'a [&str]) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |span| roots.contains(&self.spans[span.root].name))
    }

    /// Self time (span minus the time its child spans cover) per layer,
    /// per iteration, over the descendants of top-level spans named `root`.
    pub fn self_time_by_layer(&self, root: &str) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut totals: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            if span.parent.is_some() && self.spans[span.root].name == root {
                *totals
                    .entry(span.iteration)
                    .or_default()
                    .entry(span.layer())
                    .or_default() += span.ms() - child_ms[index];
            }
        }
        totals
    }

    /// The spans as Chrome trace-event JSON (complete events, microsecond
    /// timestamps).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{index},\"parent\":{parent},\
                 \"iteration\":{}}}}}",
                span.name,
                span.layer(),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.iteration,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
