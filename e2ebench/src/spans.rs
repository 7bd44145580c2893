//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls
//! into the simulator's public API (`World::new`, `Topology::routes_from`,
//! the deploy helpers, each `World::run_until` slice). Each span keeps a
//! name, start, end, parent and a few numeric attributes; the whole set
//! is written out once, when the benchmark ends. A disabled recorder
//! (the untraced run) ignores every call.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    attrs: Vec<(String, f64)>,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            attrs: Vec::new(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span (and any span still open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn attr(&mut self, id: SpanId, key: &str, value: f64) {
        if let Some(i) = id.0 {
            self.spans[i].attrs.push((key.to_string(), value));
        }
    }

    fn dur_ns(&self, i: usize) -> u64 {
        self.spans[i].end_ns.saturating_sub(self.spans[i].start_ns)
    }

    /// Span duration minus the time its direct children cover (children
    /// run one after another on this one thread, so they never overlap).
    fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(i))
            .map(|c| self.dur_ns(c))
            .sum();
        self.dur_ns(i).saturating_sub(children)
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur_ns(i))
            .sum();
        ns as f64 / 1e9
    }

    /// Total self time per span name, largest first, in seconds.
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut totals: Vec<(String, f64)> = Vec::new();
        for i in 0..self.spans.len() {
            let name = self.spans[i].name.split(' ').next().unwrap_or("").to_string();
            let s = self.self_ns(i) as f64 / 1e9;
            match totals.iter_mut().find(|(n, _)| *n == name) {
                Some(t) => t.1 += s,
                None => totals.push((name, s)),
            }
        }
        totals.sort_by(|a, b| b.1.total_cmp(&a.1));
        totals
    }

    /// The span dump: one JSON object per span, times in microseconds
    /// from the recorder's creation.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.1}, \
                 \"end_us\": {:.1}, \"self_us\": {:.1}, \"attrs\": {{",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self.self_ns(i) as f64 / 1e3
            );
            for (k, (key, v)) in s.attrs.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{key}\": {v}");
            }
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(out, "}}}}{sep}");
        }
        out.push_str("]}\n");
        out
    }
}
