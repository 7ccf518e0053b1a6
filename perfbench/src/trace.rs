//! In-memory spans around the benchmark's calls into the library.
//!
//! A span has a name (`<layer>.<call>`), start and end (nanoseconds
//! since the tracer was created), the span that was open when it began
//! (its parent), and a request id shared by the spans of one request.
//! Spans stay in memory and are written out as JSON lines at the end.
//! A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the last `.`.
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(layer, _)| layer)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when the tracer is off.
pub type Open = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; children opened before [`exit`](Self::exit) get it
    /// as their parent.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, request, parent, start_ns, end_ns: start_ns });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `open` returned by [`enter`](Self::enter).
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    /// Records a finished span measured by the caller (used where only
    /// some calls are worth a span, e.g. polls that returned work).
    pub fn record(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, request, parent, start_ns, end_ns });
        }
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the part its children cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.layer()).or_default() += s.duration_ns().saturating_sub(c);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.enter("service.serve", 1);
        t.record("service.try_submit", 7, 0, 0);
        let inner = t.enter("bench.generator", 1);
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].layer(), "service");
        // Self times partition the outer span's duration.
        let total: u64 = t.self_time_by_layer().values().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans.push(Span { name: "a.x", request: 0, parent: None, start_ns: 0, end_ns: 100 });
        t.spans.push(Span { name: "b.y", request: 0, parent: Some(0), start_ns: 10, end_ns: 40 });
        t.spans.push(Span { name: "b.z", request: 0, parent: Some(0), start_ns: 50, end_ns: 60 });
        let by = t.self_time_by_layer();
        assert_eq!(by["a"], 60);
        assert_eq!(by["b"], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("exec.route", 3, || 42);
        t.record("service.try_recv", 1, 0, 5);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new(true);
        t.span("engine.run", 2, || ());
        t.span("exec.route", 3, || ());
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\": 0, \"parent\": null, \"name\": \"engine.run\""));
        assert!(lines[1].contains("\"request\": 3"));
    }
}
