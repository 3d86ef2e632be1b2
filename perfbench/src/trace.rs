//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::self_time;

/// One timed call: `name` is the layer entry point, `request` the
/// request it served, `parent` the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. Spans are appended in start order and closed by id.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn start(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a root span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.start(name, request, None);
        let value = f();
        self.end(id);
        value
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Summed self time of every span called `name`, in seconds: each
    /// span's duration minus the part its child spans cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let kids = children.get(&id).map_or(&[][..], Vec::as_slice);
                self_time((s.start_ns, s.end_ns), kids)
            })
            .sum();
        ns as f64 * 1e-9
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

/// The spans of one request: a root span and child spans under it,
/// recorded only when a tracer is present, so untraced runs execute the
/// same calls without recording anything.
pub struct Request<'t> {
    tracer: Option<&'t mut Tracer>,
    id: u64,
    root: Option<usize>,
}

impl<'t> Request<'t> {
    /// Opens request `id` with a root span called `name`.
    pub fn new(mut tracer: Option<&'t mut Tracer>, id: u64, name: &'static str) -> Self {
        let root = tracer.as_deref_mut().map(|t| t.start(name, id, None));
        Request { tracer, id, root }
    }

    /// Runs `f` in a child span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return f();
        };
        let span = tracer.start(name, self.id, self.root);
        let value = f();
        tracer.end(span);
        value
    }

    /// Whether spans are being recorded.
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Closes the root span.
    pub fn finish(mut self) {
        if let (Some(tracer), Some(root)) = (self.tracer.as_deref_mut(), self.root) {
            tracer.end(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_follows_parent_links() {
        let tracer = Tracer {
            origin: Instant::now(),
            spans: vec![
                span("frame.feed", None, 0, 1000),
                span("control.feed", Some(0), 100, 400),
                span("control.close", Some(0), 500, 600),
                span("frame.feed", None, 2000, 2500),
                span("control.feed", Some(3), 2100, 2200),
                // Not a child of span 3: a root span overlapping it.
                span("control.tick", None, 2300, 2400),
            ],
        };
        assert!((tracer.self_s("frame.feed") - 1000e-9).abs() < 1e-15);
        assert!((tracer.total_s("frame.feed") - 1500e-9).abs() < 1e-15);
        assert!((tracer.total_s("control.feed") - 400e-9).abs() < 1e-15);
        assert!((tracer.self_s("control.feed") - 400e-9).abs() < 1e-15);
        assert_eq!(tracer.total_s("missing"), 0.0);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut tracer = Tracer::default();
        let outer = tracer.start("outer", 7, None);
        let inner = tracer.start("inner", 7, Some(outer));
        tracer.end(inner);
        tracer.end(outer);
        let spans = &tracer.spans;
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(tracer.self_s("outer") <= tracer.total_s("outer"));
        let json = tracer.to_json();
        assert!(json.contains("\"name\":\"inner\",\"request\":7,\"parent\":0"));
    }
}
