//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, made from the
//! benchmark's own code: name, start, end, parent span and the id of the
//! request or job it belongs to. Spans stay in memory and are written out
//! once the run ends, so recording costs two clock reads and a push.

use crate::util::{json_num, json_str};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request or job id; every span of one request shares it.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Per-name totals: calls, total time and self time (total minus the time
/// covered by child spans).
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    pub calls: u64,
    pub total_us: f64,
    pub self_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(index);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[index];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    /// Records a span timed elsewhere (e.g. on a client thread), at top
    /// level.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            id,
            parent: None,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Total duration of the spans of request `id` called `name`, per id.
    pub fn total_us_by_id(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(span.id).or_insert(0.0) += span.us();
        }
        out
    }

    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.us();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_us) {
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_us += span.us();
            entry.self_us += (span.us() - children).max(0.0);
        }
        out
    }

    /// The spans and their self-time table as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 1024);
        out.push('{');
        out.push_str(header);
        out.push_str(",\"self_times\":{");
        for (i, (name, t)) in self.self_times().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"calls\":{},\"total_us\":{},\"self_us\":{}}}",
                json_str(name),
                t.calls,
                json_num(t.total_us),
                json_num(t.self_us)
            ));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json_str(s.name),
                s.id,
                parent,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let times = t.self_times();
        let (outer, inner) = (&times["outer"], &times["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.total_us >= 2000.0);
        assert!((outer.self_us - (outer.total_us - inner.total_us)).abs() < 1e-6);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
