//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer; they are kept in memory and written out once, when
//! the run ends. A disabled tracer records nothing, which is how the
//! traced walk is compared against an untraced one.

use std::path::Path;
use std::time::Instant;

/// One closed span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span; spans close innermost-first.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans must close in order");
        self.spans[idx].end_ns = end_ns;
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every closed span with this name, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Write `[{name,start_ns,end_ns,parent,workload}, …]`.
    pub fn write_json(&self, path: &Path, workload: &str) -> Result<(), String> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"workload\": \"{}\"}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                workload,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(true);
        let a = t.begin("outer");
        let b = t.begin("inner");
        t.end(b);
        t.end(a);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.durations("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("x");
        t.end(a);
        assert!(t.spans.is_empty());
    }
}
