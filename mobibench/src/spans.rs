//! The traced run's span recorder.
//!
//! Spans sit at coarse boundaries only — workload, experiment, cell,
//! `run_until` chunk, `run_scale` — each with a parent and a cell id shared
//! by the spans of one cell. Fine boundaries (callbacks, sink records,
//! windows) are folded into one [`Hist`] per kind instead, so memory stays
//! bounded. Everything is kept in memory and written out once, when the run
//! ends.

use crate::measure::Hist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    cell: u64,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// In-memory span and histogram store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    kinds: BTreeMap<String, Hist>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            kinds: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent`, tagged with `cell`.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>, cell: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            cell,
            start_ns,
            end_ns: None,
        });
        self.spans.len() - 1
    }

    /// Closes `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = Some(end);
        end - span.start_ns
    }

    /// Folds `h` into the fine-boundary histogram of `kind`.
    pub fn fold(&mut self, kind: &str, h: &Hist) {
        self.kinds.entry(kind.to_owned()).or_default().merge(h);
    }

    /// The run as JSON lines: one per span, then one per fine-boundary
    /// kind.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let end = s.end_ns.map_or("null".to_owned(), |e| e.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"parent\":{parent},\"cell\":{},\"start_ns\":{},\"end_ns\":{end}}}",
                s.name, s.cell, s.start_ns
            );
        }
        for (kind, h) in &self.kinds {
            let _ = writeln!(out, "{{\"kind\":\"{kind}\",\"hist\":{}}}", h.to_json());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::default();
        let root = t.open("workload", None, 0);
        let cell = t.open("cell", Some(root), 7);
        t.close(cell);
        t.close(root);
        let mut h = Hist::default();
        h.record(5);
        t.fold("callback.timer", &h);
        let text = t.to_jsonl();
        assert!(text.contains("\"name\":\"cell\",\"parent\":0,\"cell\":7"));
        assert!(text.contains("\"kind\":\"callback.timer\""));
        assert_eq!(text.lines().count(), 3);
    }
}
