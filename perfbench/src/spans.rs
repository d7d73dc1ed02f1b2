//! In-memory span recorder for the traced mode.
//!
//! A span is one timed call into a layer's public API: its name, start,
//! end, parent span and the repetition it belongs to. Spans stay in
//! memory while the run measures and are written out when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span (or of a span dropped past the cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    rep: u32,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// The recorder. Disabled recorders keep nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// A recorder keeping at most `cap` spans (later ones are counted
    /// as dropped).
    pub fn new(enabled: bool, cap: usize) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            cap,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span timed by the caller, returning its id.
    pub fn record(
        &mut self,
        name: &'static str,
        rep: u32,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u32);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            rep,
            parent: parent.unwrap_or(SpanId::NONE),
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span starting now; its children can name it as parent
    /// before it is closed.
    pub fn open(&mut self, name: &'static str, rep: u32, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, rep, parent, now, now)
    }

    /// Close an open span: its end is now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id.0 as usize) {
            s.end_ns = end;
        }
    }

    /// Spans kept.
    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Spans dropped past the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The spans as a JSON document: `{"dropped": n, "spans": [...]}`,
    /// one object per span with `id`, `name`, `rep`, `parent` (or
    /// null), `start_ns` and `end_ns`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = write!(out, "{{\"dropped\": {}, \"spans\": [", self.dropped);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == SpanId::NONE {
                "null".to_string()
            } else {
                s.parent.0.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"rep\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.rep, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}
