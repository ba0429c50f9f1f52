//! In-memory spans, written out as JSON when the traced run ends.
//!
//! Spans are recorded from this package's own files around the calls into
//! each layer; the simulator carries no instrumentation. A span is a name,
//! a start, an end and the span it ran inside.

use dm_bench::json::ToJson;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran: `setup`, `rep[3]`, `apps.run_driven`, `layer.mesh.route`, …
    pub name: String,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` at top level.
    pub parent: Option<usize>,
}

/// Records spans in memory.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans that are open, innermost last.
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1024),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans `f` opens through the
    /// recorder it is handed become children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.timed_span(name, f).0
    }

    /// [`Recorder::span`], also returning the span's duration in seconds.
    pub fn timed_span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let span = Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        self.open.pop();
        let secs = (end - self.spans[idx].start_ns) as f64 / 1e9;
        (out, secs)
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::from("{\"workload\":");
        workload.write_json(&mut out);
        out.push_str(",\"seed\":");
        seed.write_json(&mut out);
        out.push_str(",\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"id\":");
            id.write_json(&mut out);
            out.push_str(",\"name\":");
            s.name.write_json(&mut out);
            out.push_str(",\"start_ns\":");
            s.start_ns.write_json(&mut out);
            out.push_str(",\"end_ns\":");
            s.end_ns.write_json(&mut out);
            out.push_str(",\"parent\":");
            match s.parent {
                Some(p) => p.write_json(&mut out),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Write the trace to `path`, creating its directory.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_cover_their_children() {
        let mut rec = Recorder::new();
        let ((), outer) = rec.timed_span("outer", |rec| {
            rec.span("first", |_| ());
            rec.span("second", |_| ());
        });
        rec.span("after", |_| ());
        let s = rec.spans();
        let names: Vec<&str> = s.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "first", "second", "after"]);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), None]
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(outer >= 0.0);
        let doc = dm_bench::json::parse(&rec.to_json("w", 7)).expect("trace parses");
        assert_eq!(
            doc.get("spans").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(4)
        );
    }
}
