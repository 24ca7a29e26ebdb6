//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only on a traced run, kept in memory and written
//! once when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.place_batch`.
    pub name: &'static str,
    /// The span open when this one started.
    pub parent: Option<usize>,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created; 0 while open.
    pub end_ns: u64,
}

/// The span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The handle workloads and the scheduler wrapper share.
pub type Spans = Rc<RefCell<SpanLog>>;

impl SpanLog {
    /// A shared, empty log.
    pub fn shared() -> Spans {
        Rc::new(RefCell::new(SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and any span left open inside it.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every closed span named `name`, in order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Total seconds in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Writes the log as JSON lines: `{"id","parent","name","start_ns","end_ns"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name` when `spans` is set.
pub fn span<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = spans.map(|log| log.borrow_mut().enter(name));
    let out = f();
    if let (Some(log), Some(id)) = (spans, id) {
        log.borrow_mut().exit(id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let log = SpanLog::shared();
        span(Some(&log), "outer", || span(Some(&log), "inner", || ()));
        let log = log.borrow();
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].parent, None);
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        assert_eq!(log.durations_s("inner").len(), 1);
    }
}
