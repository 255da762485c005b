//! The benchmark's own span recorder: in-memory spans around each call the
//! benchmark makes into a layer, aggregated per name as they close and
//! written out as Chrome trace JSON when the run ends. Spans live only in
//! the benchmark; the program under test is not instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the Chrome trace per log; later spans still aggregate.
const KEEP_SPANS: usize = 200_000;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `sched.reference`.
    pub name: &'static str,
    /// Start, in nanoseconds after the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds after the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<u32>,
    /// Request id (chunk index, job index) shared by one request's spans.
    pub req: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration in milliseconds (0 when no span closed).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    slot: Option<u32>,
}

/// A single thread's span log.
pub struct SpanLog {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<Open>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
}

/// Handle of an open span; pass it back to [`SpanLog::end`].
#[must_use]
pub struct SpanId(usize);

impl SpanLog {
    /// A log whose timestamps count from `epoch`, shown as thread `tid`.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        SpanLog {
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        let slot = (self.spans.len() < KEEP_SPANS).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: None,
                req,
            });
            (self.spans.len() - 1) as u32
        });
        if slot.is_none() {
            self.dropped += 1;
        }
        let parent = self.stack.last().and_then(|o| o.slot);
        if let Some(s) = slot {
            self.spans[s as usize].parent = parent;
        }
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            slot,
        });
        SpanId(self.stack.len() - 1)
    }

    /// Closes the span `id` (which must be the innermost open one) and
    /// returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(id.0 + 1, self.stack.len(), "spans close innermost first");
        let open = self.stack.pop().expect("an open span");
        let dur = end_ns - open.start_ns;
        if let Some(s) = open.slot {
            self.spans[s as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        dur
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Records an already-measured duration as a closed span ending now
    /// (for time measured by another party, such as a client round trip).
    pub fn record(&mut self, name: &'static str, req: u64, dur_ns: u64) {
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub(dur_ns);
        if self.spans.len() < KEEP_SPANS {
            let parent = self.stack.last().and_then(|o| o.slot);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                req,
            });
        } else {
            self.dropped += 1;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.self_ns += dur_ns;
    }

    /// Per-name totals of every span closed so far.
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Spans kept for the trace.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Renders several logs as one Chrome trace (`chrome://tracing`,
/// Perfetto): complete events with the request id in `args`, plus the
/// span's index and its parent's index, both within the same `tid`.
pub fn chrome_trace(logs: &[&SpanLog]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                log.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req,
            );
        }
    }
    let dropped: u64 = logs.iter().map(|l| l.dropped).sum();
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_spans\":{dropped}}}}}"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut log = SpanLog::new(Instant::now(), 0);
        let outer = log.begin("outer", 7);
        log.record("child", 7, 5_000_000);
        let inner = log.begin("inner", 7);
        log.end(inner);
        let total = log.end(outer);
        let a = log.agg("outer");
        assert_eq!(a.count, 1);
        assert_eq!(a.total_ns, total);
        assert!(a.self_ns <= total.saturating_sub(5_000_000));
        assert_eq!(log.spans()[1].parent, Some(0));
        assert_eq!(log.spans()[2].parent, Some(0));
        assert!(log.spans().iter().all(|s| s.req == 7));
        let json = chrome_trace(&[&log]);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
        assert!(json.contains("\"parent\":0"));
    }
}
