//! Zero-cost structured tracing: typed lifecycle events, one recorder, and
//! two sinks armed at runtime.
//!
//! Where [`obs`](crate::obs) aggregates (counters, span totals,
//! distributions), `trace` records *individual* events — `(seq, ts, worker,
//! task, phase, kind, class, payload)` — so a single task's journey through
//! the engine (enqueue → dequeue → attempt → chaos site → cache probe →
//! cert → degrade → emit) can be replayed after the fact. `record` is the
//! only recorder. It feeds two sinks, each armed at runtime by `arm`:
//!
//! * `Sink::Record`, the full record: every event, taken with `drain`.
//!   `--trace`/`--trace-logical` arm it for a whole command and `capture`
//!   for one test window. Two exporters consume it:
//!   * `chrome_json` — the Chrome trace-event format (load the file in
//!     Perfetto / `chrome://tracing`): one track per worker thread, `B`/`E`
//!     span pairs and `i` instants, microsecond timestamps.
//!   * `logical_text` — a timestamp-free rendering of only the
//!     [`TraceClass::Logical`] events, grouped per task and ordered by the
//!     global sequence number. For deterministic engine configurations this
//!     text is byte-identical across thread counts (see
//!     `docs/observability.md` for the exact contract).
//! * `Sink::Ring`, the `flight` ring: only the newest events, at a fixed
//!   memory cost. `pobp serve --flight-dir` arms it for the daemon's life.
//!
//! With neither sink armed, `record` returns after one relaxed load, so a
//! long-running process that never asked for a trace holds no events.
//!
//! Like `obs`, the layer is **zero-cost when off**: the `instrument` cargo
//! feature (default: off) gates the macro expansions. With the feature off,
//! [`trace_event!`](crate::trace_event) expands to `()` without evaluating
//! its arguments, [`obs_span!`](crate::obs_span) expands to its body
//! unchanged, and [`task_scope`]/[`task_context`] become empty inline stubs,
//! so call sites need no `cfg` of their own. The recorder, its sinks and
//! its exporters (`record`, `arm`, `drain`, `capture`, `chrome_json`,
//! `logical_text`, the `flight` module) exist only in an `instrument` build.
//!
//! Full-record events are buffered in per-thread `Vec`s (no locks on the
//! hot path except a global relaxed fetch-add for the sequence number) and
//! flushed into a global sink when a buffer fills, when its thread exits,
//! or on `drain`. Tests must serialise their recording windows with
//! `capture`, which mirrors `obs::measure`.

/// Task id carried by events recorded outside any task scope.
pub const NO_TASK: u64 = u64::MAX;

/// Span boundary or point event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Span start; must be balanced by an [`End`](TraceKind::End) on the
    /// same thread (guards guarantee this, including during unwinding).
    Begin,
    /// Span end.
    End,
    /// A point event with no duration.
    Instant,
}

/// Determinism class of an event; decides whether it appears in the
/// logical trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceClass {
    /// Part of the deterministic task lifecycle: for a fixed batch and
    /// config, logical events fire identically regardless of `--threads`.
    Logical,
    /// Timing- or schedule-dependent (cache races, backoff, stage
    /// wall-clock): excluded from the logical trace, kept in Chrome output.
    Timing,
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Global sequence number (allocation order across all threads).
    pub seq: u64,
    /// Nanoseconds since the process trace epoch (first recorded event).
    pub ts_ns: u64,
    /// Recording thread's worker id (assigned on first record per thread).
    pub worker: u32,
    /// Task key the event belongs to, or [`NO_TASK`].
    pub task: u64,
    /// Phase name, e.g. `"attempt"` or `"engine.solve.time.bounded"`.
    pub phase: &'static str,
    /// Span boundary or instant.
    pub kind: TraceKind,
    /// Logical (deterministic) or timing-dependent.
    pub class: TraceClass,
    /// Numeric payload (0 when unused).
    pub value: u64,
    /// Optional text payload (task label, emit status, cert stage).
    pub text: Option<Box<str>>,
}

// ---------------------------------------------------------------------------
// Recording (feature on)
// ---------------------------------------------------------------------------

#[cfg(feature = "instrument")]
mod imp {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Instant;

    use super::*;

    /// Per-thread buffer flushed into the global sink at this size.
    const FLUSH_AT: usize = 4096;

    /// Live [`arm`] guards per sink, packed so that [`record`] reads both
    /// with one load: full-record arms in the low 16 bits, ring arms above.
    /// Relaxed throughout: the count only gates recording and publishes no
    /// other data.
    static ARMED: AtomicU32 = AtomicU32::new(0);
    const RECORD_ARMS: u32 = Sink::Ring as u32 - 1;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static WORKER_IDS: AtomicU32 = AtomicU32::new(0);
    static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    /// A destination of [`record`], armed at runtime by [`arm`]; the value
    /// is what one arm adds to the packed count.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Sink {
        /// Every event, kept until [`drain`] takes it.
        Record = 1,
        /// Only the newest events, in the bounded [`flight`](crate::flight)
        /// ring.
        Ring = 1 << 16,
    }

    /// Keeps a sink armed until it drops; see [`arm`].
    #[must_use = "the sink disarms when the guard drops"]
    #[derive(Debug)]
    pub struct Armed(Sink);

    impl Drop for Armed {
        fn drop(&mut self) {
            ARMED.fetch_sub(self.0 as u32, Ordering::Relaxed);
        }
    }

    /// Arms `sink` until the returned guard drops. Arms nest: a sink stays
    /// armed while any of its guards lives, so two daemons in one process
    /// (or a test window inside an armed command) do not disarm each other.
    pub fn arm(sink: Sink) -> Armed {
        ARMED.fetch_add(sink as u32, Ordering::Relaxed);
        Armed(sink)
    }

    struct Local {
        worker: u32,
        task: u64,
        buf: Vec<TraceEvent>,
    }

    impl Local {
        fn new() -> Self {
            Local {
                worker: WORKER_IDS.fetch_add(1, Ordering::Relaxed),
                task: NO_TASK,
                buf: Vec::new(),
            }
        }
    }

    impl Drop for Local {
        fn drop(&mut self) {
            flush(&mut self.buf);
        }
    }

    thread_local! {
        static LOCAL: RefCell<Local> = RefCell::new(Local::new());
    }

    fn sink_lock() -> MutexGuard<'static, Vec<TraceEvent>> {
        SINK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn flush(buf: &mut Vec<TraceEvent>) {
        if !buf.is_empty() {
            sink_lock().append(buf);
        }
    }

    fn ts_ns() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Records one event on the current thread into every armed sink, and
    /// does nothing else when none is armed. Drops the event silently if
    /// the thread's state is already being destroyed (thread teardown).
    pub fn record(
        phase: &'static str,
        kind: TraceKind,
        class: TraceClass,
        value: u64,
        text: Option<&str>,
    ) {
        let armed = ARMED.load(Ordering::Relaxed);
        if armed == 0 {
            return;
        }
        let ts_ns = ts_ns();
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let _ = LOCAL.try_with(|cell| {
            let mut l = cell.borrow_mut();
            let ev = TraceEvent {
                seq,
                ts_ns,
                worker: l.worker,
                task: l.task,
                phase,
                kind,
                class,
                value,
                text: text.map(Box::from),
            };
            if armed & RECORD_ARMS == 0 {
                crate::flight::push(ev);
                return;
            }
            if armed > RECORD_ARMS {
                crate::flight::push(ev.clone());
            }
            l.buf.push(ev);
            if l.buf.len() >= FLUSH_AT {
                flush(&mut l.buf);
            }
        });
    }

    fn set_task(task: u64) -> u64 {
        LOCAL
            .try_with(|cell| {
                let mut l = cell.borrow_mut();
                std::mem::replace(&mut l.task, task)
            })
            .unwrap_or(NO_TASK)
    }

    /// Guard restoring the previous task context (and closing the task span
    /// if one was opened) on drop. See [`task_scope`] / [`task_context`].
    #[must_use = "the task context ends when the guard drops"]
    pub struct TaskScope {
        prev: u64,
        span: bool,
    }

    impl Drop for TaskScope {
        fn drop(&mut self) {
            if self.span {
                record("task", TraceKind::End, TraceClass::Logical, 0, None);
            }
            set_task(self.prev);
        }
    }

    /// Opens a logical `"task"` span for `task` (with `label` as text
    /// payload) and tags every event recorded on this thread with `task`
    /// until the guard drops.
    pub fn task_scope(task: u64, label: &str) -> TaskScope {
        let prev = set_task(task);
        record("task", TraceKind::Begin, TraceClass::Logical, 0, Some(label));
        TaskScope { prev, span: true }
    }

    /// Tags events with `task` without opening a span (e.g. enqueue marks
    /// recorded from the submitting thread).
    pub fn task_context(task: u64) -> TaskScope {
        let prev = set_task(task);
        TaskScope { prev, span: false }
    }

    /// Guard emitting the span's [`End`](TraceKind::End) event on drop
    /// (including during panic unwinding). Created by
    /// [`obs_span!`](crate::obs_span) — prefer the macro.
    #[must_use = "the span ends when the guard drops"]
    pub struct SpanGuard {
        phase: &'static str,
        class: TraceClass,
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            record(self.phase, TraceKind::End, self.class, 0, None);
        }
    }

    /// Opens a span: emits the [`Begin`](TraceKind::Begin) event now and the
    /// matching end when the returned guard drops.
    pub fn span(phase: &'static str, class: TraceClass) -> SpanGuard {
        record(phase, TraceKind::Begin, class, 0, None);
        SpanGuard { phase, class }
    }

    /// Flushes the current thread's buffer and takes every event the full
    /// record holds, in arbitrary cross-thread order (sort by `seq` for a
    /// global order). Buffers of *live* other threads that have not reached
    /// their flush threshold are not visible — drain after joining workers.
    pub fn drain() -> Vec<TraceEvent> {
        let _ = LOCAL.try_with(|cell| flush(&mut cell.borrow_mut().buf));
        std::mem::take(&mut *sink_lock())
    }

    /// Runs `f` in an exclusive, freshly-drained window with the full
    /// record armed and returns its output together with the events it
    /// recorded. The only sound way to assert on traces from tests (the
    /// sink is process-global and the test harness is multi-threaded). The
    /// window is [`obs::exclusive`](crate::obs::exclusive)'s, so do not
    /// nest `capture` and `obs::measure`.
    pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
        let _window = crate::obs::exclusive();
        let _armed = arm(Sink::Record);
        drop(drain());
        let out = f();
        let events = drain();
        (out, events)
    }
}

#[cfg(feature = "instrument")]
pub use imp::{
    arm, capture, drain, record, span, task_context, task_scope, Armed, Sink, SpanGuard, TaskScope,
};

// ---------------------------------------------------------------------------
// Stubs (feature off) — same signatures for the items engine code calls
// directly, so call sites need no cfg.
// ---------------------------------------------------------------------------

#[cfg(not(feature = "instrument"))]
mod imp {
    /// Inert stand-in for the tracing task guard (feature off).
    #[must_use = "the task context ends when the guard drops"]
    pub struct TaskScope;

    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub fn task_scope(_task: u64, _label: &str) -> TaskScope {
        TaskScope
    }

    /// No-op: tracing is compiled out.
    #[inline(always)]
    pub fn task_context(_task: u64) -> TaskScope {
        TaskScope
    }
}

#[cfg(not(feature = "instrument"))]
pub use imp::{task_context, task_scope, TaskScope};

// ---------------------------------------------------------------------------
// Exporters (feature on; exporters are meaningless without recorded events)
// ---------------------------------------------------------------------------

/// Renders events in the Chrome trace-event format (a JSON object with a
/// `traceEvents` array), loadable in Perfetto / `chrome://tracing`.
///
/// Tracks: `pid` is always 1, `tid` is the recording worker id. Spans use
/// `ph: "B"`/`"E"` pairs, instants `ph: "i"` with thread scope. Timestamps
/// are microseconds (fractional) from the process trace epoch. The task
/// key, numeric value, and text payload are carried in `args`. Renders
/// full-record exports (`--trace`) and flight-ring dumps alike.
#[cfg(feature = "instrument")]
pub fn chrome_json(events: &[TraceEvent]) -> String {
    use crate::json::Json;

    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.worker, e.seq));
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match e.kind {
            TraceKind::Begin => "B",
            TraceKind::End => "E",
            TraceKind::Instant => "i",
        };
        let cat = match e.class {
            TraceClass::Logical => "logical",
            TraceClass::Timing => "timing",
        };
        out.push_str(&format!(
            "\n{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{:.3}",
            Json::Str(e.phase.into()),
            e.worker,
            e.ts_ns as f64 / 1000.0
        ));
        if e.kind == TraceKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if e.kind != TraceKind::End {
            out.push_str(",\"args\":{");
            let mut first = true;
            if e.task != NO_TASK {
                out.push_str(&format!("\"task\":{}", e.task));
                first = false;
            }
            if e.value != 0 {
                if !first {
                    out.push(',');
                }
                out.push_str(&format!("\"value\":{}", e.value));
                first = false;
            }
            if let Some(t) = &e.text {
                if !first {
                    out.push(',');
                }
                out.push_str(&format!("\"text\":{}", Json::Str(t.to_string())));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders the deterministic logical trace: only
/// [`TraceClass::Logical`] events that belong to a task, grouped per task
/// (ascending key) and ordered within a task by the global sequence number,
/// with every timestamp/worker/sequence field stripped.
///
/// Within one task, events are recorded either by the submitting thread
/// (before workers spawn) or by the single worker that claimed the task, so
/// per-task sequence order equals program order — the rendered text is a
/// pure function of the batch for deterministic configurations, regardless
/// of thread count. See `docs/observability.md` for the contract and its
/// exclusions (real deadlines, mid-batch cancellation).
#[cfg(feature = "instrument")]
pub fn logical_text(events: &[TraceEvent]) -> String {
    let mut logical: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.class == TraceClass::Logical && e.task != NO_TASK)
        .collect();
    logical.sort_by_key(|e| (e.task, e.seq));
    let mut out = String::from("# pobp logical trace v1\n");
    for e in logical {
        out.push_str(&format!("task {} ", e.task));
        match e.kind {
            TraceKind::Begin => {
                out.push_str("begin ");
            }
            TraceKind::End => {
                out.push_str("end ");
            }
            TraceKind::Instant => {}
        }
        out.push_str(e.phase);
        if e.value != 0 {
            out.push_str(&format!(" value={}", e.value));
        }
        if let Some(t) = &e.text {
            out.push_str(" \"");
            // Logical text is line-oriented; keep payloads on one line.
            for c in t.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Records a point trace event: `trace_event!("phase")`,
/// `trace_event!("phase", value)`, or `trace_event!("phase", text: expr)`
/// record a [`TraceClass::Logical`] instant; prefix the phase with `timing`
/// (e.g. `trace_event!(timing "cache.ref_hit")`) for a
/// [`TraceClass::Timing`] one. With the `instrument` feature off this
/// expands to `()` and the payload expressions are **not evaluated**.
#[cfg(feature = "instrument")]
#[macro_export]
macro_rules! trace_event {
    (timing $phase:literal) => {
        $crate::trace_event!(@ $phase, Timing, 0u64, ::core::option::Option::None)
    };
    (timing $phase:literal, $value:expr) => {
        $crate::trace_event!(@ $phase, Timing, $value, ::core::option::Option::None)
    };
    ($phase:literal) => {
        $crate::trace_event!(@ $phase, Logical, 0u64, ::core::option::Option::None)
    };
    ($phase:literal, text: $text:expr) => {
        $crate::trace_event!(@ $phase, Logical, 0u64, ::core::option::Option::Some(&$text))
    };
    ($phase:literal, $value:expr) => {
        $crate::trace_event!(@ $phase, Logical, $value, ::core::option::Option::None)
    };
    (@ $phase:literal, $class:ident, $value:expr, $text:expr) => {
        $crate::trace::record(
            $phase,
            $crate::trace::TraceKind::Instant,
            $crate::trace::TraceClass::$class,
            ($value) as u64,
            $text,
        )
    };
}

/// Records a point trace event: `trace_event!("phase")`,
/// `trace_event!("phase", value)`, or `trace_event!("phase", text: expr)`
/// record a [`TraceClass::Logical`] instant; prefix the phase with `timing`
/// (e.g. `trace_event!(timing "cache.ref_hit")`) for a
/// [`TraceClass::Timing`] one. With the `instrument` feature off this
/// expands to `()` and the payload expressions are **not evaluated**.
#[cfg(not(feature = "instrument"))]
#[macro_export]
macro_rules! trace_event {
    ($($args:tt)*) => {
        ()
    };
}

/// Wraps an expression in a trace span: `obs_span!("phase", { body })`
/// evaluates to the body's value, emitting begin/end events around it (the
/// end fires even on early return or panic, via a drop guard). The span is
/// [`TraceClass::Logical`]; use `obs_span!(timing "phase", { body })` for a
/// [`TraceClass::Timing`] span. With the `instrument` feature off this
/// expands to the body expression unchanged — the body always runs.
#[cfg(feature = "instrument")]
#[macro_export]
macro_rules! obs_span {
    (timing $phase:literal, $body:expr) => {{
        let __trace_guard = $crate::trace::span($phase, $crate::trace::TraceClass::Timing);
        $body
    }};
    ($phase:literal, $body:expr) => {{
        let __trace_guard = $crate::trace::span($phase, $crate::trace::TraceClass::Logical);
        $body
    }};
}

/// Wraps an expression in a trace span: `obs_span!("phase", { body })`
/// evaluates to the body's value, emitting begin/end events around it (the
/// end fires even on early return or panic, via a drop guard). The span is
/// [`TraceClass::Logical`]; use `obs_span!(timing "phase", { body })` for a
/// [`TraceClass::Timing`] span. With the `instrument` feature off this
/// expands to the body expression unchanged — the body always runs.
#[cfg(not(feature = "instrument"))]
#[macro_export]
macro_rules! obs_span {
    (timing $phase:literal, $body:expr) => {
        $body
    };
    ($phase:literal, $body:expr) => {
        $body
    };
}

#[cfg(test)]
#[cfg(feature = "instrument")]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_are_recorded_in_order() {
        let ((), events) = capture(|| {
            let _t = task_scope(3, "t3");
            let out = crate::obs_span!("attempt", {
                crate::trace_event!("chaos.flaky", 2);
                7
            });
            assert_eq!(out, 7);
            crate::trace_event!("emit", text: "ok");
        });
        let phases: Vec<(&str, TraceKind)> = events.iter().map(|e| (e.phase, e.kind)).collect();
        assert_eq!(
            phases,
            vec![
                ("task", TraceKind::Begin),
                ("attempt", TraceKind::Begin),
                ("chaos.flaky", TraceKind::Instant),
                ("attempt", TraceKind::End),
                ("emit", TraceKind::Instant),
                ("task", TraceKind::End),
            ]
        );
        assert!(events.iter().all(|e| e.task == 3));
        assert_eq!(events[0].text.as_deref(), Some("t3"));
        assert_eq!(events[2].value, 2);
        assert_eq!(events[4].text.as_deref(), Some("ok"));
        // seq strictly increasing on one thread; timestamps monotone.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn span_end_fires_during_unwind() {
        let (result, events) = capture(|| {
            std::panic::catch_unwind(|| {
                crate::obs_span!("attempt", {
                    panic!("boom");
                })
            })
        });
        assert!(result.is_err());
        let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![TraceKind::Begin, TraceKind::End]);
    }

    #[test]
    fn task_context_tags_without_span() {
        let ((), events) = capture(|| {
            let _c = task_context(9);
            crate::trace_event!("task.enqueue");
        });
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].task, events[0].phase), (9, "task.enqueue"));
        // Context restored after the guard drops.
        let ((), after) = capture(|| crate::trace_event!("task.enqueue"));
        assert_eq!(after[0].task, NO_TASK);
    }

    #[test]
    fn chrome_json_shape() {
        let ((), events) = capture(|| {
            let _t = task_scope(0, "lab\"el");
            crate::trace_event!(timing "cache.ref_hit");
        });
        let j = chrome_json(&events);
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"B\""));
        assert!(j.contains("\"ph\":\"E\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"cat\":\"timing\""));
        assert!(j.contains("lab\\\"el"));
        assert!(j.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn logical_text_strips_timing_and_untasked_events() {
        let ((), events) = capture(|| {
            crate::trace_event!("untasked");
            let _t = task_scope(1, "one");
            crate::trace_event!(timing "cache.ref_hit");
            crate::trace_event!("retry", 2);
            crate::trace_event!("emit", text: "ok");
        });
        let text = logical_text(&events);
        assert_eq!(
            text,
            "# pobp logical trace v1\n\
             task 1 begin task \"one\"\n\
             task 1 retry value=2\n\
             task 1 emit \"ok\"\n\
             task 1 end task\n"
        );
    }

    #[test]
    fn logical_text_groups_by_task_key() {
        let ((), events) = capture(|| {
            for task in [2u64, 0, 1] {
                let _c = task_context(task);
                crate::trace_event!("task.enqueue");
            }
        });
        let text = logical_text(&events);
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(
            lines,
            vec!["task 0 task.enqueue", "task 1 task.enqueue", "task 2 task.enqueue"]
        );
    }

    /// With no sink armed, nothing is kept: events from several threads
    /// leave both the full record and the flight ring empty (a long-lived
    /// process that never asked for a trace must not grow).
    #[test]
    fn unarmed_recorder_keeps_nothing() {
        let _window = crate::obs::exclusive();
        drop(drain());
        crate::flight::clear();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let _task = task_scope(t, "unarmed");
                    for i in 0..100u64 {
                        crate::obs_span!("attempt", crate::trace_event!("core.test.unarmed", i));
                    }
                });
            }
        });
        assert!(drain().is_empty());
        assert!(crate::flight::snapshot().is_empty());
    }
}

#[cfg(test)]
#[cfg(not(feature = "instrument"))]
mod tests {
    #[test]
    fn macros_are_inert_when_disabled() {
        // trace_event! must not evaluate its arguments...
        #[allow(unreachable_code, clippy::diverging_sub_expression)]
        fn not_evaluated() {
            crate::trace_event!("core.test.never", panic!("evaluated"));
            crate::trace_event!(timing "core.test.never", panic!("evaluated"));
        }
        not_evaluated();
        // ...while obs_span! must still evaluate its body.
        let out = crate::obs_span!("core.test.span", { 40 + 2 });
        assert_eq!(out, 42);
        let out = crate::obs_span!(timing "core.test.span", { out + 1 });
        assert_eq!(out, 43);
        // Stub guards compile and drop without effect.
        let _scope = super::task_scope(0, "x");
        let _ctx = super::task_context(1);
    }
}
