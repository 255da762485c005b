//! Flight recorder: the bounded ring sink of the [`trace`](crate::trace)
//! recorder.
//!
//! Where the full record keeps *everything* for a run-long export, the ring
//! keeps only the **last [`capacity`] events** at a fixed memory cost, so a
//! long-running daemon can afford to leave it armed and dump "what just
//! happened" when something goes wrong — a task panics, a certificate
//! fails, or the journal poisons (see `docs/observability.md`).
//!
//! The ring has no recorder of its own: [`trace::record`](crate::trace::record)
//! pushes every event here while [`Sink::Ring`](crate::trace::Sink::Ring) is
//! armed (`pobp serve --flight-dir` arms it), with the same sequence
//! numbers, worker ids, and task context as the full record.
//!
//! [`dump_json`] renders the ring in the Chrome trace-event format (the
//! same exporter as `--trace`, loadable in Perfetto), oldest event first.
//!
//! Everything here is wall-clock-class telemetry: the ring never feeds the
//! logical trace, job results, or any durable bytes. It is in every build
//! and holds nothing until the ring is armed.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::trace::{chrome_json, TraceEvent};

/// Number of events retained; pushing the `capacity + 1`-th event evicts
/// the oldest.
pub const fn capacity() -> usize {
    4096
}

/// The retained events, oldest first.
static RING: Mutex<VecDeque<TraceEvent>> = Mutex::new(VecDeque::new());

fn ring_lock() -> MutexGuard<'static, VecDeque<TraceEvent>> {
    RING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pushes an event the recorder built, evicting the oldest event once the
/// ring is full.
pub(crate) fn push(ev: TraceEvent) {
    let mut ring = ring_lock();
    if ring.len() == capacity() {
        ring.pop_front();
    }
    ring.push_back(ev);
}

/// Copies the ring's contents, oldest event first.
pub fn snapshot() -> Vec<TraceEvent> {
    ring_lock().iter().cloned().collect()
}

/// Empties the ring (tests and post-dump hygiene).
pub fn clear() {
    ring_lock().clear();
}

/// Renders the current ring as Chrome trace-event JSON (Perfetto-loadable),
/// exactly like the full-trace exporter but bounded to the last
/// [`capacity`] events.
pub fn dump_json() -> String {
    chrome_json(&snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{self, Sink, TraceClass, TraceKind};

    /// Runs `f` in an exclusive recording window with only the ring armed,
    /// starting from an empty ring, and returns what the ring then holds,
    /// as events and as a dump.
    fn ring_of(f: impl FnOnce()) -> (Vec<TraceEvent>, String) {
        let _window = crate::obs::exclusive();
        clear();
        let armed = trace::arm(Sink::Ring);
        f();
        drop(armed);
        let held = (snapshot(), dump_json());
        clear();
        // The ring alone never fills the full record.
        assert!(trace::drain().is_empty());
        held
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let (events, _) = ring_of(|| {
            for i in 0..(capacity() as u64 + 10) {
                crate::trace_event!(timing "flight.test.tick", i);
            }
        });
        assert_eq!(events.len(), capacity());
        // Oldest-first order, and the first 10 values were evicted.
        assert_eq!(events[0].value, 10);
        assert_eq!(events[events.len() - 1].value, capacity() as u64 + 9);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn span_guard_closes_even_on_unwind() {
        let (events, _) = ring_of(|| {
            let caught = std::panic::catch_unwind(|| {
                crate::obs_span!(timing "flight.test.span", panic!("boom"))
            });
            assert!(caught.is_err());
        });
        let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![TraceKind::Begin, TraceKind::End]);
    }

    #[test]
    fn ring_events_carry_their_task() {
        let (events, _) = ring_of(|| {
            let _task = trace::task_scope(7, "seven");
            crate::trace_event!("flight.test.mark");
        });
        let phases: Vec<(&str, u64)> = events.iter().map(|e| (e.phase, e.task)).collect();
        assert_eq!(phases, vec![("task", 7), ("flight.test.mark", 7), ("task", 7)]);
    }

    #[test]
    fn dump_is_chrome_trace_shaped() {
        let (_, j) = ring_of(|| {
            let text = Some("he\"llo");
            trace::record("flight.test.mark", TraceKind::Instant, TraceClass::Timing, 7, text)
        });
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"value\":7"));
        assert!(j.contains("he\\\"llo"));
        assert!(j.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }
}
