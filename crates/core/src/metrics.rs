//! Windowed live metrics: a ring of timestamped samples with counter-delta
//! rate math, plus Prometheus text exposition.
//!
//! The [`obs`](crate::obs) layer aggregates *cumulative* process-lifetime
//! totals, which is the right shape for end-of-run reports but useless for
//! an operator watching a daemon: "4 311 tasks done" says nothing about
//! whether the service is currently moving. This module adds the live view:
//! a sampler thread (owned by the daemon, not this module) periodically
//! captures a [`Sample`] — monotone counters plus instantaneous gauges —
//! and pushes it into a fixed-capacity [`MetricsWindow`]. Rates are then
//! *derived* from counter deltas across the window:
//!
//! * [`MetricsWindow::rate`] — Σ max(0, cᵢ₊₁ − cᵢ) over consecutive sample
//!   pairs, divided by the window's elapsed time. Per-pair saturation makes
//!   a counter reset (process restart, `obs::reset`) cost at most the one
//!   spanning interval instead of poisoning the whole window.
//! * [`MetricsWindow::ratio`] — delta(numerator) / delta(denominator) over
//!   the same window (cache-hit ratio, degrade rate), `None` when the
//!   denominator did not move.
//! * [`MetricsWindow::gauge`] — the latest sample's value; gauges are
//!   levels, not totals, so no delta math applies.
//!
//! [`Prom`] renders metrics in the Prometheus text exposition format
//! (version 0.0.4): `# HELP` / `# TYPE` header pairs, label values escaped
//! per the spec (`\\`, `\"`, `\n`). It is hand-rolled and std-only, like
//! [`json`](crate::json).
//!
//! Everything here is wall-clock telemetry (Timing class): samples never
//! feed logical traces, job results, or durable bytes, and the module is
//! compiled out entirely without the `instrument` feature.

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One timestamped capture of the process's counters and gauges.
///
/// `counters` are monotone non-decreasing totals (resets allowed, see
/// [`MetricsWindow::rate`]); `gauges` are instantaneous levels (queue
/// depth, running jobs, journal bytes). Timestamps are milliseconds on any
/// monotone clock — only differences are used.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Milliseconds since an arbitrary (monotone) epoch.
    pub ts_ms: u64,
    /// Cumulative counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges by name.
    pub gauges: BTreeMap<String, f64>,
}

impl Sample {
    /// An empty sample at `ts_ms`.
    pub fn at(ts_ms: u64) -> Self {
        Sample { ts_ms, ..Sample::default() }
    }

    /// Sets a counter (builder-style, for tests and sampler loops).
    pub fn counter(mut self, name: &str, value: u64) -> Self {
        self.counters.insert(name.to_string(), value);
        self
    }

    /// Sets a gauge (builder-style).
    pub fn gauge(mut self, name: &str, value: f64) -> Self {
        self.gauges.insert(name.to_string(), value);
        self
    }
}

/// Fixed-capacity ring of [`Sample`]s ordered by push time.
///
/// Pushing beyond capacity evicts the oldest sample, so the window always
/// covers the most recent `capacity` ticks; with a sampler period of `p`
/// the derived rates are trailing averages over ≈ `capacity × p`.
#[derive(Debug)]
pub struct MetricsWindow {
    cap: usize,
    ring: VecDeque<Sample>,
}

impl MetricsWindow {
    /// A window retaining the last `cap` samples (`cap ≥ 2` to ever derive
    /// a rate; a cap of 0 is clamped to 1).
    pub fn new(cap: usize) -> Self {
        MetricsWindow { cap: cap.max(1), ring: VecDeque::new() }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no sample has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Appends a sample, evicting the oldest if the ring is full. Samples
    /// whose timestamp is not newer than the latest are still accepted (the
    /// rate math treats a non-positive elapsed window as "no rate").
    pub fn push(&mut self, sample: Sample) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(sample);
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&Sample> {
        self.ring.back()
    }

    /// The oldest retained sample.
    pub fn oldest(&self) -> Option<&Sample> {
        self.ring.front()
    }

    /// Seconds covered by the retained window (0.0 with < 2 samples).
    pub fn window_secs(&self) -> f64 {
        match (self.oldest(), self.latest()) {
            (Some(a), Some(b)) if b.ts_ms > a.ts_ms => (b.ts_ms - a.ts_ms) as f64 / 1000.0,
            _ => 0.0,
        }
    }

    /// Total increase of counter `name` across the window: the sum of
    /// per-pair saturating deltas, so a mid-window counter reset loses only
    /// the interval containing the reset. A counter absent from a sample
    /// contributes no delta for the pairs it is missing from.
    pub fn delta(&self, name: &str) -> u64 {
        let mut total = 0u64;
        let mut prev: Option<u64> = None;
        for s in &self.ring {
            if let Some(&v) = s.counters.get(name) {
                if let Some(p) = prev {
                    total += v.saturating_sub(p);
                }
                prev = Some(v);
            }
        }
        total
    }

    /// Events per second for counter `name` over the window: `None` until
    /// two samples with distinct timestamps exist.
    pub fn rate(&self, name: &str) -> Option<f64> {
        let secs = self.window_secs();
        if secs <= 0.0 {
            return None;
        }
        Some(self.delta(name) as f64 / secs)
    }

    /// delta(`num`) / delta(`den`) over the window (e.g. cache hits per
    /// admitted job): `None` when the denominator did not increase.
    pub fn ratio(&self, num: &str, den: &str) -> Option<f64> {
        let d = self.delta(den);
        if d == 0 {
            return None;
        }
        Some(self.delta(num) as f64 / d as f64)
    }

    /// The latest value of gauge `name` (levels are read, never
    /// differenced).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.ring.iter().rev().find_map(|s| s.gauges.get(name).copied())
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (version 0.0.4)
// ---------------------------------------------------------------------------

/// The `Content-Type` a scrape endpoint should serve for [`Prom`] output.
pub const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escapes a label *value* per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value: integers render without a fractional part,
/// non-finite values use the spec spellings (`NaN`, `+Inf`, `-Inf`).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf".to_string() } else { "-Inf".to_string() }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Builder for a Prometheus text exposition body.
///
/// Call [`header`](Prom::header) once per metric family, then
/// [`sample`](Prom::sample) for each (possibly labelled) series of that
/// family; [`finish`](Prom::finish) yields the body.
#[derive(Debug, Default)]
pub struct Prom {
    out: String,
}

impl Prom {
    /// An empty exposition.
    pub fn new() -> Self {
        Prom::default()
    }

    /// Emits the `# HELP` / `# TYPE` pair for a metric family. `kind` is
    /// `"counter"` or `"gauge"`.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) -> &mut Self {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        // HELP text escapes only backslash and newline.
        for c in help.chars() {
            match c {
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c => self.out.push(c),
            }
        }
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
        self
    }

    /// Emits one sample line, with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                self.out.push_str(&escape_label(v));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&fmt_value(value));
        self.out.push('\n');
        self
    }

    /// The exposition body accumulated so far.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(ts: u64, done: u64, hits: u64, depth: f64) -> Sample {
        Sample::at(ts)
            .counter("done", done)
            .counter("hits", hits)
            .gauge("queue_depth", depth)
    }

    #[test]
    fn counters_accumulate_monotonically_across_ticks() {
        let mut w = MetricsWindow::new(8);
        for (ts, done) in [(0, 0), (1000, 4), (2000, 4), (3000, 10)] {
            w.push(Sample::at(ts).counter("done", done));
        }
        assert_eq!(w.delta("done"), 10);
        assert_eq!(w.rate("done"), Some(10.0 / 3.0));
    }

    #[test]
    fn ring_wraps_and_rates_cover_only_the_retained_window() {
        let mut w = MetricsWindow::new(3);
        // Five ticks at 1 Hz, +2 events per tick; only the last 3 retained.
        for i in 0..5u64 {
            w.push(Sample::at(i * 1000).counter("done", i * 2));
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.oldest().unwrap().ts_ms, 2000);
        assert_eq!(w.latest().unwrap().ts_ms, 4000);
        // Window covers ticks 2..4: delta = 8 - 4 = 4 over 2 s.
        assert_eq!(w.delta("done"), 4);
        assert_eq!(w.rate("done"), Some(2.0));
    }

    #[test]
    fn irregular_tick_intervals_divide_by_actual_elapsed_time() {
        let mut w = MetricsWindow::new(8);
        w.push(Sample::at(0).counter("done", 0));
        w.push(Sample::at(100).counter("done", 1));
        w.push(Sample::at(4100).counter("done", 9));
        // 9 events over 4.1 s of actual wall clock, not over "2 ticks".
        assert_eq!(w.window_secs(), 4.1);
        let r = w.rate("done").unwrap();
        assert!((r - 9.0 / 4.1).abs() < 1e-12, "{r}");
    }

    #[test]
    fn counter_reset_loses_only_the_spanning_interval() {
        let mut w = MetricsWindow::new(8);
        // 0→90, restart (counter back to 0), 0→5.
        for (ts, v) in [(0, 0), (1000, 90), (2000, 3), (3000, 5)] {
            w.push(Sample::at(ts).counter("done", v));
        }
        // Per-pair saturation: 90 + 0 + 2, not a negative window delta.
        assert_eq!(w.delta("done"), 92);
    }

    #[test]
    fn gauges_are_levels_not_totals() {
        let mut w = MetricsWindow::new(4);
        w.push(tick(0, 0, 0, 7.0));
        w.push(tick(1000, 3, 1, 2.0));
        // Latest wins — no delta math on gauges.
        assert_eq!(w.gauge("queue_depth"), Some(2.0));
        // A gauge missing from the newest sample falls back to the most
        // recent sample that carries it.
        w.push(Sample::at(2000).counter("done", 4));
        assert_eq!(w.gauge("queue_depth"), Some(2.0));
        assert_eq!(w.gauge("nope"), None);
    }

    #[test]
    fn ratios_need_a_moving_denominator() {
        let mut w = MetricsWindow::new(4);
        w.push(tick(0, 10, 2, 0.0));
        assert_eq!(w.ratio("hits", "done"), None, "one sample, no deltas");
        w.push(tick(1000, 10, 2, 0.0));
        assert_eq!(w.ratio("hits", "done"), None, "denominator flat");
        w.push(tick(2000, 18, 4, 0.0));
        assert_eq!(w.ratio("hits", "done"), Some(0.25));
    }

    #[test]
    fn missing_counters_contribute_no_delta() {
        let mut w = MetricsWindow::new(4);
        w.push(Sample::at(0).counter("done", 5));
        w.push(Sample::at(1000)); // sampler skipped the counter this tick
        w.push(Sample::at(2000).counter("done", 8));
        // The 5→8 pair spans the gap; nothing is double-counted.
        assert_eq!(w.delta("done"), 3);
        assert_eq!(w.rate("nope"), Some(0.0), "unknown counter has rate 0 over a live window");
    }

    #[test]
    fn no_rate_until_time_passes() {
        let mut w = MetricsWindow::new(4);
        assert_eq!(w.rate("done"), None);
        w.push(Sample::at(500).counter("done", 1));
        assert_eq!(w.rate("done"), None, "single sample");
        w.push(Sample::at(500).counter("done", 9));
        assert_eq!(w.rate("done"), None, "zero elapsed time");
    }

    #[test]
    fn prometheus_exposition_shape_and_label_escaping() {
        let mut p = Prom::new();
        p.header("pobp_serve_jobs_done_total", "counter", "Jobs finished.")
            .sample("pobp_serve_jobs_done_total", &[("alg", "reduction")], 3.0)
            .sample("pobp_serve_jobs_done_total", &[("alg", "a\"b\\c\nd")], 1.0);
        p.header("pobp_serve_queue_depth", "gauge", "Queued jobs.")
            .sample("pobp_serve_queue_depth", &[], 2.5);
        let body = p.finish();
        assert_eq!(
            body,
            "# HELP pobp_serve_jobs_done_total Jobs finished.\n\
             # TYPE pobp_serve_jobs_done_total counter\n\
             pobp_serve_jobs_done_total{alg=\"reduction\"} 3\n\
             pobp_serve_jobs_done_total{alg=\"a\\\"b\\\\c\\nd\"} 1\n\
             # HELP pobp_serve_queue_depth Queued jobs.\n\
             # TYPE pobp_serve_queue_depth gauge\n\
             pobp_serve_queue_depth 2.5\n"
        );
    }

    #[test]
    fn value_formatting_covers_integers_floats_and_non_finite() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(-7.0), "-7");
        assert_eq!(fmt_value(0.125), "0.125");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
    }
}
