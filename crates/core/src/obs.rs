//! Algorithm-level observability: counters, span timers, and a structured
//! event sink, compiled into every build and armed at run time.
//!
//! Every hot path in the workspace is instrumented with the three macros
//! exported from this crate — [`obs_count!`](crate::obs_count),
//! [`obs_time!`](crate::obs_time), and [`obs_event!`](crate::obs_event).
//! The aggregate records only while it is armed: [`arm`] returns a guard,
//! `--obs`/`--obs-out` hold one for a whole command, and the test window
//! [`exclusive`] (so [`measure`]) holds one for its life. While it is
//! disarmed a call site does one relaxed load and nothing else:
//! `obs_count!`/`obs_event!` evaluate no argument, and `obs_time!` runs its
//! body inside the trace span it opens in any case (one relaxed load at
//! each end while no [`trace`](crate::trace) sink is armed) and reads no
//! clock of its own. No atomic add and no registration.
//!
//! While it is armed, each macro call site materialises a `static`
//! [`Counter`], [`Timer`], or [`EventStat`] that registers itself in a global
//! registry on first touch and is updated with relaxed atomics thereafter.
//! [`snapshot`] merges call sites that share a name, so the same logical
//! counter (e.g. `sched.edf.heap_push`) may be bumped from several places.
//!
//! Names follow the `crate.algorithm.counter` convention documented in
//! `docs/observability.md` — e.g. `forest.tm.nodes_visited` or
//! `sched.reduction.time.laminarize`.
//!
//! Tests that assert on counters must serialise access to the global
//! registry; use [`measure`], which takes a lock, arms, resets, runs the
//! closure, and returns the resulting [`Snapshot`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Version of the JSON report schema emitted by [`Snapshot::to_json`].
///
/// * **1** — counters / timers / events with count, sum, min, max.
/// * **2** — adds the `schema` key itself plus `p50` / `p90` / `p99`
///   quantile estimates per event (log₂-bucket histogram).
/// * **3** — drops the `obs_enabled` key: the aggregate is in every build,
///   and a report comes from a run that armed it.
pub const SCHEMA_VERSION: u32 = 3;

/// Number of log₂ buckets in a [`LogHistogram`] (covers all of `u64`).
pub const HIST_BUCKETS: usize = 64;

/// A fixed-size log₂-bucket histogram of `u64` observations.
///
/// Bucket 0 holds values `{0, 1}`; bucket `i ≥ 1` holds `[2^i, 2^(i+1))`.
/// Recording is one relaxed `fetch_add` — cheap enough for hot paths.
/// Quantiles are estimated with linear interpolation inside the selected
/// bucket (see [`quantile_from_buckets`]), so they carry at most one
/// bucket's width of error (a factor ≤ 2) but never allocate.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        LogHistogram { buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS] }
    }

    /// The bucket index for `value`: `floor(log2(max(value, 1)))`.
    pub fn bucket_of(value: u64) -> usize {
        value.max(1).ilog2() as usize
    }

    /// The inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current bucket counts.
    pub fn counts(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (slot, b) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Estimated `q`-quantile of the recorded observations; see
    /// [`quantile_from_buckets`].
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.counts(), q)
    }

    /// Zeroes every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Estimates the `q`-quantile (`q ∈ [0, 1]`) from log₂ bucket counts.
///
/// Uses the 1-based rank `ceil(q · n)` clamped to `[1, n]`, then linear
/// interpolation between the selected bucket's bounds: with `c`
/// observations in the bucket and the rank falling `w` deep into it
/// (`1 ≤ w ≤ c`), the estimate is `lo + (hi − lo) · w / c`. Returns 0.0
/// for an empty histogram.
pub fn quantile_from_buckets(buckets: &[u64; HIST_BUCKETS], q: f64) -> f64 {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        if cum >= target {
            let lo = LogHistogram::bucket_lo(i) as f64;
            let hi = if i + 1 >= HIST_BUCKETS {
                u64::MAX as f64
            } else {
                (1u128 << (i + 1)) as f64
            };
            let within = (target - (cum - c)) as f64;
            return lo + (hi - lo) * (within / c as f64);
        }
    }
    unreachable!("cumulative bucket count covers every rank")
}

/// A named monotonic counter. One `static` per `obs_count!` call site.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates an unregistered counter (used by macro expansions).
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Adds `n`, registering the call site on first touch.
    pub fn add(&'static self, n: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().counters.lock().unwrap().push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }
}

/// A named span timer accumulating total wall-clock time and span count.
/// One `static` per `obs_time!` call site.
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    total_ns: AtomicU64,
    spans: AtomicU64,
    registered: AtomicBool,
}

impl Timer {
    /// Creates an unregistered timer (used by macro expansions).
    pub const fn new(name: &'static str) -> Self {
        Timer {
            name,
            total_ns: AtomicU64::new(0),
            spans: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one span, registering the call site on first touch.
    pub fn record(&'static self, elapsed: Duration) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().timers.lock().unwrap().push(self);
        }
        self.total_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.spans.fetch_add(1, Ordering::Relaxed);
    }
}

/// A named value distribution (count / sum / min / max), fed by
/// [`obs_event!`](crate::obs_event). One `static` per call site.
#[derive(Debug)]
pub struct EventStat {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    hist: LogHistogram,
    registered: AtomicBool,
}

impl EventStat {
    /// Creates an unregistered event sink (used by macro expansions).
    pub const fn new(name: &'static str) -> Self {
        EventStat {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            hist: LogHistogram::new(),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one observation, registering the call site on first touch.
    pub fn observe(&'static self, value: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().events.lock().unwrap().push(self);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.hist.record(value);
    }
}

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    timers: Mutex<Vec<&'static Timer>>,
    events: Mutex<Vec<&'static EventStat>>,
    /// Serialises reset/snapshot windows across test threads; see [`measure`].
    window: Mutex<()>,
}

fn registry() -> &'static Registry {
    static REGISTRY: Registry = Registry {
        counters: Mutex::new(Vec::new()),
        timers: Mutex::new(Vec::new()),
        events: Mutex::new(Vec::new()),
        window: Mutex::new(()),
    };
    &REGISTRY
}

/// Live [`arm`] guards. Relaxed throughout: the count only gates recording
/// and publishes no other data.
static ARMS: AtomicU32 = AtomicU32::new(0);

/// Keeps the aggregate armed until it drops; see [`arm`].
#[must_use = "the aggregate disarms when the guard drops"]
#[derive(Debug)]
pub struct Armed(());

impl Drop for Armed {
    fn drop(&mut self) {
        ARMS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Arms the aggregate until the returned guard drops. Arms nest: it
/// records while any guard lives, so a test window inside an armed command
/// does not disarm it.
pub fn arm() -> Armed {
    ARMS.fetch_add(1, Ordering::Relaxed);
    Armed(())
}

/// Whether the aggregate records: some [`arm`] guard is alive. The one
/// relaxed load each obs macro site does while it is disarmed.
#[inline]
pub fn armed() -> bool {
    ARMS.load(Ordering::Relaxed) != 0
}

/// Aggregated state of one timer name in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct TimerSnapshot {
    /// Total wall-clock time across all spans.
    pub total: Duration,
    /// Number of spans recorded.
    pub spans: u64,
}

/// Aggregated state of one event name in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct EventSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when `count == 0`).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Log₂ bucket counts (see [`LogHistogram`]); feeds the quantiles.
    pub buckets: [u64; HIST_BUCKETS],
}

impl EventSnapshot {
    /// Estimated `q`-quantile; see [`quantile_from_buckets`].
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.buckets, q)
    }
}

impl Default for EventSnapshot {
    fn default() -> Self {
        EventSnapshot { count: 0, sum: 0, min: 0, max: 0, buckets: [0; HIST_BUCKETS] }
    }
}

/// A point-in-time copy of every registered counter, timer, and event,
/// merged by name and sorted (BTreeMap order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Timer totals by name.
    pub timers: BTreeMap<&'static str, TimerSnapshot>,
    /// Event distributions by name.
    pub events: BTreeMap<&'static str, EventSnapshot>,
}

impl Snapshot {
    /// The value of counter `name`, or 0 when it never fired.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the snapshot as a JSON object (hand-rolled; the workspace has
    /// no serde). Shape:
    ///
    /// ```json
    /// {
    ///   "schema": 3,
    ///   "counters": { "sched.edf.heap_push": 40 },
    ///   "timers": { "sched.reduction.time.laminarize": { "total_ns": 1200, "spans": 1 } },
    ///   "events": { "sched.lsa_cs.class_size": { "count": 3, "sum": 17, "min": 2, "max": 9,
    ///               "p50": 4.7, "p90": 8.9, "p99": 9.9 } }
    /// }
    /// ```
    ///
    /// `p50`/`p90`/`p99` are histogram estimates ([`quantile_from_buckets`]);
    /// the bump to `"schema": 2` marks their introduction, and the bump to
    /// 3 the removal of the `obs_enabled` key.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {v}"));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"timers\": {");
        for (i, (name, t)) in self.timers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{name}\": {{ \"total_ns\": {}, \"spans\": {} }}",
                t.total.as_nanos(),
                t.spans
            ));
        }
        out.push_str(if self.timers.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"events\": {");
        for (i, (name, e)) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{name}\": {{ \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
                e.count,
                e.sum,
                e.min,
                e.max,
                fmt_f64(e.quantile(0.50)),
                fmt_f64(e.quantile(0.90)),
                fmt_f64(e.quantile(0.99))
            ));
        }
        out.push_str(if self.events.is_empty() { "}\n" } else { "\n  }\n" });
        out.push('}');
        out
    }
}

/// Formats a quantile estimate with one decimal place (stable JSON shape).
fn fmt_f64(v: f64) -> String {
    format!("{v:.1}")
}

/// Copies the current state of every registered instrument, merging call
/// sites that share a name.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for c in registry().counters.lock().unwrap().iter() {
        *snap.counters.entry(c.name).or_insert(0) += c.value.load(Ordering::Relaxed);
    }
    for t in registry().timers.lock().unwrap().iter() {
        let e = snap
            .timers
            .entry(t.name)
            .or_insert(TimerSnapshot { total: Duration::ZERO, spans: 0 });
        e.total += Duration::from_nanos(t.total_ns.load(Ordering::Relaxed));
        e.spans += t.spans.load(Ordering::Relaxed);
    }
    for ev in registry().events.lock().unwrap().iter() {
        let count = ev.count.load(Ordering::Relaxed);
        let e = snap
            .events
            .entry(ev.name)
            .or_insert(EventSnapshot { min: u64::MAX, ..EventSnapshot::default() });
        e.count += count;
        e.sum += ev.sum.load(Ordering::Relaxed);
        e.min = e.min.min(ev.min.load(Ordering::Relaxed));
        e.max = e.max.max(ev.max.load(Ordering::Relaxed));
        for (slot, c) in e.buckets.iter_mut().zip(ev.hist.counts()) {
            *slot += c;
        }
    }
    for e in snap.events.values_mut() {
        if e.count == 0 {
            e.min = 0;
        }
    }
    snap
}

/// Zeroes every registered instrument (the registry itself is kept).
pub fn reset() {
    for c in registry().counters.lock().unwrap().iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for t in registry().timers.lock().unwrap().iter() {
        t.total_ns.store(0, Ordering::Relaxed);
        t.spans.store(0, Ordering::Relaxed);
    }
    for e in registry().events.lock().unwrap().iter() {
        e.count.store(0, Ordering::Relaxed);
        e.sum.store(0, Ordering::Relaxed);
        e.min.store(u64::MAX, Ordering::Relaxed);
        e.max.store(0, Ordering::Relaxed);
        e.hist.reset();
    }
}

/// A test window: the global measurement lock and an [`arm`] of the
/// aggregate, both held until it drops; see [`exclusive`].
#[must_use = "the window closes when the guard drops"]
#[derive(Debug)]
pub struct Window {
    _armed: Armed,
    _lock: MutexGuard<'static, ()>,
}

/// The global measurement lock alone, unarmed.
fn lock_window() -> MutexGuard<'static, ()> {
    // A panicking test inside `measure` must not wedge every later test.
    registry().window.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the global measurement lock and arms the aggregate, without
/// resetting; pair with manual [`reset`]/[`snapshot`] calls when
/// [`measure`]'s closure shape is awkward.
/// [`trace::capture`](crate::trace) holds the same lock, so one window
/// serialises every test that asserts on instrumentation.
pub fn exclusive() -> Window {
    let lock = lock_window();
    Window { _armed: arm(), _lock: lock }
}

/// Runs `f` in an exclusive, armed, freshly-reset measurement window and
/// returns `f`'s output together with the snapshot of everything it
/// recorded.
///
/// This is the only sound way to assert on counter values from tests: the
/// cargo test harness runs tests on parallel threads and the registry is
/// global, so unsynchronised windows would observe each other's increments.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let _guard = exclusive();
    reset();
    let out = f();
    (out, snapshot())
}

/// Renders the current registry state as a JSON counter report
/// (convenience for `--obs` flags in binaries).
pub fn report_json() -> String {
    snapshot().to_json()
}

/// Counts occurrences: `obs_count!("name")` adds 1, `obs_count!("name", n)`
/// adds `n`. While the aggregate is disarmed ([`arm`](crate::obs::arm))
/// the site does one relaxed load and the argument expressions are **not
/// evaluated**.
#[macro_export]
macro_rules! obs_count {
    ($name:literal) => {
        $crate::obs_count!($name, 1u64)
    };
    ($name:literal, $n:expr) => {{
        if $crate::obs::armed() {
            static __OBS_COUNTER: $crate::obs::Counter = $crate::obs::Counter::new($name);
            __OBS_COUNTER.add(($n) as u64);
        }
    }};
}

/// Times a span: `obs_time!("name", { body })` evaluates to the body's
/// value and records a timing-class trace span under the same name (via
/// [`obs_span!`](crate::obs_span)) while a trace sink is armed. While the
/// aggregate is armed ([`arm`](crate::obs::arm)) at the span's start it
/// also accumulates the body's wall-clock time; while it is disarmed the
/// site does one relaxed load and reads no clock.
#[macro_export]
macro_rules! obs_time {
    ($name:literal, $body:expr) => {
        $crate::obs_span!(timing $name, {
            static __OBS_TIMER: $crate::obs::Timer = $crate::obs::Timer::new($name);
            let __obs_start = $crate::obs::armed().then(::std::time::Instant::now);
            let __obs_out = $body;
            if let ::core::option::Option::Some(__obs_start) = __obs_start {
                __OBS_TIMER.record(__obs_start.elapsed());
            }
            __obs_out
        })
    };
}

/// Records one observation of a value into a named distribution
/// (count/sum/min/max): `obs_event!("name", value)`. While the aggregate
/// is disarmed ([`arm`](crate::obs::arm)) the site does one relaxed load
/// and the value expression is **not evaluated**.
#[macro_export]
macro_rules! obs_event {
    ($name:literal, $value:expr) => {{
        if $crate::obs::armed() {
            static __OBS_EVENT: $crate::obs::EventStat = $crate::obs::EventStat::new($name);
            __OBS_EVENT.observe(($value) as u64);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_shape_when_empty() {
        let s = Snapshot::default();
        let j = s.to_json();
        assert!(j.contains(&format!("\"schema\": {SCHEMA_VERSION}")));
        assert!(j.contains("\"counters\": {}"));
        assert!(j.contains("\"timers\": {}"));
        assert!(j.contains("\"events\": {}"));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(7), 2);
        assert_eq!(LogHistogram::bucket_of(8), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
        assert_eq!(LogHistogram::bucket_lo(0), 0);
        assert_eq!(LogHistogram::bucket_lo(1), 2);
        assert_eq!(LogHistogram::bucket_lo(3), 8);
        assert_eq!(LogHistogram::bucket_lo(63), 1u64 << 63);
    }

    #[test]
    fn histogram_quantile_interpolation() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0); // empty histogram
        for v in 0..8u64 {
            h.record(v);
        }
        // Buckets: [0,2)=2 obs, [2,4)=2 obs, [4,8)=4 obs. n = 8.
        assert_eq!(h.quantile(0.0), 1.0); // rank 1, half into bucket 0
        assert_eq!(h.quantile(0.5), 4.0); // rank 4, end of bucket 1
        assert_eq!(h.quantile(1.0), 8.0); // rank 8, end of bucket 2
        h.reset();
        assert_eq!(h.counts(), [0u64; HIST_BUCKETS]);
    }

    #[test]
    fn histogram_quantile_error_is_bounded_by_bucket_width() {
        let h = LogHistogram::new();
        for _ in 0..10 {
            h.record(8);
        }
        // All mass in [8,16): any quantile estimate stays inside the bucket.
        for q in [0.5, 0.9, 0.99] {
            let est = h.quantile(q);
            assert!((8.0..=16.0).contains(&est), "q={q} est={est}");
        }
    }

    /// The aggregate records with no trace sink armed, while the trace
    /// recorder keeps nothing.
    #[test]
    fn macros_record_and_merge() {
        fn workload() {
            for i in 0..5u64 {
                crate::obs_count!("core.test.ticks");
                crate::obs_event!("core.test.size", i);
            }
            crate::obs_count!("core.test.ticks", 5);
            let out = crate::obs_time!("core.test.span", { 40 + 2 });
            assert_eq!(out, 42);
        }
        let ((), snap) = measure(workload);
        assert_eq!(snap.counter("core.test.ticks"), 10);
        let ev = &snap.events["core.test.size"];
        assert_eq!((ev.count, ev.sum, ev.min, ev.max), (5, 10, 0, 4));
        // Observations 0..5 land in buckets [0,2)=2, [2,4)=2, [4,8)=1.
        assert_eq!((ev.buckets[0], ev.buckets[1], ev.buckets[2]), (2, 2, 1));
        assert_eq!(ev.quantile(0.5), 3.0);
        assert_eq!(snap.timers["core.test.span"].spans, 1);
        assert!(crate::trace::drain().is_empty());
        let j = snap.to_json();
        assert!(j.contains("\"core.test.ticks\": 10"));
        assert!(j.contains("\"p50\": 3.0"));
        assert!(j.contains("\"p90\":"));
        assert!(j.contains("\"p99\":"));
    }

    /// `obs_time!` opens a timing-class trace span in every build, so a
    /// trace holds the same events with or without the aggregate.
    #[test]
    fn obs_time_opens_a_trace_span_in_every_build() {
        use crate::trace::{TraceClass, TraceKind};
        let (out, events) = crate::trace::capture(|| crate::obs_time!("core.test.span", 42));
        assert_eq!(out, 42);
        let spans: Vec<_> = events.iter().map(|e| (e.phase, e.kind, e.class)).collect();
        assert_eq!(
            spans,
            vec![
                ("core.test.span", TraceKind::Begin, TraceClass::Timing),
                ("core.test.span", TraceKind::End, TraceClass::Timing),
            ]
        );
    }

    /// While disarmed a site evaluates no argument and records nothing:
    /// outside any window, the snapshot holds none of its names.
    #[test]
    fn macros_are_inert_while_disarmed() {
        // obs_count!/obs_event! must not evaluate their arguments...
        #[allow(unreachable_code, clippy::diverging_sub_expression)]
        fn not_evaluated() {
            crate::obs_count!("core.test.never", panic!("evaluated"));
            crate::obs_event!("core.test.never", panic!("evaluated"));
        }
        // The bare lock keeps every armed window of this binary out, and
        // arms nothing itself.
        let _lock = lock_window();
        assert!(!armed());
        not_evaluated();
        // ...while obs_time! must still evaluate its body.
        assert_eq!(crate::obs_time!("core.test.inert_span", 40 + 2), 42);
        let snap = snapshot();
        assert!(!snap.counters.contains_key("core.test.never"));
        assert!(!snap.events.contains_key("core.test.never"));
        assert!(!snap.timers.contains_key("core.test.inert_span"));
    }

    /// Arms nest: with two guards alive, dropping one keeps the aggregate
    /// recording, and dropping both stops it.
    #[test]
    fn arms_nest() {
        // One counter, one event and one timer site.
        let touch = || {
            crate::obs_count!("core.test.arms");
            crate::obs_event!("core.test.arms_size", 3);
            assert_eq!(crate::obs_time!("core.test.arms_span", 40 + 2), 42);
        };
        let _lock = lock_window();
        reset();
        let outer = arm();
        let inner = arm();
        touch();
        drop(inner);
        assert!(armed());
        touch();
        drop(outer);
        assert!(!armed());
        touch();
        let snap = snapshot();
        assert_eq!(snap.counter("core.test.arms"), 2);
        assert_eq!(snap.events["core.test.arms_size"].count, 2);
        assert_eq!(snap.timers["core.test.arms_span"].spans, 2);
    }
}
