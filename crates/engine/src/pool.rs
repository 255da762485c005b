//! The worker-pool core: fan a batch of tasks across N threads, survive
//! panics and overruns, return reports in input order.
//!
//! Scheduling is work-stealing (`crate::exec`): workers claim chunks of
//! the input range from a global injector into per-worker run queues and
//! steal from randomly chosen victims when their own queue drains. Each
//! worker keeps the reports it produced and the pool merges them by input
//! index after the join, so the returned order — and, because every solver
//! is a pure function, the returned *content* — is independent of thread
//! count, steal order, and completion order.
//!
//! Deadlines and cancellation are purely *cooperative*: there is no
//! watchdog thread. [`TaskCtx::should_stop`] compares the task's absolute
//! deadline against the clock at every stage-boundary yield point (see
//! [`crate::cancel`]), so an overrun or a `cancel_all` is observed at the
//! next boundary the task reaches. Retry backoff is a **not-before
//! requeue**: a panicking attempt reschedules its task with a
//! `backoff · 2^(r−1)` earliest-run timestamp and the worker moves on,
//! instead of sleeping out the backoff on the thread.
//!
//! Two robustness layers sit between a solve and its report
//! (`docs/robustness.md`):
//!
//! * **certification** — every emitted output (solved or fallback) passed
//!   the trust boundary of [`crate::cert`]; a mismatch becomes
//!   [`TaskResult::CertFailed`], never a wrong row;
//! * **graceful degradation** — with [`EngineConfig::degrade`] on, a task
//!   that exhausts its retry budget or blows its deadline is retried once
//!   with the polynomial `LSA_CS` (or the `k = 0` algorithm), unbounded and
//!   chaos-free, and reports [`TaskResult::Degraded`] when that rescue
//!   lands.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pobp_core::obs::LogHistogram;
use pobp_core::{obs_count, obs_event, obs_span, trace, trace_event};
use pobp_sched::SolveWorkspace;

use crate::cache::{task_key_with, ResultCache};
use crate::cancel::{CancelToken, StopReason, TaskCtx};
use crate::chaos::{FaultPlan, FaultSite, TaskChaos};
use crate::exec::{Fabric, StealRng, Unit};
use crate::solve::{solve_task, RowMemo, SolveFailure};
use crate::task::{Algo, DegradeCause, SolveTask, TaskReport, TaskResult};

/// Engine configuration. `Default` is the deterministic sweep setup:
/// hardware parallelism, no deadline, one retry, caching on, no
/// degradation.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    /// The thread calling `run_batch` is one of them, so a batch spawns
    /// `threads − 1`.
    pub threads: usize,
    /// Per-task wall-clock deadline, measured from the task's start and
    /// enforced cooperatively: every stage-boundary yield point compares it
    /// against the clock ([`TaskCtx::should_stop`]), so an overrun is
    /// observed at the task's next boundary. Note that deadline outcomes
    /// depend on machine speed — see the determinism contract in
    /// `docs/engine.md`.
    pub deadline: Option<Duration>,
    /// Extra attempts after a panicking first attempt (`0` disables retry).
    pub max_retries: u32,
    /// Not-before delay ahead of retry `r` (doubled per retry, capped at
    /// 100 ms): the task is requeued and becomes runnable again
    /// `backoff · 2^(r−1)` later; the worker stays busy in the meantime.
    pub backoff: Duration,
    /// Whether the content-addressed reference cache is consulted.
    pub use_cache: bool,
    /// Whether the graceful-degradation ladder is armed: tasks that exhaust
    /// retries or overrun their deadline fall back to the polynomial
    /// algorithm (`docs/robustness.md`). Off by default — degradation
    /// changes the failure taxonomy (`TimedOut`/`Panicked` become
    /// `Degraded` when the rescue lands), so callers opt in.
    pub degrade: bool,
    /// Whether a live progress meter is written to stderr while the batch
    /// runs: rows done/total, throughput, running p50 task latency, and
    /// degrade/cert-failure counts. Purely cosmetic — stdout rows and
    /// reports are unaffected.
    pub progress: bool,
    /// The fault plan armed on every task of the batch: the named sites in
    /// the pool, the task wrapper and the reference put fire
    /// deterministically per task (see [`crate::chaos`]). `None` injects
    /// nothing.
    pub chaos: Option<Arc<FaultPlan>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            deadline: None,
            max_retries: 1,
            backoff: Duration::from_millis(5),
            use_cache: true,
            degrade: false,
            progress: false,
            chaos: None,
        }
    }
}

/// Batch-level accounting. The terminal kinds partition the batch:
/// `run + degraded + cert_failed + panicked + timed_out + cancelled ==
/// tasks`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tasks in the batch.
    pub tasks: usize,
    /// Tasks solved to a successful, certified result.
    pub run: usize,
    /// Tasks rescued by the polynomial fallback after their primary
    /// algorithm failed.
    pub degraded: usize,
    /// Tasks whose result failed the certification trust boundary.
    pub cert_failed: usize,
    /// Tasks whose every attempt panicked (and no rescue landed).
    pub panicked: usize,
    /// Tasks that overran their deadline (and no rescue landed).
    pub timed_out: usize,
    /// Tasks cancelled with the batch.
    pub cancelled: usize,
    /// Retry attempts used across the batch (not a task count).
    pub retried: usize,
    /// Reference-layer cache hits (subset of `run` tasks).
    pub ref_cache_hits: usize,
    /// Steal probes made by idle workers (not a task count). Scheduling
    /// telemetry: the value depends on thread interleaving and is outside
    /// the determinism contract, like every `EngineStats` field.
    pub steal_attempts: usize,
    /// Steal probes that took work from a victim (subset of
    /// `steal_attempts`).
    pub steal_hits: usize,
}

/// What [`Engine::run_batch`] returns: per-task reports in input order
/// plus the batch accounting.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One report per task; `reports[i].index == i`.
    pub reports: Vec<TaskReport>,
    /// Batch accounting (see [`EngineStats`]).
    pub stats: EngineStats,
}

/// Internal atomic accumulator behind [`EngineStats`].
#[derive(Default)]
struct StatsCell {
    run: AtomicUsize,
    degraded: AtomicUsize,
    cert_failed: AtomicUsize,
    panicked: AtomicUsize,
    timed_out: AtomicUsize,
    cancelled: AtomicUsize,
    retried: AtomicUsize,
    ref_cache_hits: AtomicUsize,
    steal_attempts: AtomicUsize,
    steal_hits: AtomicUsize,
}

impl StatsCell {
    fn snapshot(&self, tasks: usize) -> EngineStats {
        EngineStats {
            tasks,
            run: self.run.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            cert_failed: self.cert_failed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            ref_cache_hits: self.ref_cache_hits.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
            steal_hits: self.steal_hits.load(Ordering::Relaxed),
        }
    }
}

/// A reusable batch-solving engine: configuration, the shared reference
/// cache (persists across batches), and a batch-level cancel token.
#[derive(Debug, Default)]
pub struct Engine {
    cfg: EngineConfig,
    cache: Arc<ResultCache>,
    batch: CancelToken,
}

impl Engine {
    /// An engine with the given configuration and an empty cache.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine::with_shared_cache(cfg, Arc::new(ResultCache::new()))
    }

    /// An engine sharing an existing reference cache, so engines that solve
    /// the same instances compute each reference once between them. No
    /// product path uses it: every `pobp serve` job runs on an
    /// [`Engine::new`] engine with a cache of its own. Its one caller
    /// outside the tests is the benchmark's in-process replay of the
    /// daemon.
    pub fn with_shared_cache(cfg: EngineConfig, cache: Arc<ResultCache>) -> Self {
        Engine { cfg, cache, batch: CancelToken::new() }
    }

    /// The shared reference cache (persists across `run_batch` calls).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Cancels the current and all future batches of this engine: every
    /// task not yet finished reports [`TaskResult::Cancelled`].
    pub fn cancel_all(&self) {
        self.batch.cancel();
    }

    /// Runs `tasks` across the configured worker pool and returns one
    /// report per task, in input order. The calling thread works as one of
    /// the pool's workers.
    pub fn run_batch(&self, tasks: &[SolveTask]) -> BatchReport {
        let n = tasks.len();
        let stats = StatsCell::default();
        if n == 0 {
            return BatchReport { reports: Vec::new(), stats: stats.snapshot(0) };
        }
        let threads = match self.cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        }
        .min(n)
        .max(1);

        // Enqueue marks: recorded by the submitting thread, in input order,
        // before any worker exists — they sort ahead of every per-task
        // event in the logical trace.
        for i in 0..n {
            let _ctx = trace::task_context(i as u64);
            trace_event!("task.enqueue");
        }
        let progress = self.cfg.progress.then(|| Progress::new(n));

        let fabric = Fabric::new(n, threads);
        let pool_done = AtomicBool::new(false);
        let mut merged: Vec<Option<TaskReport>> = (0..n).map(|_| None).collect();

        // One worker's whole run: claim units until the fabric is done,
        // and keep the reports it produced.
        let work = |w: usize| -> Vec<TaskReport> {
            // One scratch workspace per worker, reused across every task
            // this worker claims: steady-state solves allocate only
            // their outputs.
            let mut ws = SolveWorkspace::new();
            // What the k row this worker is on shares: its instance
            // hash, its certified reference and its reduction prefix
            // (`RowMemo`).
            let mut memo = RowMemo::default();
            let mut rng = StealRng::new(w);
            // Reports stay worker-local until the merge after the join —
            // no shared report lock on the hot path.
            let mut local: Vec<TaskReport> = Vec::new();
            let mut busy = Duration::ZERO;
            let mut dispatched = 0u64;
            // Per-task clock reads feed only telemetry; skip them when
            // nothing consumes the numbers.
            let timed = pobp_core::obs::armed() || progress.is_some();
            while !fabric.is_done() {
                let (unit, steals) = fabric.next_unit(w, &mut rng);
                if steals.attempts > 0 {
                    stats.steal_attempts.fetch_add(steals.attempts, Ordering::Relaxed);
                    stats.steal_hits.fetch_add(steals.hits, Ordering::Relaxed);
                }
                let Some(unit) = unit else {
                    fabric.park();
                    continue;
                };
                dispatched += 1;
                if dispatched > 1 {
                    obs_count!("engine.ws.reuses");
                }
                let start = timed.then(Instant::now);
                let index = unit.index;
                let report = {
                    let _task = trace::task_scope(index as u64, &tasks[index].label);
                    let report = self.dispatch(
                        w,
                        unit,
                        &tasks[index],
                        &stats,
                        &fabric,
                        &mut memo,
                        &mut ws,
                    );
                    if let Some(r) = &report {
                        trace_event!("emit", text: r.result.status());
                    }
                    report
                };
                let elapsed = start.map(|t| t.elapsed()).unwrap_or_default();
                busy += elapsed;
                if let Some(report) = report {
                    if let Some(p) = &progress {
                        p.record(&report.result, elapsed);
                    }
                    local.push(report);
                    fabric.complete_one();
                }
            }
            obs_event!("engine.worker.busy_us", busy.as_micros() as u64);
            obs_event!("engine.ws.scratch_bytes", ws.scratch_bytes() as u64);
            local
        };
        std::thread::scope(|s| {
            if let Some(p) = &progress {
                s.spawn(|| {
                    while !pool_done.load(Ordering::Acquire) {
                        eprint!("\r{}", p.render());
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    // Final line, with everything accounted for.
                    eprintln!("\r{}", p.render());
                });
            }
            // The calling thread is worker 0 and only `threads − 1` helpers
            // are spawned, so a one-thread batch (every daemon job) spawns
            // no thread at all.
            let work = &work;
            let helpers: Vec<_> = (1..threads).map(|w| s.spawn(move || work(w))).collect();
            let mut locals = vec![work(0)];
            // Join the helpers before stopping the progress thread: a helper
            // panic here (outside the per-task catch_unwind) is an engine
            // bug.
            for h in helpers {
                locals.push(h.join().expect("engine worker panicked outside the task wrapper"));
            }
            for report in locals.into_iter().flatten() {
                let slot = report.index;
                merged[slot] = Some(report);
            }
            pool_done.store(true, Ordering::Release);
        });

        let reports: Vec<TaskReport> = merged
            .into_iter()
            .map(|r| r.expect("every claimed task reports exactly once"))
            .collect();
        BatchReport { reports, stats: stats.snapshot(n) }
    }

    /// Runs one dispatched attempt of a unit: a single attempt under
    /// `catch_unwind`, the degradation ladder, terminal accounting. Returns
    /// `None` when the attempt panicked with retry budget left — the unit
    /// has then been requeued with a not-before timestamp and some worker
    /// will dispatch it again once the backoff passes.
    #[allow(clippy::too_many_arguments)]
    fn dispatch<'b>(
        &self,
        worker: usize,
        mut unit: Unit,
        task: &'b SolveTask,
        stats: &StatsCell,
        fabric: &Fabric,
        memo: &mut RowMemo<'b>,
        ws: &mut SolveWorkspace,
    ) -> Option<TaskReport> {
        let index = unit.index;
        // The instance hash is the reference key; the memo computes it once
        // per run of equal instances.
        let cache = self.cfg.use_cache.then(|| (&*self.cache, memo.instance_hash(&task.instance)));
        if unit.attempts == 0 {
            // First dispatch: fix the task's absolute deadline and chaos
            // handle. Both live in the unit from here on, so they survive a
            // retry requeue — a task's deadline keeps running while it waits
            // out a backoff, exactly as it did when the backoff was an
            // in-worker sleep.
            unit.deadline_at = self.cfg.deadline.map(|d| Instant::now() + d);
            unit.chaos = self.cfg.chaos.as_ref().map(|plan| TaskChaos {
                plan: plan.clone(),
                key: task_key_with(memo.instance_hash(&task.instance), task),
            });
            if let Some(ch) = &unit.chaos {
                // The `cancel` site: expire the task's deadline before it
                // starts; the wrapper stops at its first boundary.
                if ch.plan.fires(FaultSite::SpuriousCancel, ch.key) {
                    obs_count!("engine.chaos.cancel");
                    trace_event!("chaos.cancel");
                    unit.deadline_at = Some(Instant::now());
                }
            }
        }
        let ctx = TaskCtx {
            batch: self.batch.clone(),
            deadline: unit.deadline_at,
            chaos: unit.chaos.clone(),
        };
        unit.attempts += 1;
        let attempts = unit.attempts;

        // The attempt span lives inside the catch_unwind so its end
        // event fires during unwinding — panicking attempts still close.
        // The workspace is safe to reuse after an unwind: every `*_ws`
        // entry point resets its buffers at entry. So is the memo: each
        // slot is only ever replaced by a finished hash, a passed check or
        // a finished plan.
        let attempt = |memo: &mut RowMemo<'b>, ws: &mut SolveWorkspace| {
            obs_span!("attempt", {
                if let Some(ch) = &ctx.chaos {
                    // The `delay` site: stall the attempt (wall-clock
                    // only — outputs are unaffected, but an armed real
                    // deadline may now fire, which is the point).
                    if ch.plan.fires(FaultSite::Delay, ch.key) {
                        obs_count!("engine.chaos.delay");
                        trace_event!("chaos.delay");
                        std::thread::sleep(ch.plan.delay());
                    }
                    // The `panic`/`flaky` sites, inside catch_unwind.
                    ch.plan.inject_panic(ch.key, attempts);
                }
                solve_task(task, &ctx, cache, memo, ws)
            })
        };
        let result = match catch_unwind(AssertUnwindSafe(|| attempt(&mut *memo, &mut *ws))) {
            Ok(Ok(solved)) => {
                obs_count!("engine.tasks.run");
                obs_count!("engine.cert.ok");
                stats.run.fetch_add(1, Ordering::Relaxed);
                if solved.ref_hit {
                    stats.ref_cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                TaskResult::Done(solved.output)
            }
            Ok(Err(SolveFailure::Cert(failure))) => {
                obs_count!("engine.cert.failed");
                trace_event!("cert.failed", text: failure.stage.name());
                stats.cert_failed.fetch_add(1, Ordering::Relaxed);
                failure.into()
            }
            Ok(Err(SolveFailure::Stopped(StopReason::DeadlineExceeded))) => {
                trace_event!("stop.deadline");
                match self.try_degrade(task, DegradeCause::DeadlineExceeded, stats, ws) {
                    Some(rescued) => rescued,
                    None => {
                        obs_count!("engine.tasks.timed_out");
                        stats.timed_out.fetch_add(1, Ordering::Relaxed);
                        TaskResult::TimedOut
                    }
                }
            }
            Ok(Err(SolveFailure::Stopped(StopReason::BatchCancelled))) => {
                trace_event!("stop.cancelled");
                obs_count!("engine.tasks.cancelled");
                stats.cancelled.fetch_add(1, Ordering::Relaxed);
                TaskResult::Cancelled
            }
            Err(payload) => {
                if attempts <= self.cfg.max_retries && ctx.should_stop().is_none() {
                    // Not-before requeue instead of an in-worker sleep: the
                    // unit becomes runnable again after the backoff and the
                    // worker moves on to other tasks immediately.
                    obs_count!("engine.tasks.retried");
                    trace_event!("retry", attempts);
                    stats.retried.fetch_add(1, Ordering::Relaxed);
                    let exp = attempts.saturating_sub(1).min(16);
                    let pause = self
                        .cfg
                        .backoff
                        .saturating_mul(1u32 << exp)
                        .min(Duration::from_millis(100));
                    if pause.is_zero() {
                        fabric.push_slot(worker, unit);
                    } else {
                        fabric.push_delayed(Instant::now() + pause, unit);
                    }
                    return None;
                }
                match self.try_degrade(task, DegradeCause::RetriesExhausted, stats, ws) {
                    Some(rescued) => rescued,
                    None => {
                        obs_count!("engine.tasks.panicked");
                        stats.panicked.fetch_add(1, Ordering::Relaxed);
                        TaskResult::Panicked { message: panic_message(&*payload) }
                    }
                }
            }
        };
        Some(TaskReport { index, label: task.label.clone(), attempts, result })
    }

    /// The graceful-degradation ladder: rerun the task with the polynomial
    /// fallback (`LSA_CS`; the `k = 0` algorithm when that *is* the task;
    /// the online greedy for online tasks — an online measurement is never
    /// rescued by an offline algorithm), greedy reference, no deadline, no
    /// cache, no chaos — but still
    /// honoring the batch token — and certify the result like any other.
    /// Returns `None` when degradation is off, the task is the test-only
    /// panicking algorithm, or the fallback itself fails (the original
    /// failure then stands).
    fn try_degrade(
        &self,
        task: &SolveTask,
        cause: DegradeCause,
        stats: &StatsCell,
        ws: &mut SolveWorkspace,
    ) -> Option<TaskResult> {
        if !self.cfg.degrade || task.algo == Algo::PanicForTest {
            return None;
        }
        obs_count!("engine.degrade.attempted");
        // Online tasks stay online: rescuing an online measurement with an
        // offline algorithm would silently change what the row measures.
        let fallback = if task.algo.is_online() {
            Algo::OnlineGreedy
        } else if task.k == 0 || task.algo == Algo::K0 {
            Algo::K0
        } else {
            Algo::LsaCs
        };
        let fb_task = SolveTask {
            instance: task.instance.clone(),
            k: task.k,
            machines: task.machines,
            algo: fallback,
            exact_ref: false,
            label: task.label.clone(),
        };
        let ctx = TaskCtx { batch: self.batch.clone(), deadline: None, chaos: None };
        // The fallback runs cache-free, like it runs chaos-free: a
        // reference entry poisoned by the `corrupt-ref` site cannot reach
        // the rescue.
        obs_span!("degrade", {
            // An empty memo: the fallback's reference is its own, checked
            // afresh, and no fallback algorithm is a reduction.
            let solve = || solve_task(&fb_task, &ctx, None, &mut RowMemo::default(), ws);
            match catch_unwind(AssertUnwindSafe(solve)) {
                Ok(Ok(solved)) => {
                    obs_count!("engine.degrade.rescued");
                    obs_count!("engine.cert.ok");
                    trace_event!("degrade.rescued", text: fallback.name());
                    stats.degraded.fetch_add(1, Ordering::Relaxed);
                    Some(TaskResult::Degraded { fallback, cause, output: solved.output })
                }
                _ => {
                    obs_count!("engine.degrade.failed");
                    trace_event!("degrade.failed");
                    None
                }
            }
        })
    }
}

/// Shared state behind the live `--progress` stderr meter
/// ([`EngineConfig::progress`]): workers record outcomes, a dedicated
/// reporter thread renders a `\r`-overwritten line every 50 ms.
struct Progress {
    total: usize,
    start: Instant,
    done: AtomicUsize,
    degraded: AtomicUsize,
    cert_failed: AtomicUsize,
    /// Per-task wall-clock latency in µs; drives the running p50.
    latency_us: LogHistogram,
}

impl Progress {
    fn new(total: usize) -> Self {
        Progress {
            total,
            start: Instant::now(),
            done: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            cert_failed: AtomicUsize::new(0),
            latency_us: LogHistogram::new(),
        }
    }

    fn record(&self, result: &TaskResult, elapsed: Duration) {
        match result {
            TaskResult::Degraded { .. } => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
            }
            TaskResult::CertFailed { .. } => {
                self.cert_failed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        self.latency_us.record(elapsed.as_micros() as u64);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    fn render(&self) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let secs = self.start.elapsed().as_secs_f64().max(1e-9);
        let p50 = self.latency_us.quantile(0.5);
        format!(
            "progress: {done}/{total} rows | {rate:.1} rows/s | p50 {p50} | {deg} degraded | {cf} cert-failed   ",
            total = self.total,
            rate = done as f64 / secs,
            p50 = fmt_latency_us(p50),
            deg = self.degraded.load(Ordering::Relaxed),
            cf = self.cert_failed.load(Ordering::Relaxed),
        )
    }
}

/// Renders a µs latency estimate human-readably (`740µs`, `12.3ms`).
fn fmt_latency_us(us: f64) -> String {
    if us >= 1000.0 {
        format!("{:.1}ms", us / 1000.0)
    } else {
        format!("{us:.0}µs")
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<opaque panic payload>".to_string()
    }
}

/// One-shot convenience: build an [`Engine`] with `cfg`, run `tasks`.
pub fn run_batch(tasks: &[SolveTask], cfg: EngineConfig) -> BatchReport {
    Engine::new(cfg).run_batch(tasks)
}
