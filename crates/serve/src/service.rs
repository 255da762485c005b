//! The daemon core: admission control, the priority queue, the worker
//! pool, and the durable registry — everything except the TCP framing
//! (which lives in [`crate::server`]).
//!
//! # Lifecycle and durability contract
//!
//! Every externally visible state change is journalled **before** it is
//! acknowledged: `submit` appends (and flushes) the `Submit` record before
//! returning the job id, so a `kill -9` at any later instant cannot lose an
//! acknowledged job. Workers journal `Start` when they claim and `Finish`
//! when the engine reports; recovery re-queues anything admitted but not
//! finished (its solve died with the process) and re-serves every finished
//! result from the registry. See `docs/serve.md` for the full contract.
//!
//! # Admission
//!
//! The queue is bounded ([`ServiceConfig::queue_cap`], counting jobs in
//! [`JobStatus::Queued`]). A full queue — or a stopping daemon — yields a
//! structured [`SubmitOutcome::Rejected`] with the reason and current
//! depth; nothing is journalled for rejected submissions. Admitted jobs are
//! claimed highest-priority-first, FIFO by id on ties.
//!
//! # Result reuse
//!
//! Submissions whose [content key](JobSpec::content_key) matches an
//! already-finished certified job short-circuit the queue entirely: the
//! daemon journals `Submit` + `Finish` with the stored result and bumps
//! `serve.cache.hits`. Below that, every per-job engine shares one
//! [`ResultCache`] of unbounded references, so a job that misses the serve
//! layer — a duplicate of a job still queued or running, or another `k`
//! over the same instance — reuses its reference and solves only its own
//! bounded stage.

use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(feature = "instrument")]
use std::collections::BTreeMap;
#[cfg(feature = "instrument")]
use std::sync::atomic::AtomicU64;

#[cfg(feature = "instrument")]
use pobp_core::metrics::{MetricsWindow, Prom, Sample};
#[cfg(feature = "instrument")]
use pobp_core::obs::LogHistogram;
use pobp_core::{obs_count, obs_event, obs_span, trace_event};
use pobp_engine::{Algo, Engine, EngineConfig, ResultCache, TaskReport, TaskResult};

use crate::job::{JobSpec, JobStatus};
use crate::journal::{recovery_json, Journal, RecoveryReport, DEFAULT_COMPACT_EVERY};
use crate::json::{obj, Json};
use crate::registry::{Event, JobRecord, Registry};
#[cfg(feature = "instrument")]
use crate::telemetry::{TelemetryOptions, WINDOW_SAMPLES};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Registry directory (journal + snapshot). Created if missing.
    pub dir: PathBuf,
    /// Concurrent job workers (each runs one job at a time on its own
    /// engine). `0` starts no workers: jobs queue but never run — the
    /// admission tests use this to saturate the queue deterministically;
    /// the CLI never passes it.
    pub workers: usize,
    /// Admission bound: maximum jobs in [`JobStatus::Queued`] at once.
    pub queue_cap: usize,
    /// Arm the engine's graceful-degradation ladder for deadline overruns
    /// (see `docs/robustness.md`).
    pub degrade: bool,
    /// Journal appends between snapshot compactions.
    pub compact_every: u64,
    /// Arm deterministic fault injection: the io-* sites (docs/sweeps.md)
    /// under the journal's appends and compactions, and every site of the
    /// per-job engines, each of which gets a copy in its `EngineConfig`.
    #[cfg(feature = "chaos")]
    pub chaos: Option<Arc<pobp_engine::FaultPlan>>,
    /// Live-telemetry knobs: sampler period, scrape address, flight-dump
    /// directory (docs/observability.md).
    #[cfg(feature = "instrument")]
    pub telemetry: TelemetryOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            dir: PathBuf::from("pobp-serve-registry"),
            workers: 2,
            queue_cap: 64,
            degrade: false,
            compact_every: DEFAULT_COMPACT_EVERY,
            #[cfg(feature = "chaos")]
            chaos: None,
            #[cfg(feature = "instrument")]
            telemetry: TelemetryOptions::default(),
        }
    }
}

/// What `submit` decided.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitOutcome {
    /// The job was admitted (and durably journalled). `cached` means it was
    /// answered immediately from an equal-keyed finished job and is already
    /// terminal.
    Accepted {
        /// The assigned job id.
        id: u64,
        /// State at acknowledgement: `Queued`, or terminal when `cached`.
        status: JobStatus,
        /// The job's content key.
        key: u64,
        /// Whether the result was re-served from an equal-keyed job.
        cached: bool,
    },
    /// The job was not admitted; nothing was journalled.
    Rejected {
        /// `"queue_full"` or `"shutting_down"`.
        reason: &'static str,
        /// Jobs queued at the moment of rejection.
        queue_depth: usize,
    },
}

/// Wakes one worker when dropped; empty unless [`Service::admit`] queued a
/// job. Returned with the admission so the caller picks when the job's
/// worker starts, and dropped on every path, so a queued job is never left
/// unannounced.
#[must_use = "dropping a Wake wakes the job's worker at once"]
pub struct Wake<'a>(Option<&'a Condvar>);

impl Wake<'_> {
    /// A wake that wakes no one.
    pub(crate) fn none() -> Self {
        Wake(None)
    }
}

impl Drop for Wake<'_> {
    fn drop(&mut self) {
        if let Some(work_ready) = self.0 {
            work_ready.notify_one();
        }
    }
}

/// What `cancel` decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// No job with that id.
    NotFound,
    /// The job had already reached this terminal state.
    AlreadyTerminal(JobStatus),
    /// The job was still queued: journalled cancelled; it will never reach
    /// an engine.
    CancelledQueued,
    /// The job was running: its engine was signalled; the worker journals
    /// the terminal state when the engine returns.
    SignalledRunning,
}

/// Always-on service counters (plain fields under the state lock, so CI
/// can assert on them without an `instrument` build; the `serve.*` obs family
/// mirrors them when compiled in).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Admitted submissions (including cache-served ones).
    pub accepted: u64,
    /// Rejected submissions.
    pub rejected: u64,
    /// Submissions answered from an equal-keyed finished job.
    pub cache_hits: u64,
    /// Jobs finished [`JobStatus::Done`].
    pub done: u64,
    /// Jobs finished [`JobStatus::Degraded`].
    pub degraded: u64,
    /// Jobs finished [`JobStatus::Failed`].
    pub failed: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Jobs re-queued by crash recovery.
    pub requeued: u64,
}

/// Priority-queue entry: max-heap on `(priority, −id)` — higher priority
/// first, FIFO by id on ties.
#[derive(Debug, PartialEq, Eq)]
struct QueueEntry {
    priority: i64,
    id: u64,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority.cmp(&other.priority).then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything under the state lock.
struct State {
    registry: Registry,
    journal: Journal,
    queue: BinaryHeap<QueueEntry>,
    /// Jobs in [`JobStatus::Queued`] (the admission-bounded quantity; the
    /// heap may additionally hold stale entries for cancelled jobs).
    queued: usize,
    /// Per-running-job engines, for targeted cancel.
    running: HashMap<u64, Arc<Engine>>,
    /// Content key → finished certified job id, for cross-request reuse.
    key_index: HashMap<u64, u64>,
    counters: ServeCounters,
    recovery: RecoveryReport,
}

/// Live-telemetry state (outside the state lock: the sampler and scrape
/// paths take the state lock briefly per tick, never the other way round).
#[cfg(feature = "instrument")]
struct Telemetry {
    /// Monotone epoch for sample timestamps and uptime.
    started: Instant,
    /// The windowed sample ring the `metrics` op and scrapes read.
    window: Mutex<MetricsWindow>,
    /// Job wall-clock latency in milliseconds (engine run only).
    latency_ms: LogHistogram,
    /// Jobs finished `Done`/`Degraded` per algorithm name.
    per_alg_done: Mutex<BTreeMap<&'static str, u64>>,
    /// Number of the next flight dump.
    flight_seq: AtomicU64,
    /// Keeps the flight ring armed while a daemon with a flight directory
    /// lives.
    _ring: Option<pobp_core::trace::Armed>,
}

struct Inner {
    cfg: ServiceConfig,
    cache: Arc<ResultCache>,
    state: Mutex<State>,
    work_ready: Condvar,
    stopping: AtomicBool,
    drain: AtomicBool,
    #[cfg(feature = "instrument")]
    telemetry: Telemetry,
}

impl Inner {
    /// Appends `event` to the journal. A failed append poisons the journal,
    /// so an `instrument` build also dumps the flight ring that led to it.
    fn append(&self, journal: &mut Journal, event: &Event) -> io::Result<u64> {
        let appended = journal.append(event);
        #[cfg(feature = "instrument")]
        if appended.is_err() {
            flight_on_failure(self, "journal-poisoned");
        }
        appended
    }
}

/// The running daemon core. Construct with [`Service::start`]; all methods
/// are callable from any thread (the TCP server calls them from
/// per-connection threads).
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Serialises [`Service::stop`]: the first caller runs the full
    /// drain-join-snapshot sequence, later callers block until it is done
    /// and then return. The final compaction must run exactly once —
    /// a second rewrite could race an external reader (the soak replays
    /// the registry directory as soon as the daemon goes quiet).
    stop_once: std::sync::Once,
}

impl Service {
    /// Recovers the registry from `cfg.dir` and starts the worker pool.
    pub fn start(cfg: ServiceConfig) -> io::Result<Service> {
        #[cfg(feature = "instrument")]
        let flight_seq = cfg.telemetry.flight_dir.as_deref().map(open_flight_dir).transpose()?;
        let (journal, mut registry, recovery) = Journal::open(&cfg.dir, cfg.compact_every)?;
        // Arm IO fault injection after recovery: recovery itself is
        // read-only, and the startup compaction must succeed so the
        // injected faults land on a known-clean journal.
        #[cfg(feature = "chaos")]
        let journal = {
            let mut journal = journal;
            if let Some(plan) = cfg.chaos.clone() {
                let key = cfg
                    .dir
                    .to_string_lossy()
                    .bytes()
                    .fold(0x6a6f_7572_6e61_6c30_u64, |h, b| {
                        pobp_engine::splitmix64(h ^ u64::from(b))
                    });
                journal.set_chaos(plan, key);
            }
            journal
        };
        let pending = registry.recover_pending();
        let mut queue = BinaryHeap::new();
        let mut key_index = HashMap::new();
        for job in registry.iter() {
            if matches!(job.status, JobStatus::Done | JobStatus::Degraded)
                && job.result.is_some()
                && job.spec.alg != Algo::PanicForTest
            {
                key_index.entry(job.spec.content_key()).or_insert(job.id);
            }
        }
        for &id in &pending {
            let priority = registry.get(id).map_or(0, |j| j.spec.priority);
            queue.push(QueueEntry { priority, id });
        }
        let counters = ServeCounters { requeued: pending.len() as u64, ..Default::default() };
        obs_count!("serve.recover.requeued", pending.len() as u64);
        let queued = pending.len();
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            cache: Arc::new(ResultCache::new()),
            state: Mutex::new(State {
                registry,
                journal,
                queue,
                queued,
                running: HashMap::new(),
                key_index,
                counters,
                recovery,
            }),
            work_ready: Condvar::new(),
            stopping: AtomicBool::new(false),
            drain: AtomicBool::new(true),
            #[cfg(feature = "instrument")]
            telemetry: Telemetry {
                started: Instant::now(),
                window: Mutex::new(MetricsWindow::new(WINDOW_SAMPLES)),
                latency_ms: LogHistogram::new(),
                per_alg_done: Mutex::new(BTreeMap::new()),
                flight_seq: AtomicU64::new(flight_seq.unwrap_or(0)),
                _ring: flight_seq.map(|_| pobp_core::trace::arm(pobp_core::trace::Sink::Ring)),
            },
        });
        #[cfg_attr(not(feature = "instrument"), allow(unused_mut))]
        let mut workers: Vec<JoinHandle<()>> = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pobp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        #[cfg(feature = "instrument")]
        if cfg.telemetry.sample_ms > 0 {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("pobp-serve-sampler".into())
                    .spawn(move || sampler_loop(&inner))
                    .expect("spawn sampler"),
            );
        }
        Ok(Service { inner, workers: Mutex::new(workers), stop_once: std::sync::Once::new() })
    }

    /// What recovery found when this daemon started.
    pub fn recovery(&self) -> RecoveryReport {
        self.inner.state.lock().unwrap().recovery
    }

    /// Admission: journal-then-acknowledge, bounded queue, serve-level
    /// cache. `Err` means the journal could not be written — the submission
    /// is **not** acknowledged and nothing is enqueued. A queued job's
    /// worker is woken before this returns.
    pub fn submit(&self, spec: JobSpec) -> io::Result<SubmitOutcome> {
        let (outcome, wake) = self.admit(spec)?;
        drop(wake);
        Ok(outcome)
    }

    /// [`Service::submit`], except that a queued job's worker is woken only
    /// when the returned [`Wake`] is dropped. The TCP front end drops it
    /// after writing the ack, so the job's CPU burst cannot run ahead of
    /// its own acknowledgement.
    pub fn admit(&self, spec: JobSpec) -> io::Result<(SubmitOutcome, Wake<'_>)> {
        // A pure function of the spec that regenerates and hashes the whole
        // instance: computed before the lock every other request waits on.
        let key = spec.content_key();
        let mut state = self.inner.state.lock().unwrap();
        if self.inner.stopping.load(Ordering::Acquire) {
            state.counters.rejected += 1;
            obs_count!("serve.submit.rejected");
            let outcome =
                SubmitOutcome::Rejected { reason: "shutting_down", queue_depth: state.queued };
            return Ok((outcome, Wake::none()));
        }
        if state.queued >= self.inner.cfg.queue_cap {
            state.counters.rejected += 1;
            obs_count!("serve.submit.rejected");
            let outcome =
                SubmitOutcome::Rejected { reason: "queue_full", queue_depth: state.queued };
            return Ok((outcome, Wake::none()));
        }
        // Serve-level cache: an equal-keyed certified result short-circuits
        // the queue. Journalled as submit+finish so restarts re-serve it
        // identically.
        if let Some(result) =
            state.key_index.get(&key).and_then(|id| state.registry.get(*id)).and_then(|donor| {
                matches!(donor.status, JobStatus::Done | JobStatus::Degraded)
                    .then(|| donor.result.clone())
                    .flatten()
            })
        {
            let id = state.registry.allocate_id();
            let submit = Event::Submit { id, spec };
            self.inner.append(&mut state.journal, &submit)?;
            state.registry.apply(&submit);
            let finish = Event::Finish { id, result };
            self.inner.append(&mut state.journal, &finish)?;
            state.registry.apply(&finish);
            let status = state.registry.get(id).expect("just finished").status;
            state.counters.accepted += 1;
            state.counters.cache_hits += 1;
            match status {
                JobStatus::Degraded => state.counters.degraded += 1,
                _ => state.counters.done += 1,
            }
            obs_count!("serve.submit.accepted");
            obs_count!("serve.cache.hits");
            trace_event!("serve.cache_hit");
            let State { registry, journal, .. } = &mut *state;
            let _ = journal.maybe_compact(registry);
            return Ok((SubmitOutcome::Accepted { id, status, key, cached: true }, Wake::none()));
        }
        let id = state.registry.allocate_id();
        let priority = spec.priority;
        let submit = Event::Submit { id, spec };
        self.inner.append(&mut state.journal, &submit)?;
        state.registry.apply(&submit);
        state.queue.push(QueueEntry { priority, id });
        state.queued += 1;
        state.counters.accepted += 1;
        obs_count!("serve.submit.accepted");
        obs_event!("serve.queue.depth", state.queued as u64);
        trace_event!("serve.submit", id);
        let outcome = SubmitOutcome::Accepted { id, status: JobStatus::Queued, key, cached: false };
        Ok((outcome, Wake(Some(&self.inner.work_ready))))
    }

    /// Cancels a job: queued jobs are journalled cancelled on the spot and
    /// never reach an engine; running jobs have their engine signalled.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let mut state = self.inner.state.lock().unwrap();
        let Some(job) = state.registry.get(id) else { return CancelOutcome::NotFound };
        match job.status {
            s if s.is_terminal() => CancelOutcome::AlreadyTerminal(s),
            JobStatus::Running => {
                if let Some(engine) = state.running.get(&id) {
                    engine.cancel_all();
                }
                trace_event!("serve.cancel.running", id);
                CancelOutcome::SignalledRunning
            }
            _ => {
                let cancel = Event::Cancel { id };
                if let Err(e) = self.inner.append(&mut state.journal, &cancel) {
                    eprintln!("serve: journal append failed on cancel({id}): {e}");
                }
                state.registry.apply(&cancel);
                state.queued = state.queued.saturating_sub(1);
                state.counters.cancelled += 1;
                obs_count!("serve.jobs.cancelled");
                trace_event!("serve.cancel.queued", id);
                CancelOutcome::CancelledQueued
            }
        }
    }

    /// One job's record, if it exists.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.inner.state.lock().unwrap().registry.get(id).cloned()
    }

    /// Records in id order, optionally filtered by status, up to `limit`.
    pub fn list(&self, status: Option<JobStatus>, limit: usize) -> Vec<JobRecord> {
        let state = self.inner.state.lock().unwrap();
        state
            .registry
            .iter()
            .filter(|j| status.is_none_or(|s| j.status == s))
            .take(limit)
            .cloned()
            .collect()
    }

    /// The always-on counter snapshot.
    pub fn counters(&self) -> ServeCounters {
        self.inner.state.lock().unwrap().counters
    }

    /// The `stats` op payload: counters, queue/running depth, journal
    /// position, and what recovery found at startup.
    pub fn stats_json(&self) -> Json {
        let state = self.inner.state.lock().unwrap();
        let c = state.counters;
        obj([
            ("jobs", Json::Num(state.registry.len() as f64)),
            ("queued", Json::Num(state.queued as f64)),
            ("running", Json::Num(state.running.len() as f64)),
            ("queue_cap", Json::Num(self.inner.cfg.queue_cap as f64)),
            ("accepted", Json::Num(c.accepted as f64)),
            ("rejected", Json::Num(c.rejected as f64)),
            ("cache_hits", Json::Num(c.cache_hits as f64)),
            ("done", Json::Num(c.done as f64)),
            ("degraded", Json::Num(c.degraded as f64)),
            ("failed", Json::Num(c.failed as f64)),
            ("cancelled", Json::Num(c.cancelled as f64)),
            ("journal_seq", Json::Num(state.journal.seq() as f64)),
            ("compactions", Json::Num(state.journal.compactions() as f64)),
            ("recovery", recovery_json(&state.recovery)),
        ])
    }

    /// The `metrics` op payload: takes one on-demand sample (so the view is
    /// current even between sampler ticks, and works with `sample_ms: 0`),
    /// then derives windowed rates, ratios, latency quantiles, and the
    /// per-algorithm breakdown. All values are wall-clock telemetry — see
    /// the determinism contract in `docs/observability.md`.
    #[cfg(feature = "instrument")]
    pub fn metrics_json(&self) -> Json {
        let sample = capture_sample(&self.inner);
        let mut window = self.inner.telemetry.window.lock().unwrap();
        window.push(sample);
        let latest = window.latest().cloned().unwrap_or_default();
        let rate = |name: &str| match window.rate(name) {
            Some(r) => Json::Num(r),
            None => Json::Null,
        };
        let gauge = |name: &str| Json::Num(window.gauge(name).unwrap_or(0.0));
        let ratio = |num: &str, den: &str| match window.ratio(num, den) {
            Some(r) => Json::Num(r),
            None => Json::Null,
        };
        let h = &self.inner.telemetry.latency_ms;
        let latency_count: u64 = h.counts().iter().sum();
        let per_alg: Vec<(String, Json)> = self
            .inner
            .telemetry
            .per_alg_done
            .lock()
            .unwrap()
            .iter()
            .map(|(alg, n)| ((*alg).to_string(), obj([("done", Json::Num(*n as f64))])))
            .collect();
        obj([
            ("window_secs", Json::Num(window.window_secs())),
            ("samples", Json::Num(window.len() as f64)),
            ("sample_ms", Json::Num(self.inner.cfg.telemetry.sample_ms as f64)),
            ("uptime_ms", Json::Num(self.inner.telemetry.started.elapsed().as_millis() as f64)),
            ("queued", gauge("queued")),
            ("running", gauge("running")),
            ("jobs", gauge("jobs")),
            ("queue_cap", Json::Num(self.inner.cfg.queue_cap as f64)),
            ("journal_bytes", gauge("journal_bytes")),
            ("journal_poisoned", Json::Bool(window.gauge("journal_poisoned").unwrap_or(0.0) > 0.0)),
            (
                "counters",
                Json::Obj(
                    latest
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "rates",
                obj([
                    ("accepted_per_s", rate("accepted")),
                    ("rejected_per_s", rate("rejected")),
                    ("finished_per_s", rate("finished")),
                    ("done_per_s", rate("done")),
                    ("failed_per_s", rate("failed")),
                    ("cache_hits_per_s", rate("cache_hits")),
                ]),
            ),
            ("cache_hit_ratio", ratio("cache_hits", "accepted")),
            ("degrade_ratio", ratio("degraded", "finished")),
            (
                "latency_ms",
                obj([
                    ("count", Json::Num(latency_count as f64)),
                    ("p50", Json::Num(h.quantile(0.50))),
                    ("p90", Json::Num(h.quantile(0.90))),
                    ("p99", Json::Num(h.quantile(0.99))),
                ]),
            ),
            ("per_alg", Json::Obj(per_alg)),
        ])
    }

    /// The Prometheus text exposition body (`--metrics-addr` scrapes):
    /// cumulative counters straight from the always-on [`ServeCounters`],
    /// instantaneous gauges, windowed rates/ratios, and latency quantiles.
    #[cfg(feature = "instrument")]
    pub fn prometheus_text(&self) -> String {
        let sample = capture_sample(&self.inner);
        let mut window = self.inner.telemetry.window.lock().unwrap();
        window.push(sample);
        let latest = window.latest().cloned().unwrap_or_default();
        let counter = |name: &str| latest.counters.get(name).copied().unwrap_or(0) as f64;
        let gauge = |name: &str| window.gauge(name).unwrap_or(0.0);
        let h = &self.inner.telemetry.latency_ms;
        let latency_count: u64 = h.counts().iter().sum();
        let mut p = Prom::new();
        p.header("pobp_serve_up", "gauge", "1 while the daemon answers scrapes.")
            .sample("pobp_serve_up", &[], 1.0);
        p.header("pobp_serve_uptime_seconds", "gauge", "Seconds since the daemon started.")
            .sample(
                "pobp_serve_uptime_seconds",
                &[],
                self.inner.telemetry.started.elapsed().as_secs_f64(),
            );
        p.header("pobp_serve_jobs_accepted_total", "counter", "Admitted submissions.")
            .sample("pobp_serve_jobs_accepted_total", &[], counter("accepted"));
        p.header("pobp_serve_jobs_rejected_total", "counter", "Rejected submissions.")
            .sample("pobp_serve_jobs_rejected_total", &[], counter("rejected"));
        p.header(
            "pobp_serve_cache_hits_total",
            "counter",
            "Submissions answered from an equal-keyed finished job.",
        )
        .sample("pobp_serve_cache_hits_total", &[], counter("cache_hits"));
        p.header(
            "pobp_serve_jobs_finished_total",
            "counter",
            "Jobs reaching a terminal status, by status.",
        );
        for status in ["done", "degraded", "failed", "cancelled"] {
            p.sample("pobp_serve_jobs_finished_total", &[("status", status)], counter(status));
        }
        p.header(
            "pobp_serve_jobs_done_by_alg_total",
            "counter",
            "Jobs finished done or degraded, by algorithm.",
        );
        for (alg, n) in self.inner.telemetry.per_alg_done.lock().unwrap().iter() {
            p.sample("pobp_serve_jobs_done_by_alg_total", &[("alg", alg)], *n as f64);
        }
        p.header("pobp_serve_queue_depth", "gauge", "Jobs currently queued.")
            .sample("pobp_serve_queue_depth", &[], gauge("queued"));
        p.header("pobp_serve_queue_cap", "gauge", "Admission bound on queued jobs.")
            .sample("pobp_serve_queue_cap", &[], self.inner.cfg.queue_cap as f64);
        p.header("pobp_serve_running", "gauge", "Jobs currently running.")
            .sample("pobp_serve_running", &[], gauge("running"));
        p.header("pobp_serve_jobs", "gauge", "Jobs in the registry.")
            .sample("pobp_serve_jobs", &[], gauge("jobs"));
        p.header("pobp_serve_journal_bytes", "gauge", "Size of the journal file.")
            .sample("pobp_serve_journal_bytes", &[], gauge("journal_bytes"));
        p.header(
            "pobp_serve_journal_poisoned",
            "gauge",
            "1 while the journal refuses appends after an IO failure.",
        )
        .sample("pobp_serve_journal_poisoned", &[], gauge("journal_poisoned"));
        p.header(
            "pobp_serve_accepted_per_second",
            "gauge",
            "Admissions per second over the sample window.",
        )
        .sample("pobp_serve_accepted_per_second", &[], window.rate("accepted").unwrap_or(0.0));
        p.header(
            "pobp_serve_finished_per_second",
            "gauge",
            "Terminal jobs per second over the sample window.",
        )
        .sample("pobp_serve_finished_per_second", &[], window.rate("finished").unwrap_or(0.0));
        p.header(
            "pobp_serve_cache_hit_ratio",
            "gauge",
            "Cache hits per admission over the sample window (NaN when idle).",
        )
        .sample(
            "pobp_serve_cache_hit_ratio",
            &[],
            window.ratio("cache_hits", "accepted").unwrap_or(f64::NAN),
        );
        p.header(
            "pobp_serve_degrade_ratio",
            "gauge",
            "Degraded finishes per terminal job over the sample window (NaN when idle).",
        )
        .sample(
            "pobp_serve_degrade_ratio",
            &[],
            window.ratio("degraded", "finished").unwrap_or(f64::NAN),
        );
        p.header(
            "pobp_serve_job_latency_ms",
            "gauge",
            "Job wall-clock latency quantiles in milliseconds.",
        );
        for (label, q) in [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)] {
            p.sample("pobp_serve_job_latency_ms", &[("quantile", label)], h.quantile(q));
        }
        p.header("pobp_serve_job_latency_count", "counter", "Jobs measured for latency.")
            .sample("pobp_serve_job_latency_count", &[], latency_count as f64);
        p.finish()
    }

    /// Writes the flight-recorder ring as Chrome-trace JSON into the
    /// configured `--flight-dir` and returns the path, or `Ok(None)` when
    /// no flight directory is configured.
    #[cfg(feature = "instrument")]
    pub fn dump_flight(&self, reason: &str) -> io::Result<Option<PathBuf>> {
        dump_flight_to_dir(&self.inner, reason)
    }

    /// Blocks until no job is queued or running, or `timeout` elapses.
    /// Returns whether the daemon quiesced.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let state = self.inner.state.lock().unwrap();
                if state.queued == 0 && state.running.is_empty() {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops the daemon. `drain: true` finishes every queued job first;
    /// `drain: false` cancels running engines and leaves the rest of the
    /// queue journalled as queued (a restart re-runs it). Joins the worker
    /// pool and writes a final snapshot. Idempotent and blocking: the first
    /// caller's `drain` wins, concurrent callers wait until the sequence
    /// has finished, and by the time any `stop` returns the final snapshot
    /// is on disk and the journal will not be touched again.
    pub fn stop(&self, drain: bool) {
        self.stop_once.call_once(|| {
            self.inner.drain.store(drain, Ordering::Release);
            self.inner.stopping.store(true, Ordering::Release);
            if !drain {
                // Non-blocking cancel signal; the workers observe it at the
                // next task boundary and journal the cancelled outcome
                // themselves.
                let state = self.inner.state.lock().unwrap();
                for engine in state.running.values() {
                    engine.cancel_all();
                }
            }
            self.inner.work_ready.notify_all();
            let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
            for h in handles {
                let _ = h.join();
            }
            let mut state = self.inner.state.lock().unwrap();
            let State { registry, journal, .. } = &mut *state;
            if let Err(e) = journal.compact(registry) {
                eprintln!("serve: final snapshot failed: {e}");
            }
        });
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.inner.stopping.load(Ordering::Acquire) {
            self.stop(false);
        }
    }
}

/// One timestamped capture of the always-on counters and gauges, for the
/// sampler thread and on-demand `metrics`/scrape reads.
#[cfg(feature = "instrument")]
fn capture_sample(inner: &Inner) -> Sample {
    let state = inner.state.lock().unwrap();
    let c = state.counters;
    let finished = c.done + c.degraded + c.failed + c.cancelled;
    Sample::at(inner.telemetry.started.elapsed().as_millis() as u64)
        .counter("accepted", c.accepted)
        .counter("rejected", c.rejected)
        .counter("cache_hits", c.cache_hits)
        .counter("done", c.done)
        .counter("degraded", c.degraded)
        .counter("failed", c.failed)
        .counter("cancelled", c.cancelled)
        .counter("requeued", c.requeued)
        .counter("finished", finished)
        .counter("journal_appends", state.journal.seq())
        .gauge("queued", state.queued as f64)
        .gauge("running", state.running.len() as f64)
        .gauge("jobs", state.registry.len() as f64)
        .gauge("journal_bytes", state.journal.bytes() as f64)
        .gauge("journal_poisoned", u8::from(state.journal.is_poisoned()) as f64)
}

/// The background sampler: one [`capture_sample`] per `--sample-ms` tick
/// into the window ring, until the daemon stops. Sleeps in short steps so
/// `stop` never waits a full period.
#[cfg(feature = "instrument")]
fn sampler_loop(inner: &Inner) {
    let period = Duration::from_millis(inner.cfg.telemetry.sample_ms.max(10));
    loop {
        if inner.stopping.load(Ordering::Acquire) {
            return;
        }
        let sample = capture_sample(inner);
        inner.telemetry.window.lock().unwrap().push(sample);
        let mut slept = Duration::ZERO;
        while slept < period {
            if inner.stopping.load(Ordering::Acquire) {
                return;
            }
            let step = Duration::from_millis(20).min(period - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

/// Creates the flight directory if missing and returns the number of the
/// next dump: one past the highest `flight-NNNNN-*` already there, so a
/// restarted daemon numbers after its predecessors instead of overwriting
/// their dumps.
#[cfg(feature = "instrument")]
fn open_flight_dir(dir: &std::path::Path) -> io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut next = 0;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let taken = name
            .to_str()
            .and_then(|n| n.strip_prefix("flight-")?.split('-').next()?.parse::<u64>().ok());
        if let Some(n) = taken {
            next = next.max(n.saturating_add(1));
        }
    }
    Ok(next)
}

/// Writes the flight ring to `--flight-dir` as
/// `flight-NNNNN-<reason>.json`; `Ok(None)` when no directory is
/// configured.
#[cfg(feature = "instrument")]
fn dump_flight_to_dir(inner: &Inner, reason: &str) -> io::Result<Option<PathBuf>> {
    let Some(dir) = &inner.cfg.telemetry.flight_dir else { return Ok(None) };
    std::fs::create_dir_all(dir)?;
    let n = inner.telemetry.flight_seq.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flight-{n:05}-{reason}.json"));
    std::fs::write(&path, pobp_core::flight::dump_json())?;
    Ok(Some(path))
}

/// Automatic flight dump on a failure trigger (panicked task, failed
/// certificate, poisoned journal): best-effort, a note on stderr either
/// way, never an error to the caller.
#[cfg(feature = "instrument")]
fn flight_on_failure(inner: &Inner, reason: &str) {
    match dump_flight_to_dir(inner, reason) {
        Ok(Some(path)) => eprintln!("serve: flight dump ({reason}) written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("serve: flight dump ({reason}) failed: {e}"),
    }
}

/// One worker: claim highest-priority queued job → journal `Start` → run it
/// on a fresh engine sharing the daemon cache → journal `Finish`.
fn worker_loop(inner: &Inner) {
    loop {
        let mut state = inner.state.lock().unwrap();
        let id = loop {
            let mut claimed = None;
            while let Some(entry) = state.queue.pop() {
                // Jobs cancelled while queued keep their (stale) heap entry;
                // this status re-check is what guarantees they never reach
                // an engine.
                if state.registry.get(entry.id).map(|j| j.status) == Some(JobStatus::Queued) {
                    claimed = Some(entry.id);
                    break;
                }
            }
            if let Some(id) = claimed {
                break id;
            }
            if inner.stopping.load(Ordering::Acquire) {
                return;
            }
            state = inner.work_ready.wait(state).unwrap();
        };
        // Cancel-mode stop: put the claim back and exit; the final snapshot
        // persists it as queued for the next daemon.
        if inner.stopping.load(Ordering::Acquire) && !inner.drain.load(Ordering::Acquire) {
            let priority = state.registry.get(id).map_or(0, |j| j.spec.priority);
            state.queue.push(QueueEntry { priority, id });
            return;
        }
        let spec = state.registry.get(id).expect("claimed job exists").spec.clone();
        let start = Event::Start { id };
        if let Err(e) = inner.append(&mut state.journal, &start) {
            eprintln!("serve: journal append failed on start({id}): {e}");
        }
        state.registry.apply(&start);
        state.queued = state.queued.saturating_sub(1);
        let engine = Arc::new(Engine::with_shared_cache(
            EngineConfig {
                // A job is a one-task batch: `workers` is the daemon's
                // parallelism.
                threads: 1,
                deadline: spec.deadline_ms.map(Duration::from_millis),
                degrade: inner.cfg.degrade,
                // The daemon's fault plan covers the engines too, not just
                // the journal: solver-side sites (panic, corrupt-ref, …)
                // fire per task key inside jobs, which is how the CI
                // flight-recorder drill forces a CertFailed through the
                // daemon.
                #[cfg(feature = "chaos")]
                chaos: inner.cfg.chaos.clone(),
                ..EngineConfig::default()
            },
            Arc::clone(&inner.cache),
        ));
        state.running.insert(id, Arc::clone(&engine));
        drop(state);
        trace_event!("serve.claim", id);
        let task = spec.task();
        #[cfg(feature = "instrument")]
        let job_started = Instant::now();
        let report = obs_span!("serve.job", engine.run_batch(std::slice::from_ref(&task)));
        let task_report = report.reports.into_iter().next().expect("batch of one");
        #[cfg(feature = "instrument")]
        {
            inner.telemetry.latency_ms.record(job_started.elapsed().as_millis() as u64);
            // Post-mortem triggers: bound the damage story to a file the
            // moment an engine reports a panic or a failed certificate.
            match &task_report.result {
                TaskResult::CertFailed { .. } => flight_on_failure(inner, "cert-failed"),
                TaskResult::Panicked { .. } => flight_on_failure(inner, "panic"),
                _ => {}
            }
        }
        let result = task_result_json(&task_report);
        let key = spec.content_key();
        let mut state = inner.state.lock().unwrap();
        state.running.remove(&id);
        let finish = Event::Finish { id, result };
        if let Err(e) = inner.append(&mut state.journal, &finish) {
            eprintln!("serve: journal append failed on finish({id}): {e}");
        }
        state.registry.apply(&finish);
        let status = state.registry.get(id).expect("finished job exists").status;
        match status {
            JobStatus::Done => {
                state.counters.done += 1;
                obs_count!("serve.jobs.done");
            }
            JobStatus::Degraded => {
                state.counters.degraded += 1;
                obs_count!("serve.jobs.degraded");
            }
            JobStatus::Cancelled => {
                state.counters.cancelled += 1;
                obs_count!("serve.jobs.cancelled");
            }
            _ => {
                state.counters.failed += 1;
                obs_count!("serve.jobs.failed");
            }
        }
        #[cfg(feature = "instrument")]
        if matches!(status, JobStatus::Done | JobStatus::Degraded) {
            *inner.telemetry.per_alg_done.lock().unwrap().entry(spec.alg.name()).or_insert(0) += 1;
        }
        if matches!(status, JobStatus::Done | JobStatus::Degraded)
            && spec.alg != Algo::PanicForTest
        {
            state.key_index.entry(key).or_insert(id);
        }
        trace_event!("serve.finish", id);
        let State { registry, journal, .. } = &mut *state;
        if let Err(e) = journal.maybe_compact(registry) {
            eprintln!("serve: compaction failed: {e}");
        }
    }
}

/// The result object journalled and served for a finished task.
///
/// Contains only values that are a pure function of the task (the engine's
/// determinism contract), so re-running the same spec — any thread count,
/// any restart — reproduces it byte-identically. `certified` is `true`
/// exactly for the statuses whose output passed the engine's certification
/// trust boundary.
pub fn task_result_json(report: &TaskReport) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("status".into(), Json::Str(report.result.status().into())),
        ("attempts".into(), Json::Num(report.attempts as f64)),
        (
            "certified".into(),
            Json::Bool(matches!(
                report.result,
                TaskResult::Done(_) | TaskResult::Degraded { .. }
            )),
        ),
    ];
    match &report.result {
        TaskResult::Degraded { fallback, cause, .. } => {
            pairs.push(("fallback".into(), Json::Str(fallback.name().into())));
            pairs.push(("cause".into(), Json::Str(cause.name().into())));
        }
        TaskResult::CertFailed { stage, reason } => {
            pairs.push(("stage".into(), Json::Str(format!("{stage:?}"))));
            pairs.push(("reason".into(), Json::Str(reason.clone())));
        }
        TaskResult::Panicked { message } => {
            pairs.push(("message".into(), Json::Str(message.clone())));
        }
        _ => {}
    }
    if let Some(out) = report.result.output() {
        pairs.push(("alg_value".into(), Json::Num(out.alg_value)));
        pairs.push(("ref_value".into(), Json::Num(out.ref_value)));
        if let Some(price) = out.price() {
            pairs.push(("price".into(), Json::Num(price)));
        }
        pairs.push(("scheduled".into(), Json::Num(out.scheduled as f64)));
        pairs.push(("preemptions".into(), Json::Num(out.preemptions as f64)));
    }
    Json::Obj(pairs)
}
