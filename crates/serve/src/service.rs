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
//! `serve.cache.hits`. That index is the daemon's only reuse: each job
//! runs on an engine of its own with a fresh reference cache, so a job
//! that misses it — a duplicate of a job still queued or running, or
//! another `k` over the same instance — computes its own reference. Fresh
//! submissions carry fresh instances, so a reference cache shared across
//! jobs would hold one entry per solved job for the daemon's life and
//! answer almost none.

use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pobp_core::{obs_count, obs_event, obs_span, trace_event};
use pobp_engine::{Algo, Engine, EngineConfig, TaskReport, TaskResult};

use crate::job::{JobSpec, JobStatus};
use crate::journal::{recovery_json, Journal, RecoveryReport, DEFAULT_COMPACT_EVERY};
use crate::json::{obj, Json};
use crate::registry::{Event, JobRecord, Registry};
use crate::telemetry::{Flight, JobRuns, TelemetryOptions};

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
    pub chaos: Option<Arc<pobp_engine::FaultPlan>>,
    /// Live-telemetry knobs: scrape address and flight-dump directory
    /// (docs/observability.md).
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
            chaos: None,
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

/// Always-on service counters (plain fields under the state lock, so tests
/// can assert on them without arming the obs aggregate; the `serve.*` obs
/// family mirrors them while `--obs` arms it).
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
    /// Connections the front end accepted and served.
    pub connections_accepted: u64,
    /// Connections open now: a level, not a running total.
    pub connections_open: u64,
    /// Connections answered `overloaded` and closed because
    /// [`MAX_CONNECTIONS`](crate::server::MAX_CONNECTIONS) were open.
    pub connections_overloaded: u64,
    /// Connections closed after sitting idle for
    /// [`IDLE_LIMIT`](crate::server::IDLE_LIMIT).
    pub connections_idle_closed: u64,
    /// Request lines answered `line_too_long` (their connections closed)
    /// for running past
    /// [`MAX_REQUEST_LINE`](crate::server::MAX_REQUEST_LINE).
    pub lines_too_long: u64,
}

/// One reading of the daemon's state, taken under the state lock: the one
/// source the `stats` op and a Prometheus scrape render, in every build.
/// It holds cumulative counters and levels only (the engine runs' latency
/// histogram and per-algorithm counts among them); a reader derives rates
/// over its own interval.
pub(crate) struct Reading {
    /// The always-on service counters.
    pub(crate) counters: ServeCounters,
    /// Jobs in the registry.
    pub(crate) jobs: usize,
    /// Jobs in [`JobStatus::Queued`].
    pub(crate) queued: usize,
    /// Jobs on an engine.
    pub(crate) running: usize,
    /// The admission bound on `queued`.
    pub(crate) queue_cap: usize,
    /// Sequence number of the last journal record: the journal's appends.
    pub(crate) journal_seq: u64,
    /// Snapshot compactions since the daemon started.
    pub(crate) compactions: u64,
    /// Size of the journal file.
    pub(crate) journal_bytes: u64,
    /// Whether a failed append has poisoned the journal.
    pub(crate) journal_poisoned: bool,
    /// What recovery found at startup.
    pub(crate) recovery: RecoveryReport,
    /// Time since the daemon started.
    pub(crate) uptime: Duration,
    /// The engine runs of this daemon's finished jobs.
    pub(crate) runs: JobRuns,
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
    runs: JobRuns,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    work_ready: Condvar,
    stopping: AtomicBool,
    drain: AtomicBool,
    /// Monotone epoch for uptime.
    started: Instant,
    /// The flight directory, if one is configured.
    flight: Option<Flight>,
}

impl Inner {
    /// Appends `event` to the journal. A failed append poisons the journal,
    /// so it also dumps the flight ring that led to it.
    fn append(&self, journal: &mut Journal, event: &Event) -> io::Result<u64> {
        let appended = journal.append(event);
        if appended.is_err() {
            self.on_failure("journal-poisoned");
        }
        appended
    }

    /// Dumps the flight ring on a failure trigger, if a flight directory is
    /// configured.
    fn on_failure(&self, reason: &str) {
        if let Some(flight) = &self.flight {
            flight.on_failure(reason);
        }
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
    /// Recovers the registry from `cfg.dir` and starts the worker pool. A
    /// flight directory is opened first, so an unusable one stops it before
    /// recovery.
    pub fn start(cfg: ServiceConfig) -> io::Result<Service> {
        let flight = cfg.telemetry.flight_dir.as_deref().map(Flight::open).transpose()?;
        let (mut journal, mut registry, recovery) = Journal::open(&cfg.dir, cfg.compact_every)?;
        // Arm IO fault injection after recovery: recovery itself is
        // read-only, and the startup compaction must succeed so the
        // injected faults land on a known-clean journal.
        if let Some(plan) = cfg.chaos.clone() {
            let key = cfg
                .dir
                .to_string_lossy()
                .bytes()
                .fold(0x6a6f_7572_6e61_6c30_u64, |h, b| pobp_engine::splitmix64(h ^ u64::from(b)));
            journal.set_chaos(plan, key);
        }
        let pending = registry.recover_pending();
        let mut queue = BinaryHeap::new();
        let mut key_index = HashMap::new();
        for job in registry.iter() {
            if matches!(job.status, JobStatus::Done | JobStatus::Degraded)
                && job.result.is_some()
                && job.spec.alg != Algo::PanicForTest
            {
                key_index.entry(job.key).or_insert(job.id);
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
            state: Mutex::new(State {
                registry,
                journal,
                queue,
                queued,
                running: HashMap::new(),
                key_index,
                counters,
                recovery,
                runs: JobRuns::new(),
            }),
            work_ready: Condvar::new(),
            stopping: AtomicBool::new(false),
            drain: AtomicBool::new(true),
            started: Instant::now(),
            flight,
        });
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pobp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Ok(Service { inner, workers: Mutex::new(workers), stop_once: std::sync::Once::new() })
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
            self.inner.append(&mut state.journal, &Event::Submit { id, spec: spec.clone() })?;
            state.registry.submit(id, spec, key);
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
        self.inner.append(&mut state.journal, &Event::Submit { id, spec: spec.clone() })?;
        state.registry.submit(id, spec, key);
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

    /// Takes one of `cap` connection places for a connection the front end
    /// accepted, or counts it `overloaded` and returns `false` when all are
    /// taken. A taken place is given back by [`Service::close_connection`].
    pub(crate) fn open_connection(&self, cap: u64) -> bool {
        let mut state = self.inner.state.lock().unwrap();
        let c = &mut state.counters;
        if c.connections_open >= cap {
            c.connections_overloaded += 1;
            return false;
        }
        c.connections_accepted += 1;
        c.connections_open += 1;
        true
    }

    /// Gives back the place of a connection that closed.
    pub(crate) fn close_connection(&self) {
        // Runs in a drop, also while a panicking connection thread unwinds:
        // a poisoned lock must not turn that into an abort, and one counter
        // decrement leaves the state as valid as it found it.
        let mut state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.counters.connections_open -= 1;
    }

    /// Applies `f` to the always-on counters, under the state lock.
    pub(crate) fn count(&self, f: impl FnOnce(&mut ServeCounters)) {
        f(&mut self.inner.state.lock().unwrap().counters);
    }

    /// One [`Reading`] of the daemon's state, under the state lock.
    pub(crate) fn reading(&self) -> Reading {
        let state = self.inner.state.lock().unwrap();
        Reading {
            counters: state.counters,
            jobs: state.registry.len(),
            queued: state.queued,
            running: state.running.len(),
            queue_cap: self.inner.cfg.queue_cap,
            journal_seq: state.journal.seq(),
            compactions: state.journal.compactions(),
            journal_bytes: state.journal.bytes(),
            journal_poisoned: state.journal.is_poisoned(),
            recovery: state.recovery,
            uptime: self.inner.started.elapsed(),
            runs: state.runs.clone(),
        }
    }

    /// The `stats` op payload: counters, queue/running depth, connections
    /// and the caps' refusals, journal position, size and health, what
    /// recovery found at startup, and then the live telemetry (uptime,
    /// requeued jobs, engine-run latency, per-algorithm done counts).
    pub fn stats_json(&self) -> Json {
        let r = self.reading();
        let c = r.counters;
        let num = |v: u64| Json::Num(v as f64);
        let quantiles = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)]
            .map(|(key, q)| (key, Json::Num(r.runs.latency_ms(q))));
        let per_alg = r.runs.done_by_alg.iter();
        let per_alg = per_alg.map(|(alg, n)| (alg.to_string(), obj([("done", num(*n))])));
        obj([
            ("jobs", num(r.jobs as u64)),
            ("queued", num(r.queued as u64)),
            ("running", num(r.running as u64)),
            ("queue_cap", num(r.queue_cap as u64)),
            ("accepted", num(c.accepted)),
            ("rejected", num(c.rejected)),
            ("cache_hits", num(c.cache_hits)),
            ("done", num(c.done)),
            ("degraded", num(c.degraded)),
            ("failed", num(c.failed)),
            ("cancelled", num(c.cancelled)),
            ("connections_accepted", num(c.connections_accepted)),
            ("connections_open", num(c.connections_open)),
            ("connections_overloaded", num(c.connections_overloaded)),
            ("connections_idle_closed", num(c.connections_idle_closed)),
            ("lines_too_long", num(c.lines_too_long)),
            ("journal_seq", num(r.journal_seq)),
            ("compactions", num(r.compactions)),
            ("journal_bytes", num(r.journal_bytes)),
            ("journal_poisoned", Json::Bool(r.journal_poisoned)),
            ("recovery", recovery_json(&r.recovery)),
            ("uptime_ms", num(r.uptime.as_millis() as u64)),
            ("requeued", num(c.requeued)),
            ("latency_ms", obj([("count", num(r.runs.count()))].into_iter().chain(quantiles))),
            ("per_alg", Json::Obj(per_alg.collect())),
        ])
    }

    /// Writes the flight-recorder ring as Chrome-trace JSON into the
    /// configured `--flight-dir` and returns the path, or `Ok(None)` when
    /// no flight directory is configured.
    pub fn dump_flight(&self, reason: &str) -> io::Result<Option<PathBuf>> {
        self.inner.flight.as_ref().map(|flight| flight.dump(reason)).transpose()
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

/// One worker: claim highest-priority queued job → journal `Start` → run it
/// on a fresh engine → journal `Finish`.
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
        let (spec, key) = {
            let job = state.registry.get(id).expect("claimed job exists");
            (job.spec.clone(), job.key)
        };
        let start = Event::Start { id };
        if let Err(e) = inner.append(&mut state.journal, &start) {
            eprintln!("serve: journal append failed on start({id}): {e}");
        }
        state.registry.apply(&start);
        state.queued = state.queued.saturating_sub(1);
        let engine = Arc::new(Engine::new(EngineConfig {
            // A job is a one-task batch, solved on this worker's thread:
            // `workers` is the daemon's parallelism.
            threads: 1,
            deadline: spec.deadline_ms.map(Duration::from_millis),
            degrade: inner.cfg.degrade,
            // The daemon's fault plan covers the engines too, not just the
            // journal: solver-side sites (panic, corrupt-ref, …) fire per
            // task key inside jobs, which is how the flight-dump test in
            // `tests/client_cli.rs` forces a CertFailed through the daemon.
            chaos: inner.cfg.chaos.clone(),
            ..EngineConfig::default()
        }));
        state.running.insert(id, Arc::clone(&engine));
        drop(state);
        trace_event!("serve.claim", id);
        let task = spec.task();
        let job_started = Instant::now();
        let report = obs_span!("serve.job", engine.run_batch(std::slice::from_ref(&task)));
        let ran = job_started.elapsed();
        let task_report = report.reports.into_iter().next().expect("batch of one");
        match task_report.result {
            TaskResult::CertFailed { .. } => inner.on_failure("cert-failed"),
            TaskResult::Panicked { .. } => inner.on_failure("panic"),
            _ => {}
        }
        let result = task_result_json(&task_report);
        let mut state = inner.state.lock().unwrap();
        state.running.remove(&id);
        let finish = Event::Finish { id, result };
        if let Err(e) = inner.append(&mut state.journal, &finish) {
            eprintln!("serve: journal append failed on finish({id}): {e}");
        }
        state.registry.apply(&finish);
        let status = state.registry.get(id).expect("finished job exists").status;
        state.runs.record(spec.alg, status, ran);
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
