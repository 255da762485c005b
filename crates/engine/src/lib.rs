//! # pobp-engine — deterministic parallel batch solving
//!
//! A std-only work-stealing worker-pool engine (no external dependencies;
//! `std::thread` + atomics + mutexes) that fans a batch of solver tasks
//! across N workers — per-worker run queues fed by a chunked global
//! injector, randomized-victim stealing when a queue drains — and returns
//! results **in deterministic input order** regardless of thread count,
//! steal order, or completion order. It is the harness layer under
//! `pobp sweep` and the `experiments --threads N` binary; see
//! `docs/engine.md` for the full contract.
//!
//! Robustness is first-class (`docs/robustness.md`):
//!
//! * every task runs under `catch_unwind`, so a panicking solver yields a
//!   [`TaskResult::Panicked`] record instead of killing the sweep;
//! * tasks carry an optional wall-clock deadline enforced cooperatively:
//!   [`cancel`]'s stage-boundary yield points compare it against the clock
//!   (no watchdog thread exists), so an overrun or an
//!   [`Engine::cancel_all`] is observed at the task's next boundary;
//! * panicking attempts get bounded retry with exponential backoff as a
//!   not-before requeue (the worker never sleeps out a backoff), with
//!   attempt accounting in each [`TaskReport`];
//! * a content-addressed [`cache`] shares the expensive unbounded-reference
//!   side (`OPT_∞`) across every `k` of a grid; every task still makes its
//!   own attempt;
//! * every emitted output — solved or fallback — passed the [`cert`] trust
//!   boundary (schedule and reference re-verified, values recomputed); a
//!   mismatch is a structured [`TaskResult::CertFailed`], never a wrong row;
//! * with [`EngineConfig::degrade`] on, tasks that exhaust retries or blow
//!   their deadline fall back to the polynomial `LSA_CS`/`k = 0` algorithm
//!   and report [`TaskResult::Degraded`] (still certified);
//! * engines that solve the same instances can share one reference cache
//!   via [`Engine::with_shared_cache`], and a long-lived owner stops a
//!   running batch with [`Engine::cancel_all`] (the `pobp serve` daemon
//!   cancels a running job this way; each of its jobs runs on an
//!   [`Engine::new`] engine);
//! * a seeded [`chaos::FaultPlan`] armed through [`EngineConfig::chaos`]
//!   injects panics, delays, spurious cancellations, forced deadlines, and
//!   reference-cache corruption at named sites, deterministically per
//!   task — chaos runs replay byte-identically across thread counts. The
//!   injection code is in every build; with no plan armed each site is one
//!   `Option` test and no output changes.
//!
//! With the `instrument` cargo feature the engine emits the `engine.*`
//! counter families (tasks run/panicked/timed-out/retried, certification
//! verdicts, chaos injections, degradations, injector/local queue depth,
//! steal attempts and hits, per-worker busy time); see
//! `docs/observability.md`.
//!
//! ## Quickstart
//!
//! ```
//! use pobp_engine::{Algo, EngineConfig, GridSpec, TaskResult, run_batch};
//!
//! // A 2×2×2 grid of reduction solves, 2 worker threads.
//! let grid = GridSpec::new(vec![6, 8], vec![1, 2], vec![0, 1], Algo::Reduction);
//! let cfg = EngineConfig { threads: 2, ..EngineConfig::default() };
//! let batch = run_batch(&grid.tasks(), cfg);
//! assert_eq!(batch.reports.len(), 8);
//! for (i, r) in batch.reports.iter().enumerate() {
//!     assert_eq!(r.index, i); // input order, always
//!     assert!(matches!(r.result, TaskResult::Done(_)));
//! }
//! // The terminal kinds partition the batch.
//! let s = batch.stats;
//! assert_eq!(
//!     s.run + s.degraded + s.cert_failed + s.panicked + s.timed_out + s.cancelled,
//!     s.tasks
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cancel;
pub mod cert;
pub mod chaos;
mod exec;
pub mod grid;
pub mod io;
pub mod lab;
pub mod pool;
mod solve;
pub mod task;

pub use cache::{instance_hash, splitmix64, task_key, task_key_with, RefSolution, ResultCache};
pub use io::IoGuard;
pub use cancel::{CancelToken, StopReason, TaskCtx};
pub use cert::{CertFailure, CertStage};
pub use chaos::{FaultPlan, FaultSite};
pub use grid::GridSpec;
pub use lab::{LabRow, OnlineLab};
pub use pool::{run_batch, BatchReport, Engine, EngineConfig, EngineStats};
pub use task::{Algo, DegradeCause, SolveOutput, SolveTask, TaskReport, TaskResult};
