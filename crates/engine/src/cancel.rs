//! Cooperative cancellation and wall-clock deadlines.
//!
//! Solvers in this workspace are monolithic pure functions — there is no
//! safe way to interrupt one mid-run from another thread. Robustness
//! against overruns is therefore *cooperative*: the engine's task wrapper
//! checks a [`TaskCtx`] at every stage-boundary yield point (before the
//! solve, between the reference and the bounded stage, before a retry is
//! requeued), and [`TaskCtx::should_stop`] compares the task's absolute
//! deadline against the clock right there — deadline enforcement lives
//! entirely at the yield points; no watchdog thread exists. A stage that
//! is already running completes (and its result is then discarded as
//! [`TimedOut`](crate::task::TaskResult::TimedOut)); the deadline bounds
//! when a task can *start* new work, not the latency of a single stage.
//!
//! The [`CancelToken`] carries the *external* stop request: the batch
//! token that `Engine::cancel_all` flips, which is how `pobp serve` stops
//! a running job. It is observed at the same yield points. The chaos
//! `cancel` site needs no token: it expires the task's deadline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared flag that flips exactly once from "keep going" to "stop".
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a stage-boundary check told the task wrapper to stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The task's own deadline passed (the chaos `cancel` site expires it
    /// before the task starts).
    DeadlineExceeded,
    /// The batch-level token was cancelled.
    BatchCancelled,
}

/// Per-task view of the cancellation state: the batch token and the
/// absolute deadline checked at every yield point.
#[derive(Clone, Debug)]
pub struct TaskCtx {
    /// Batch-wide token (cancels every task).
    pub batch: CancelToken,
    /// Absolute wall-clock deadline, if the task has one.
    pub deadline: Option<Instant>,
    /// Chaos handle for this task (`None` when no fault plan is armed). The
    /// task wrapper consults it at the stage boundary for the forced
    /// `deadline` site; see `crate::chaos`.
    pub chaos: Option<crate::chaos::TaskChaos>,
}

impl TaskCtx {
    /// A context with no deadline and a fresh batch token (used by tests).
    pub fn unbounded() -> Self {
        TaskCtx { batch: CancelToken::new(), deadline: None, chaos: None }
    }

    /// Stage-boundary check: `Some(reason)` when the task must stop now.
    ///
    /// The deadline is consulted directly — this check *is* the deadline
    /// enforcement mechanism: an overrun is detected at the first yield
    /// point after it happens, with no watchdog involved.
    pub fn should_stop(&self) -> Option<StopReason> {
        if self.batch.is_cancelled() {
            return Some(StopReason::BatchCancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_flips_once_and_sticks() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
        // Clones share the flag.
        let u = t.clone();
        assert!(u.is_cancelled());
    }

    #[test]
    fn ctx_reports_deadline_and_batch_cancel() {
        let mut ctx = TaskCtx::unbounded();
        assert_eq!(ctx.should_stop(), None);
        ctx.deadline = Some(Instant::now() - Duration::from_millis(1));
        assert_eq!(ctx.should_stop(), Some(StopReason::DeadlineExceeded));
        ctx.deadline = None;
        ctx.batch.cancel();
        assert_eq!(ctx.should_stop(), Some(StopReason::BatchCancelled));
    }
}
