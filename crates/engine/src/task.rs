//! The engine's task model: what a solver invocation is, and every way it
//! can end.
//!
//! A [`SolveTask`] names an instance and a solving configuration; the engine
//! turns each task into exactly one [`TaskReport`] (in input order — see
//! `docs/engine.md` for the determinism contract). The failure taxonomy is
//! closed: a task either produced a certified schedule ([`TaskResult::Done`]),
//! was rescued by the polynomial fallback after its primary algorithm failed
//! ([`TaskResult::Degraded`], still certified), failed the certification
//! trust boundary ([`TaskResult::CertFailed`]), panicked on every attempt
//! ([`TaskResult::Panicked`]), overran its wall-clock deadline
//! ([`TaskResult::TimedOut`]), or was cancelled with the batch
//! ([`TaskResult::Cancelled`]). See `docs/robustness.md`.

use pobp_core::JobSet;

use crate::cert::{CertFailure, CertStage};

/// Which algorithm of the workspace a task runs. All variants produce a
/// feasible `k`-bounded schedule of (a subset of) the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Theorem 4.2: unbounded reference schedule → `k`-bounded reduction.
    Reduction,
    /// Algorithm 3 (`k-PreemptionCombined`): better of the strict-branch
    /// reduction and the lax-branch `LSA_CS`.
    Combined,
    /// Algorithm 2 (`LSA_CS`): classify-and-select + leftmost scheduling.
    LsaCs,
    /// The §5 non-preemptive (`k = 0`) algorithm.
    K0,
    /// Online arrival mode (`pobp_sim::online`, single machine only): the
    /// DJN-style doubling-threshold rule under the per-job budget.
    OnlineDjn,
    /// Online arrival mode: commit to the most valuable feasible job and
    /// never preempt (the non-preemptive online baseline).
    OnlineGreedy,
    /// Online arrival mode: earliest-deadline-first with the budget
    /// enforced (preemptions blocked once a job's budget is spent).
    OnlineEdf,
    /// Panics immediately. Exists so tests, the determinism property test,
    /// and CI smoke runs can exercise the engine's panic isolation without
    /// corrupting a real solver; never use it for actual measurements.
    PanicForTest,
}

impl Algo {
    /// The stable lowercase name used by CLIs and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Reduction => "reduction",
            Algo::Combined => "combined",
            Algo::LsaCs => "lsa",
            Algo::K0 => "k0",
            Algo::OnlineDjn => "online-djn",
            Algo::OnlineGreedy => "online-greedy",
            Algo::OnlineEdf => "online-edf",
            Algo::PanicForTest => "panic",
        }
    }

    /// Parses [`Algo::name`] back into a variant.
    pub fn parse(s: &str) -> Option<Algo> {
        match s {
            "reduction" => Some(Algo::Reduction),
            "combined" => Some(Algo::Combined),
            "lsa" => Some(Algo::LsaCs),
            "k0" => Some(Algo::K0),
            "online-djn" => Some(Algo::OnlineDjn),
            "online-greedy" => Some(Algo::OnlineGreedy),
            "online-edf" => Some(Algo::OnlineEdf),
            "panic" => Some(Algo::PanicForTest),
            _ => None,
        }
    }

    /// Whether this is an online-arrival algorithm (`pobp_sim::online`).
    /// Online tasks are single-machine and degrade to [`Algo::OnlineGreedy`]
    /// (never to an offline algorithm — a degraded row must stay an online
    /// measurement).
    pub fn is_online(self) -> bool {
        matches!(self, Algo::OnlineDjn | Algo::OnlineGreedy | Algo::OnlineEdf)
    }
}

/// One solver invocation: an instance plus the solving parameters.
#[derive(Clone, Debug)]
pub struct SolveTask {
    /// The job set to schedule.
    pub instance: JobSet,
    /// Preemption budget `k` (ignored by [`Algo::K0`], which is `k = 0`).
    pub k: u32,
    /// Number of machines; `1` runs the single-machine algorithm directly,
    /// `> 1` wraps it in the §4.3.4 iterative extension.
    pub machines: usize,
    /// The algorithm to run.
    pub algo: Algo,
    /// Whether the unbounded reference `OPT_∞` is computed exactly
    /// (branch-and-bound, instance must stay within
    /// `pobp_sched::OPT_UNBOUNDED_LIMIT` jobs) instead of by the greedy EDF
    /// baseline. The reference is the expensive, cacheable side of a task;
    /// see [`crate::cache`].
    pub exact_ref: bool,
    /// Free-form tag echoed verbatim in the [`TaskReport`] (e.g.
    /// `"n=14 k=2 seed=3"`). Not interpreted by the engine.
    pub label: String,
}

impl SolveTask {
    /// A single-machine task with a greedy reference and an empty label.
    pub fn new(instance: JobSet, k: u32, algo: Algo) -> Self {
        SolveTask { instance, k, machines: 1, algo, exact_ref: false, label: String::new() }
    }
}

/// The measured outcome of a successful solve.
///
/// Deliberately contains **only values that are a pure function of the
/// task** — no wall-clock durations, no cache-hit flags — so that reports
/// are byte-identical across thread counts and cache states (the
/// determinism contract of `docs/engine.md`). Timing lives in the obs layer
/// and cache accounting in [`crate::pool::EngineStats`].
#[derive(Clone, Debug, PartialEq)]
pub struct SolveOutput {
    /// Value of the `k`-bounded schedule the algorithm produced.
    pub alg_value: f64,
    /// Value of the unbounded reference (`OPT_∞` exact, or greedy-EDF).
    pub ref_value: f64,
    /// Number of jobs the algorithm scheduled.
    pub scheduled: usize,
    /// Total preemptions across scheduled jobs (`Σ (segments − 1)`).
    pub preemptions: usize,
    /// For [`Algo::Combined`] on one machine: `(strict, lax)` branch values.
    pub branch_values: Option<(f64, f64)>,
}

impl SolveOutput {
    /// `ref_value / alg_value` — the empirical price of bounded preemption
    /// this task measured. `None` when the algorithm scheduled nothing.
    pub fn price(&self) -> Option<f64> {
        (self.alg_value > 0.0).then(|| self.ref_value / self.alg_value)
    }
}

/// Why the engine fell back to the polynomial algorithm for a task
/// (the graceful-degradation ladder — `docs/robustness.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeCause {
    /// The primary algorithm overran its wall-clock deadline.
    DeadlineExceeded,
    /// The primary algorithm panicked on every attempt.
    RetriesExhausted,
}

impl DegradeCause {
    /// The stable lowercase name used by CLIs and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            DegradeCause::DeadlineExceeded => "deadline",
            DegradeCause::RetriesExhausted => "retries",
        }
    }
}

/// Terminal state of one task. See the module docs for the taxonomy.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskResult {
    /// The solve completed and its schedule passed certification
    /// ([`crate::cert`]).
    Done(SolveOutput),
    /// The primary algorithm failed (deadline or retry exhaustion) and the
    /// polynomial fallback rescued the task. The output is certified like
    /// any `Done` result, but measures `fallback`, not the task's
    /// requested algorithm.
    Degraded {
        /// The polynomial algorithm that produced the output.
        fallback: Algo,
        /// Why the primary algorithm was abandoned.
        cause: DegradeCause,
        /// The fallback's certified output.
        output: SolveOutput,
    },
    /// The result failed the certification trust boundary: its schedule or
    /// claimed values did not survive independent re-checking. No output is
    /// released.
    CertFailed {
        /// The certification check that caught it.
        stage: CertStage,
        /// What mismatched (claimed vs recomputed quantities).
        reason: String,
    },
    /// Every attempt panicked; the payload of the last panic is captured.
    Panicked {
        /// The panic message (`&str`/`String` payloads; otherwise a
        /// placeholder naming the payload type as opaque).
        message: String,
    },
    /// The task's wall-clock deadline elapsed before a solve completed.
    TimedOut,
    /// The batch was cancelled before the task produced a result.
    Cancelled,
}

impl TaskResult {
    /// The stable lowercase status name used by CLIs and JSON output.
    pub fn status(&self) -> &'static str {
        match self {
            TaskResult::Done(_) => "ok",
            TaskResult::Degraded { .. } => "degraded",
            TaskResult::CertFailed { .. } => "cert_failed",
            TaskResult::Panicked { .. } => "panicked",
            TaskResult::TimedOut => "timed_out",
            TaskResult::Cancelled => "cancelled",
        }
    }

    /// The certified output of a successful task — `Done`'s output or a
    /// `Degraded` task's fallback output.
    pub fn output(&self) -> Option<&SolveOutput> {
        match self {
            TaskResult::Done(out) | TaskResult::Degraded { output: out, .. } => Some(out),
            _ => None,
        }
    }
}

impl From<CertFailure> for TaskResult {
    fn from(f: CertFailure) -> Self {
        TaskResult::CertFailed { stage: f.stage, reason: f.reason }
    }
}

/// One task's report: its input position, label, attempt count, and result.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskReport {
    /// Position of the task in the input batch (reports are returned sorted
    /// by this, so `reports[i].index == i` always holds).
    pub index: usize,
    /// The task's label, echoed verbatim.
    pub label: String,
    /// Number of solve attempts made: 1 + retries actually used.
    pub attempts: u32,
    /// The terminal result.
    pub result: TaskResult,
}
