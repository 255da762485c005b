//! # pobp-sim — execution simulation with context-switch costs
//!
//! The motivation of *The Price of Bounded Preemption* (§1.2) is that
//! preemption is not free: every context switch costs machine time. This
//! crate makes that price measurable:
//!
//! * [`online`] — the one online single-machine executor, with two entry
//!   points over a single decision loop:
//!   * [`execute_online`] — loading a job costs [`SimConfig::switch_cost`]
//!     ticks, under three policies: free-preemption EDF, budgeted EDF
//!     ([`Policy::EdfBudget`] — at most `k` preemptions per job, enforced
//!     online), and non-preemptive EDF;
//!   * [`run_online`] — the **online arrival mode** at zero switch cost:
//!     the DJN/greedy/EDF-budget algorithm catalogue measured against the
//!     offline `OPT_k` oracle (`pobp online`, experiment E13,
//!     `docs/online.md`);
//! * [`ExecTrace`] — the resulting event trace (starts, preemptions,
//!   resumes, aborts, overhead) with wasted-work accounting;
//! * [`switch_points`] / [`max_robust_delta`] / [`efficiency`] — offline
//!   analysis of how much switch cost an existing schedule (e.g. the output
//!   of the Theorem 4.2 reduction) absorbs;
//! * [`replay_with_overhead`] / [`choose_k`] — execute an offline plan on a
//!   δ-machine and pick the preemption budget that maximizes surviving
//!   value — the paper's theory as a sizing tool;
//! * [`execute_partitioned`] — non-migrative multi-machine online execution
//!   (least-loaded or round-robin partitions).
//!
//! The `context_switch_cost` example and experiment E12 use this crate to
//! show the crossover the paper's introduction predicts: as the switch cost
//! grows, bounding preemptions beats free preemption.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod online;
mod overhead;
mod partitioned;
mod replay;
mod trace;

pub use online::{
    djn_ratio_bound, execute_online, run_online, OnlineAlg, OnlineConfig, Policy, SimConfig,
    SimOutcome, ONLINE_ALGS,
};
pub use partitioned::{execute_partitioned, PartitionRule, PartitionedOutcome};
pub use replay::{choose_k, replay_with_overhead, KChoice, PlanChoice};
pub use overhead::{
    efficiency, is_robust, max_robust_delta, switch_count, switch_points, SwitchPoint,
};
pub use trace::{ExecEvent, ExecTrace};
