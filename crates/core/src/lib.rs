//! # pobp-core — scheduling substrate for *The Price of Bounded Preemption*
//!
//! The data model shared by every crate in the `pobp` workspace:
//!
//! * [`Time`] / [`Interval`] — integer ticks and half-open intervals, with
//!   the segment-precedence relation of §2.2 of the paper;
//! * [`SegmentSet`] — normalized disjoint segment sets (job schedules, busy
//!   timelines, idle complements);
//! * [`Job`] / [`JobSet`] — jobs `⟨r_j, d_j, p_j⟩` with values, laxity
//!   (Definition 4.4), density, and the strict/lax split of Algorithm 3;
//! * [`Schedule`] — per-job machine assignments with a complete checker for
//!   Definition 2.1 (window containment, exact lengths, machine
//!   disjointness, the `k`-preemption bound);
//! * [`Timeline`] — busy/idle bookkeeping for the constructive algorithms.
//!
//! Everything is exact integer arithmetic; feasibility is a decidable
//! predicate with no epsilons ([`Schedule::verify`]).
//!
//! The crate also exports the workspace's instrumentation (see
//! `docs/observability.md`), all of it in every build and armed at run
//! time. The [`trace`] recorder ([`obs_span!`] and [`trace_event!`]), with
//! its full record and [`flight`] ring, costs one relaxed load per event
//! while no sink is armed. The [`obs`] aggregate (the [`obs_count!`],
//! [`obs_time!`], and [`obs_event!`] macros) costs one relaxed load per
//! site while no [`obs::arm`] guard lives (`--obs` holds one); then the
//! counters evaluate nothing and `obs_time!` keeps only its trace span.
//! The [`metrics`] Prometheus exposition, which the daemon's live
//! telemetry renders, needs no arming.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod trace;

mod job;
mod render;
mod schedule;
mod segs;
mod stats;
mod svg;
mod time;
mod timeline;

pub use job::{Job, JobError, JobId, JobSet, Value};
pub use render::{render_gantt, render_timeline, RenderOptions};
pub use schedule::{Assignment, Infeasibility, MachineId, Schedule};
pub use segs::SegmentSet;
pub use stats::{schedule_stats, schedule_totals, window_load, ScheduleStats, ScheduleTotals};
pub use svg::{render_svg, SvgOptions};
pub use time::{Interval, Time};
pub use timeline::Timeline;
