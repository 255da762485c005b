//! # pobp-instances — workloads for *The Price of Bounded Preemption*
//!
//! The paper's lower-bound constructions as runnable instance generators,
//! plus seeded random workloads:
//!
//! * [`Fig2Instance`] — §5 geometric nesting (`PoBP_0 = Ω(min{n, log P})`);
//! * [`Fig4Instance`] — Appendix B nested K-ary jobs
//!   (`PoBP_k = Ω(log_{k+1} n) = Ω(log_{k+1} P)`);
//! * [`LowerBoundTree`] (re-export) — Appendix A adversarial k-BAS tree;
//! * [`TaskSet`] — periodic real-time task sets unrolled into job instances
//!   (the workload shape of the limited-preemption literature);
//! * [`RandomWorkload`] / [`random_forest`] — reproducible random instances;
//! * [`zoo_instance`] / [`ZooFamily`] — the instance **zoo**: every family
//!   above behind one `(family, n, k, seed)` axis, for cross-cutting
//!   sweeps like `pobp online` and experiment E13;
//! * [`write_jobs`] / [`parse_jobs`] — plain-text instance round-tripping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod fig2;
mod fig4;
mod periodic;
mod random;
mod textio;
mod zoo;

pub use adversarial::{bursty_workload, overlapping_block, round_robin_schedule};
pub use fig2::Fig2Instance;
pub use fig4::{fig4_size, Fig4Built, Fig4Instance};
pub use periodic::{PeriodicTask, TaskSet};
pub use pobp_forest::LowerBoundTree;
pub use random::{random_forest, LaxityModel, RandomWorkload, ValueModel};
pub use textio::{parse_jobs, parse_schedule, write_jobs, write_schedule};
pub use zoo::{check_zoo_cell, zoo_instance, CellSizeError, ZooFamily, ZOO_FAMILIES};
