//! # pobp — *The Price of Bounded Preemption* (Alon, Azar, Berlin; SPAA'18)
//!
//! A complete Rust implementation of the paper's algorithms and experiments:
//! real-time throughput scheduling with at most `k` preemptions per job, the
//! Bounded-Degree Ancestor-Independent Sub-Forest (k-BAS) machinery behind
//! it, the lower-bound constructions showing the bounds are tight, and exact
//! small-instance oracles for measuring the *price of bounded preemption*
//! `PoBP_k = OPT_∞ / OPT_k` empirically.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`core`] — jobs, segments, schedules, feasibility (Definition 2.1);
//! * [`forest`] — k-BAS: the optimal `TM` DP, `LevelledContraction`,
//!   validators, and the Appendix A adversarial tree (§3);
//! * [`sched`] — EDF, laminarization, the schedule-forest reduction
//!   (Theorem 4.2), `LSA`/`LSA_CS` (Algorithm 2), `k-PreemptionCombined`
//!   (Algorithm 3), the `k = 0` case (§5), multi-machine extensions
//!   (§4.3.4), and exact oracles;
//! * [`instances`] — Figure 2 / Figure 4 lower-bound generators and seeded
//!   random workloads;
//! * [`engine`] — the deterministic parallel batch-solving engine behind
//!   `pobp sweep` and `experiments --threads N` (worker pool, panic
//!   isolation, deadlines, result caching, certified outputs, graceful
//!   degradation, and — with `--features chaos` — deterministic fault
//!   injection; `docs/engine.md`, `docs/robustness.md`);
//! * [`sweep`] — crash-safe mega-sweeps behind `pobp sweep --out DIR`:
//!   content-addressed chunk planning, sharded output with checkpoint
//!   manifests, and `--resume` with torn-tail recovery and digest-verified
//!   merging (`docs/sweeps.md`);
//! * [`serve`] — the persistent scheduling service behind `pobp serve`:
//!   a line-protocol daemon with admission control, per-job cancel, and a
//!   durable job registry that survives `kill -9` (`docs/serve.md`).
//!
//! Building with `--features instrument` compiles in the algorithm-level
//! counter/timer layer ([`obs`]) and the structured tracing recorder
//! ([`trace`]) behind `pobp sweep --trace FILE`. Without the feature every
//! instrumentation macro is a no-op. See `docs/observability.md`.
//!
//! ## Quickstart
//!
//! ```
//! use pobp::prelude::*;
//!
//! // Three jobs: ⟨release, deadline, length, value⟩.
//! let jobs: JobSet = vec![
//!     Job::new(0, 14, 9, 5.0),
//!     Job::new(2, 8, 3, 2.0),
//!     Job::new(0, 100, 4, 3.0),
//! ]
//! .into_iter()
//! .collect();
//! let ids: Vec<JobId> = jobs.ids().collect();
//!
//! // An optimal ∞-preemptive schedule (exact, small instance)…
//! let opt = opt_unbounded(&jobs, &ids);
//! assert_eq!(opt.value, 10.0);
//!
//! // …converted into a schedule with at most k = 1 preemption per job.
//! let k = 1;
//! let bounded = reduce_to_k_bounded(&jobs, &opt.schedule, k).unwrap();
//! bounded.schedule.verify(&jobs, Some(k)).unwrap();
//!
//! // Theorem 4.2: the loss is at most log_{k+1} n.
//! let bound = loss_bound(jobs.len(), k);
//! assert!(bounded.schedule.value(&jobs) * bound >= opt.value);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pobp_core as core;
pub use pobp_core::obs;
pub use pobp_core::trace;
pub use pobp_engine as engine;
pub use pobp_forest as forest;
pub use pobp_instances as instances;
pub use pobp_sched as sched;
pub use pobp_serve as serve;
pub use pobp_sim as sim;
pub use pobp_sweep as sweep;

pub use pobp_core::cli;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use pobp_core::{
        render_gantt, render_svg, render_timeline, schedule_stats, window_load, Assignment,
        Infeasibility, SvgOptions,
        Interval, Job, JobError, JobId, JobSet, MachineId, RenderOptions, Schedule, ScheduleStats,
        SegmentSet, Time, Timeline, Value,
    };
    pub use pobp_forest::{
        brute_force_kbas, extract_subforest, greedy_kbas, is_ancestor_independent, is_k_bounded,
        is_kbas, levelled_contraction, loss_bound, tm, Forest, KeepSet, LowerBoundTree, NodeClass,
        NodeId,
    };
    pub use pobp_instances::{
        bursty_workload, overlapping_block, parse_jobs, parse_schedule, random_forest,
        round_robin_schedule, write_jobs, write_schedule, zoo_instance, Fig2Instance, Fig4Built,
        Fig4Instance, LaxityModel, PeriodicTask, RandomWorkload, TaskSet, ValueModel, ZooFamily,
        ZOO_FAMILIES,
    };
    pub use pobp_sched::{
        best_single_job, combined_from_scratch, cs_by_density, cs_by_value, edf_feasible,
        lawler_moore, moore_hodgson,
        edf_schedule, edf_truncate, global_edf, greedy_nonpreemptive_by_value, greedy_unbounded,
        is_laminar, iterative_multi_machine, k_preemption_combined, key_classes, laminarize,
        length_classes, lsa, lsa_cs, lsa_in_order, opt_k_bounded_fits, opt_k_bounded_small,
        opt_nonpreemptive,
        opt_unbounded, reconstruct, reduce_to_k_bounded, reduce_to_k_bounded_with, schedule_forest,
        schedule_k0, KbasSolver, MigrativeSchedule, ReductionPlan, SolveWorkspace,
    };
    pub use pobp_sim::{
        choose_k, djn_ratio_bound, efficiency, execute_online, execute_partitioned, is_robust,
        max_robust_delta, replay_with_overhead, run_online, switch_count, switch_points, ExecEvent,
        ExecTrace, OnlineAlg, OnlineConfig, OnlineOutcome, PartitionRule, PartitionedOutcome,
        PlanChoice, Policy, SimConfig, SimOutcome, SwitchPoint, ONLINE_ALGS,
    };
    pub use pobp_engine::{
        run_batch, Algo, BatchReport, CancelToken, CertFailure, CertStage, DegradeCause, Engine,
        EngineConfig, EngineStats, GridSpec, SolveOutput, SolveTask, TaskReport, TaskResult,
    };
    #[cfg(feature = "chaos")]
    pub use pobp_engine::{FaultPlan, FaultSite};
}
