//! The §4.2 pipeline: `∞`-preemptive schedule → laminarize → schedule
//! forest → optimal k-BAS (`TM`) → left-merge reconstruction.
//!
//! This is the constructive content of Theorem 4.2: the output is a feasible
//! `k`-bounded schedule whose value is at least
//! `val(input schedule) / log_{k+1} n`.

use crate::laminar::{is_own_laminarization, laminarize_ws};
use crate::sforest::{reconstruct_ws, schedule_forest_ws, ScheduleForest};
use crate::workspace::SolveWorkspace;
use pobp_core::{obs_count, obs_time, Infeasibility, JobSet, Schedule};
use pobp_forest::{levelled_contraction_ws, tm_ws, KeepSet, TmResult};

/// Which k-BAS solver drives the reduction.
///
/// The paper's Algorithm 3 (line 3) literally invokes
/// `LevelledContraction`; `TM` is optimal and therefore never worse
/// (Theorem 3.9's proof order). Both satisfy the `log_{k+1} n` bound; the
/// ablation benches measure the gap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KbasSolver {
    /// The optimal dynamic program of §3.2 (default).
    #[default]
    Tm,
    /// Algorithm 1, as written in the paper's Algorithm 3.
    LevelledContraction,
}

/// The `k`-dependent products of the reduction, for inspection by
/// experiments. The `k`-independent prefix (laminarized schedule and its
/// forest) lives in the [`ReductionPlan`] that produced the outcome.
#[derive(Clone, Debug)]
pub struct ReductionOutcome {
    /// The optimal k-BAS over the forest (populated by the `Tm` solver;
    /// for `LevelledContraction` it holds the TM tables of the same forest
    /// so experiments can compare — `keep_used` is what was applied).
    pub kbas: TmResult,
    /// The keep-set actually used to rebuild the schedule.
    pub keep_used: KeepSet,
    /// The final feasible `k`-bounded schedule.
    pub schedule: Schedule,
}

impl ReductionOutcome {
    /// Value retained by the `k`-bounded schedule.
    pub fn value(&self, jobs: &JobSet) -> f64 {
        self.schedule.value(jobs)
    }
}

/// Converts a feasible `∞`-preemptive schedule into a feasible `k`-bounded
/// one (Theorem 4.2). Works for single- and multi-machine (non-migrative)
/// schedules alike — the per-machine forests are merged, and `TM` on the
/// merged forest decomposes over its trees (Observation 3.5).
///
/// ```
/// use pobp_core::{Job, JobId, JobSet};
/// use pobp_sched::{edf_schedule, reduce_to_k_bounded};
///
/// let jobs: JobSet = vec![
///     Job::new(0, 10, 6, 2.0),  // outer job, preempted by the inner one
///     Job::new(2, 6, 3, 1.0),
/// ].into_iter().collect();
/// let inf = edf_schedule(&jobs, &[JobId(0), JobId(1)], None);
/// assert!(inf.is_feasible());
///
/// // k = 1 suffices here: both jobs survive the reduction.
/// let red = reduce_to_k_bounded(&jobs, &inf.schedule, 1).unwrap();
/// red.schedule.verify(&jobs, Some(1)).unwrap();
/// assert_eq!(red.schedule.len(), 2);
/// ```
///
/// # Errors
/// Returns the input schedule's infeasibility, if any.
pub fn reduce_to_k_bounded(
    jobs: &JobSet,
    schedule: &Schedule,
    k: u32,
) -> Result<ReductionOutcome, Infeasibility> {
    reduce_to_k_bounded_ws(jobs, schedule, k, KbasSolver::Tm, &mut SolveWorkspace::new())
}

/// [`reduce_to_k_bounded`] with an explicit k-BAS solver choice.
pub fn reduce_to_k_bounded_with(
    jobs: &JobSet,
    schedule: &Schedule,
    k: u32,
    solver: KbasSolver,
) -> Result<ReductionOutcome, Infeasibility> {
    reduce_to_k_bounded_ws(jobs, schedule, k, solver, &mut SolveWorkspace::new())
}

/// [`reduce_to_k_bounded_with`] with caller-provided scratch memory (see
/// [`SolveWorkspace`]). Identical output.
///
/// # Errors
/// Returns the input schedule's infeasibility, if any.
pub fn reduce_to_k_bounded_ws(
    jobs: &JobSet,
    schedule: &Schedule,
    k: u32,
    solver: KbasSolver,
    ws: &mut SolveWorkspace,
) -> Result<ReductionOutcome, Infeasibility> {
    let plan = ReductionPlan::new_ws(jobs, schedule, ws)?;
    Ok(plan.solve_ws(jobs, k, solver, ws))
}

/// The `k`-independent prefix of the reduction pipeline: the laminarized
/// schedule and its schedule forest.
///
/// Sweeps over a `k`-grid rebuild these once via [`ReductionPlan::new`] (or
/// [`ReductionPlan::from_edf`] for an EDF output, which needs no
/// laminarization) and then call [`ReductionPlan::solve`] per `k` — only the
/// k-BAS and the left-merge reconstruction depend on `k`. `solve` output is
/// byte-identical to [`reduce_to_k_bounded_with`] on the same inputs.
#[derive(Clone, Debug)]
pub struct ReductionPlan {
    /// The laminarized copy of the input schedule (same jobs and value).
    pub laminar: Schedule,
    /// The schedule forest of the laminarized schedule.
    pub forest: ScheduleForest,
}

impl ReductionPlan {
    /// Laminarizes `schedule` and builds its schedule forest.
    ///
    /// # Errors
    /// Returns the input schedule's infeasibility, if any.
    pub fn new(jobs: &JobSet, schedule: &Schedule) -> Result<ReductionPlan, Infeasibility> {
        Self::new_ws(jobs, schedule, &mut SolveWorkspace::new())
    }

    /// [`ReductionPlan::new`] with caller-provided scratch memory.
    ///
    /// # Errors
    /// Returns the input schedule's infeasibility, if any.
    pub fn new_ws(
        jobs: &JobSet,
        schedule: &Schedule,
        ws: &mut SolveWorkspace,
    ) -> Result<ReductionPlan, Infeasibility> {
        let laminar =
            obs_time!("sched.reduction.time.laminarize", laminarize_ws(jobs, schedule, ws)?);
        let forest =
            obs_time!("sched.reduction.time.forest", schedule_forest_ws(jobs, &laminar, ws));
        Ok(ReductionPlan { laminar, forest })
    }

    /// The prefix of a schedule that unrestricted deterministic EDF
    /// produced: [`crate::edf_schedule`] or [`crate::edf_schedule_ws`] with
    /// no availability, [`crate::greedy_unbounded`] or
    /// [`crate::greedy_unbounded_ws`], or [`crate::opt_unbounded`]. Such a
    /// schedule is its own laminarization, so this builds the schedule
    /// forest directly and [`ReductionPlan::laminar`] is a copy of `edf`.
    /// [`solve`](ReductionPlan::solve) output equals that of
    /// [`ReductionPlan::new`]'s plan on the same schedule.
    ///
    /// **Why.** [`crate::laminarize`] re-runs EDF on `edf`'s jobs, restricted
    /// to `edf`'s busy time. By induction over time the restricted run
    /// repeats `edf`'s choice at every instant. Suppose the runs agree
    /// before `t`. Then every job pending at `t` in the restricted run is
    /// pending in `edf` too, with the same remaining work. If `t` is busy in
    /// `edf`, the job `edf` runs there completes, so it is one of them; it
    /// has the least `(deadline, id)` among a superset and still meets its
    /// deadline, so the restricted run runs it too. If `t` is not busy,
    /// `edf` runs nothing or a job it later aborts, which the restricted run
    /// lacks, and the restricted run may not run at all.
    ///
    /// The precondition is not checked in release builds, and the input is
    /// not verified: an EDF output is feasible by construction. Debug builds
    /// assert that laminarization would return `edf` unchanged. For any
    /// other feasible schedule use [`ReductionPlan::new`].
    pub fn from_edf(jobs: &JobSet, edf: &Schedule) -> ReductionPlan {
        Self::from_edf_ws(jobs, edf, &mut SolveWorkspace::new())
    }

    /// [`ReductionPlan::from_edf`] with caller-provided scratch memory.
    pub fn from_edf_ws(jobs: &JobSet, edf: &Schedule, ws: &mut SolveWorkspace) -> ReductionPlan {
        debug_assert!(
            is_own_laminarization(jobs, edf),
            "ReductionPlan::from_edf: the schedule is not an EDF output"
        );
        let forest = obs_time!("sched.reduction.time.forest", schedule_forest_ws(jobs, edf, ws));
        ReductionPlan { laminar: edf.clone(), forest }
    }

    /// Runs the `k`-dependent tail of the pipeline (k-BAS + reconstruction).
    pub fn solve(&self, jobs: &JobSet, k: u32, solver: KbasSolver) -> ReductionOutcome {
        self.solve_ws(jobs, k, solver, &mut SolveWorkspace::new())
    }

    /// [`ReductionPlan::solve`] with caller-provided scratch memory.
    pub fn solve_ws(
        &self,
        jobs: &JobSet,
        k: u32,
        solver: KbasSolver,
        ws: &mut SolveWorkspace,
    ) -> ReductionOutcome {
        obs_count!("sched.reduction.runs");
        let kbas =
            obs_time!("sched.reduction.time.kbas", tm_ws(&self.forest.forest, k, &mut ws.forest));
        let keep_used = match solver {
            KbasSolver::Tm => kbas.keep.clone(),
            KbasSolver::LevelledContraction => {
                if self.forest.forest.is_empty() {
                    kbas.keep.clone()
                } else {
                    levelled_contraction_ws(&self.forest.forest, k, &mut ws.forest)
                        .keep(&self.forest.forest)
                }
            }
        };
        let schedule = obs_time!(
            "sched.reduction.time.reconstruct",
            reconstruct_ws(jobs, &self.laminar, &self.forest, &keep_used, ws)
        );
        debug_assert!(schedule.verify(jobs, Some(k)).is_ok());
        ReductionOutcome { kbas, keep_used, schedule }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::edf_schedule;
    use pobp_core::{Job, JobId};
    use pobp_forest::loss_bound;

    #[test]
    fn reduction_respects_theorem_4_2() {
        // A moderately nested EDF schedule; for each k the reduction must be
        // feasible, k-bounded, and lose at most a log_{k+1} n factor.
        let jobs: JobSet = vec![
            Job::new(0, 100, 30, 8.0),
            Job::new(2, 40, 10, 4.0),
            Job::new(4, 20, 6, 2.0),
            Job::new(5, 10, 2, 1.0),
            Job::new(50, 90, 10, 3.0),
            Job::new(55, 70, 5, 2.0),
        ]
        .into_iter()
        .collect();
        let ids: Vec<JobId> = (0..6).map(JobId).collect();
        let inf = edf_schedule(&jobs, &ids, None);
        assert!(inf.is_feasible());
        let total = inf.schedule.value(&jobs);
        for k in 0..4u32 {
            let red = reduce_to_k_bounded(&jobs, &inf.schedule, k).unwrap();
            red.schedule.verify(&jobs, Some(k)).unwrap();
            let bound = loss_bound(jobs.len(), k.max(1));
            assert!(
                red.value(&jobs) * bound >= total - 1e-9,
                "k={k}: {} × {bound} < {total}",
                red.value(&jobs)
            );
            // Reconstruction value equals the k-BAS value.
            assert!((red.value(&jobs) - red.kbas.value).abs() < 1e-9);
        }
    }

    #[test]
    fn reduction_with_large_k_keeps_everything() {
        let jobs: JobSet = vec![
            Job::new(0, 50, 20, 1.0),
            Job::new(1, 10, 3, 1.0),
            Job::new(12, 30, 5, 1.0),
        ]
        .into_iter()
        .collect();
        let ids: Vec<JobId> = (0..3).map(JobId).collect();
        let inf = edf_schedule(&jobs, &ids, None);
        let red = reduce_to_k_bounded(&jobs, &inf.schedule, 10).unwrap();
        assert_eq!(red.schedule.len(), 3);
        assert_eq!(red.value(&jobs), 3.0);
    }

    #[test]
    fn reduction_propagates_infeasibility() {
        let jobs: JobSet = vec![Job::new(0, 4, 2, 1.0)].into_iter().collect();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), pobp_core::SegmentSet::singleton(pobp_core::Interval::new(0, 3)));
        assert!(reduce_to_k_bounded(&jobs, &s, 1).is_err());
    }

    #[test]
    fn lc_solver_is_feasible_and_dominated_by_tm() {
        let jobs: JobSet = vec![
            Job::new(0, 100, 30, 8.0),
            Job::new(2, 40, 10, 4.0),
            Job::new(4, 20, 6, 2.0),
            Job::new(5, 10, 2, 1.0),
            Job::new(50, 90, 10, 3.0),
        ]
        .into_iter()
        .collect();
        let ids: Vec<JobId> = (0..5).map(JobId).collect();
        let inf = edf_schedule(&jobs, &ids, None);
        for k in 0..3u32 {
            let lc = super::reduce_to_k_bounded_with(
                &jobs,
                &inf.schedule,
                k,
                super::KbasSolver::LevelledContraction,
            )
            .unwrap();
            lc.schedule.verify(&jobs, Some(k)).unwrap();
            let tm_red = reduce_to_k_bounded(&jobs, &inf.schedule, k).unwrap();
            assert!(
                tm_red.schedule.value(&jobs) >= lc.schedule.value(&jobs) - 1e-9,
                "k={k}"
            );
            // Both obey Theorem 3.9's bound against the input value.
            if k >= 1 {
                let bound = loss_bound(jobs.len(), k);
                assert!(lc.schedule.value(&jobs) * bound >= inf.schedule.value(&jobs) - 1e-9);
            }
        }
    }

    #[test]
    fn reduction_on_empty_schedule() {
        let jobs = JobSet::new();
        let red = reduce_to_k_bounded(&jobs, &Schedule::new(), 1).unwrap();
        assert!(red.schedule.is_empty());
        assert_eq!(red.kbas.value, 0.0);
    }

    #[test]
    fn reduction_multi_machine() {
        let jobs: JobSet = vec![
            Job::new(0, 20, 8, 2.0),
            Job::new(1, 9, 3, 1.0),
            Job::new(0, 20, 8, 2.0),
            Job::new(1, 9, 3, 1.0),
        ]
        .into_iter()
        .collect();
        // Same nested pattern on two machines.
        let mut s = Schedule::new();
        for (machine, big, small) in [(0usize, 0usize, 1usize), (1, 2, 3)] {
            s.assign(
                JobId(big),
                machine,
                pobp_core::SegmentSet::from_intervals([
                    pobp_core::Interval::new(0, 1),
                    pobp_core::Interval::new(4, 11),
                ]),
            );
            s.assign(
                JobId(small),
                machine,
                pobp_core::SegmentSet::singleton(pobp_core::Interval::new(1, 4)),
            );
        }
        s.verify(&jobs, None).unwrap();
        let red = reduce_to_k_bounded(&jobs, &s, 1).unwrap();
        red.schedule.verify(&jobs, Some(1)).unwrap();
        // k = 1 suffices to keep all four jobs (each big job has one child).
        assert_eq!(red.schedule.len(), 4);
        // Machines preserved.
        assert_eq!(red.schedule.machines(), vec![0, 1]);
    }
}
