//! Differential property tests: the workspace-based hot paths must be
//! bit-identical to the pre-workspace reference implementations on random
//! instances, including when one workspace is reused (dirty) across
//! unrelated calls — the exact reuse pattern of the engine's worker threads.
//! The feasibility probes behind `greedy_unbounded` and `edf_feasible` are
//! held to full EDF runs the same way.

use pobp_core::{Job, JobId, JobSet, Schedule};
use pobp_sched::{
    edf_feasible, edf_feasible_ws, edf_schedule, edf_schedule_reference, edf_schedule_ws,
    greedy_unbounded, greedy_unbounded_ws, laminarize, laminarize_ws, opt_unbounded,
    reduce_to_k_bounded_with, reduce_to_k_bounded_ws, EdfOutcome, KbasSolver, ReductionPlan,
    SolveWorkspace,
};
use proptest::prelude::*;

fn arb_jobs(max_n: usize, horizon: i64) -> impl Strategy<Value = JobSet> {
    proptest::collection::vec((0i64..horizon, 1i64..6, 0i64..10, 1u32..10), 1..=max_n).prop_map(
        |specs| {
            specs
                .into_iter()
                .map(|(r, p, slack, v)| Job::new(r, r + p + slack, p, v as f64))
                .collect()
        },
    )
}

/// Instances rich in exact ties, in chains of releases. Each job is
/// released at its predecessor's release (equal releases), `gap` ticks
/// later, or exactly when the predecessor, run alone from its release,
/// would finish: at the end of a busy period. A third of the windows have
/// zero slack, and values are `density · length` with `density ∈ 1..4`,
/// so densities tie. `max_gap` sets the load: small is dense, large leaves
/// the horizon far above the total work, with many busy periods.
fn arb_chained_jobs(max_n: usize, max_gap: i64) -> impl Strategy<Value = JobSet> {
    proptest::collection::vec((0u32..3, 0i64..max_gap, 1i64..6, 0usize..3, 1u32..4), 1..=max_n)
        .prop_map(|specs| {
            let (mut release, mut prev_len) = (0, 0);
            specs
                .into_iter()
                .map(|(link, gap, p, slack, density)| {
                    release += match link {
                        0 => prev_len,
                        1 => 0,
                        _ => gap,
                    };
                    prev_len = p;
                    let slack = [0, p, 4 * p][slack];
                    Job::new(release, release + p + slack, p, f64::from(density) * p as f64)
                })
                .collect()
        })
}

/// The greedy as a full EDF schedule per candidate, over the public
/// `edf_schedule`: the oracle for the probe-based `greedy_unbounded_ws`.
fn greedy_by_full_edf(jobs: &JobSet, ids: &[JobId]) -> EdfOutcome {
    let mut order = ids.to_vec();
    order.sort_by(|&a, &b| {
        jobs.job(b).density().partial_cmp(&jobs.job(a).density()).unwrap().then(a.cmp(&b))
    });
    let mut accepted = Vec::new();
    for j in order {
        accepted.push(j);
        if !edf_schedule(jobs, &accepted, None).is_feasible() {
            accepted.pop();
        }
    }
    accepted.sort_unstable();
    edf_schedule(jobs, &accepted, None)
}

/// Runs the probe-based greedy on `jobs` with a workspace dirtied by
/// `dirt` (both probes) and asserts accepted ids, schedule and `missed`
/// equal the full-EDF oracle's.
fn assert_greedy_matches_oracle(jobs: &JobSet, dirt: &JobSet) -> Result<(), TestCaseError> {
    let mut ws = SolveWorkspace::new();
    let _ = greedy_unbounded_ws(dirt, &all_ids(dirt), &mut ws);
    let _ = edf_feasible_ws(dirt, &all_ids(dirt), &mut ws);
    let ids = all_ids(jobs);
    let oracle = greedy_by_full_edf(jobs, &ids);
    let probed = greedy_unbounded_ws(jobs, &ids, &mut ws);
    let accepted = |o: &EdfOutcome| o.schedule.scheduled_ids().collect::<Vec<_>>();
    prop_assert_eq!(accepted(&probed), accepted(&oracle));
    assert_schedules_equal(&probed.schedule, &oracle.schedule);
    prop_assert_eq!(&probed.missed, &oracle.missed);
    Ok(())
}

fn all_ids(jobs: &JobSet) -> Vec<JobId> {
    jobs.ids().collect()
}

fn assert_schedules_equal(a: &Schedule, b: &Schedule) {
    let av: Vec<_> = a.iter().collect();
    let bv: Vec<_> = b.iter().collect();
    assert_eq!(av, bv);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn edf_ws_matches_reference(jobs in arb_jobs(10, 24)) {
        let ids = all_ids(&jobs);
        let mut ws = SolveWorkspace::new();
        let reference = edf_schedule_reference(&jobs, &ids, None);
        let via_ws = edf_schedule_ws(&jobs, &ids, None, &mut ws);
        assert_schedules_equal(&reference.schedule, &via_ws.schedule);
        prop_assert_eq!(&reference.missed, &via_ws.missed);
        // Restricted availability uses the same (now dirty) workspace.
        if let Some(busy) = reference.schedule.machines().first().map(|&m| reference.schedule.busy(m)) {
            let on: Vec<JobId> = reference.schedule.scheduled_ids().collect();
            let r2 = edf_schedule_reference(&jobs, &on, Some(&busy));
            let w2 = edf_schedule_ws(&jobs, &on, Some(&busy), &mut ws);
            assert_schedules_equal(&r2.schedule, &w2.schedule);
            prop_assert_eq!(&r2.missed, &w2.missed);
        }
    }

    #[test]
    fn dirty_workspace_matches_fresh_everywhere(
        jobs1 in arb_jobs(10, 24),
        jobs2 in arb_jobs(10, 24),
        k in 0u32..4,
    ) {
        // Dirty the workspace on instance 1, then run the whole pipeline on
        // instance 2: results must match fresh-workspace (wrapper) runs.
        let mut ws = SolveWorkspace::new();
        let ids1 = all_ids(&jobs1);
        let _ = greedy_unbounded_ws(&jobs1, &ids1, &mut ws);
        let _ = reduce_to_k_bounded_ws(
            &jobs1,
            &greedy_unbounded(&jobs1, &ids1).schedule,
            k,
            KbasSolver::Tm,
            &mut ws,
        );

        let ids2 = all_ids(&jobs2);
        let dirty = greedy_unbounded_ws(&jobs2, &ids2, &mut ws);
        let fresh = greedy_unbounded(&jobs2, &ids2);
        assert_schedules_equal(&dirty.schedule, &fresh.schedule);
        prop_assert_eq!(&dirty.missed, &fresh.missed);

        let lam_dirty = laminarize_ws(&jobs2, &fresh.schedule, &mut ws).unwrap();
        let lam_fresh = laminarize(&jobs2, &fresh.schedule).unwrap();
        assert_schedules_equal(&lam_dirty, &lam_fresh);

        for solver in [KbasSolver::Tm, KbasSolver::LevelledContraction] {
            let plan_dirty = ReductionPlan::new_ws(&jobs2, &fresh.schedule, &mut ws).unwrap();
            assert_schedules_equal(&plan_dirty.laminar, &lam_fresh);
            let red_dirty =
                reduce_to_k_bounded_ws(&jobs2, &fresh.schedule, k, solver, &mut ws).unwrap();
            let red_fresh = reduce_to_k_bounded_with(&jobs2, &fresh.schedule, k, solver).unwrap();
            assert_schedules_equal(&red_dirty.schedule, &red_fresh.schedule);
            prop_assert_eq!(&red_dirty.keep_used, &red_fresh.keep_used);
            prop_assert_eq!(red_dirty.kbas.value, red_fresh.kbas.value);
        }
    }

    #[test]
    fn reduction_plan_matches_direct_reduction(jobs in arb_jobs(10, 24)) {
        // Hoisting the k-independent prefix (laminarize + schedule forest)
        // out of the k-loop must not change any per-k output.
        let ids = all_ids(&jobs);
        let witness = greedy_unbounded(&jobs, &ids).schedule;
        let mut ws = SolveWorkspace::new();
        let plan = ReductionPlan::new_ws(&jobs, &witness, &mut ws).unwrap();
        assert_schedules_equal(&plan.laminar, &laminarize(&jobs, &witness).unwrap());
        for k in 0..4u32 {
            for solver in [KbasSolver::Tm, KbasSolver::LevelledContraction] {
                let via_plan = plan.solve_ws(&jobs, k, solver, &mut ws);
                let direct = reduce_to_k_bounded_with(&jobs, &witness, k, solver).unwrap();
                assert_schedules_equal(&via_plan.schedule, &direct.schedule);
                prop_assert_eq!(&via_plan.keep_used, &direct.keep_used);
                prop_assert_eq!(via_plan.kbas.value, direct.kbas.value);
            }
        }
    }

    #[test]
    fn public_edf_wrapper_matches_reference(jobs in arb_jobs(12, 30)) {
        // The throwaway-workspace wrapper is the default entry point; pin it
        // to the reference too, independently of the _ws path.
        let ids = all_ids(&jobs);
        let reference = edf_schedule_reference(&jobs, &ids, None);
        let wrapper = edf_schedule(&jobs, &ids, None);
        assert_schedules_equal(&reference.schedule, &wrapper.schedule);
        prop_assert_eq!(&reference.missed, &wrapper.missed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn greedy_probe_matches_full_edf_on_dense_jobs(
        jobs in arb_jobs(14, 24),
        dirt in arb_jobs(10, 24),
    ) {
        assert_greedy_matches_oracle(&jobs, &dirt)?;
    }

    #[test]
    fn greedy_probe_matches_full_edf_on_dense_ties(
        jobs in arb_chained_jobs(16, 3),
        dirt in arb_chained_jobs(10, 3),
    ) {
        assert_greedy_matches_oracle(&jobs, &dirt)?;
    }

    #[test]
    fn greedy_probe_matches_full_edf_on_sparse_busy_periods(
        jobs in arb_chained_jobs(30, 40),
        dirt in arb_chained_jobs(16, 3),
    ) {
        assert_greedy_matches_oracle(&jobs, &dirt)?;
    }

    #[test]
    fn feasibility_probe_matches_a_full_edf_run(
        jobs in arb_chained_jobs(16, 8),
        dirt in arb_jobs(10, 24),
        mask in 0u32..(1 << 16),
    ) {
        // A random subset, in a scrambled (non-release) order.
        let mut subset: Vec<JobId> =
            all_ids(&jobs).into_iter().filter(|j| mask & (1 << j.0) != 0).rev().collect();
        let half = subset.len() / 2;
        subset.rotate_left(half);
        let mut ws = SolveWorkspace::new();
        let _ = greedy_unbounded_ws(&dirt, &all_ids(&dirt), &mut ws);
        let full = edf_schedule(&jobs, &subset, None).is_feasible();
        prop_assert_eq!(edf_feasible_ws(&jobs, &subset, &mut ws), full);
        prop_assert_eq!(edf_feasible(&jobs, &subset), full);
    }
}

#[test]
#[should_panic(expected = "duplicate")]
fn greedy_probe_rejects_duplicate_ids() {
    let jobs: JobSet = vec![Job::new(0, 4, 2, 1.0)].into_iter().collect();
    let _ = greedy_unbounded_ws(&jobs, &[JobId(0), JobId(0)], &mut SolveWorkspace::new());
}

#[test]
#[should_panic(expected = "duplicate")]
fn feasibility_probe_rejects_duplicate_ids() {
    let jobs: JobSet = vec![Job::new(0, 4, 2, 1.0)].into_iter().collect();
    let _ = edf_feasible(&jobs, &[JobId(0), JobId(0)]);
}

#[test]
#[should_panic(expected = "duplicate")]
fn exact_search_rejects_duplicate_ids() {
    let jobs: JobSet = vec![Job::new(0, 4, 2, 1.0)].into_iter().collect();
    let _ = opt_unbounded(&jobs, &[JobId(0), JobId(0)]);
}

#[test]
#[should_panic(expected = "duplicate")]
fn ws_path_rejects_duplicate_ids() {
    let jobs: JobSet = vec![Job::new(0, 4, 2, 1.0)].into_iter().collect();
    let _ = edf_schedule_ws(&jobs, &[JobId(0), JobId(0)], None, &mut SolveWorkspace::new());
}
