//! Differential property tests: the workspace-based hot paths must be
//! bit-identical to the pre-workspace reference implementations on random
//! instances, including when one workspace is reused (dirty) across
//! unrelated calls — the exact reuse pattern of the engine's worker threads.
//! The feasibility probes behind `greedy_unbounded` and `edf_feasible` are
//! held to full EDF runs the same way.
//!
//! The reduction's tail is pinned the same way: an unrestricted EDF output
//! is its own laminarization (what `ReductionPlan::from_edf` rests on), and
//! the flat left-merge `reconstruct_ws` equals the `Timeline`-based
//! left-merge it replaced, kept here as the oracle.

use pobp_core::{Interval, Job, JobId, JobSet, MachineId, Schedule, SegmentSet, Timeline};
use pobp_forest::{levelled_contraction, tm, KeepSet};
use pobp_sched::{
    edf_feasible, edf_feasible_ws, edf_schedule, edf_schedule_reference, edf_schedule_ws,
    greedy_unbounded, greedy_unbounded_ws, iterative_multi_machine, laminarize, laminarize_ws,
    opt_unbounded, reconstruct_ws, reduce_to_k_bounded_with, reduce_to_k_bounded_ws,
    schedule_forest, EdfOutcome, KbasSolver, ReductionPlan, ScheduleForest, SolveWorkspace,
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

/// A feasible schedule that no EDF run would produce: jobs, in input order,
/// each take `p` free ticks of their window scattered at random over
/// `machines` machines (a job that no longer fits stays unscheduled). Its
/// segments interleave and leave idle holes, so laminarizing it moves work.
fn arb_scattered(max_n: usize, machines: usize) -> impl Strategy<Value = (JobSet, Schedule)> {
    (arb_jobs(max_n, 24), proptest::collection::vec(0u64..u64::MAX, max_n)).prop_map(
        move |(jobs, draws)| {
            let horizon = jobs.iter().map(|(_, j)| j.deadline).max().unwrap_or(0) as usize;
            let mut busy = vec![vec![false; horizon]; machines];
            let mut schedule = Schedule::new();
            for (id, &draw) in jobs.ids().zip(&draws) {
                let job = jobs.job(id);
                let machine = draw as usize % machines;
                let mut free: Vec<i64> =
                    (job.release..job.deadline).filter(|&t| !busy[machine][t as usize]).collect();
                if (free.len() as i64) < job.length {
                    continue;
                }
                // A deterministic shuffle driven by the draw, then the first
                // `p` ticks.
                let mut x = draw | 1;
                for i in (1..free.len()).rev() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    free.swap(i, (x % (i as u64 + 1)) as usize);
                }
                free.truncate(job.length as usize);
                for &t in &free {
                    busy[machine][t as usize] = true;
                }
                let ticks = free.iter().map(|&t| Interval::with_len(t, 1));
                schedule.assign(id, machine, SegmentSet::from_intervals(ticks));
            }
            (jobs, schedule)
        },
    )
}

fn all_ids(jobs: &JobSet) -> Vec<JobId> {
    jobs.ids().collect()
}

fn assert_schedules_equal(a: &Schedule, b: &Schedule) {
    let av: Vec<_> = a.iter().collect();
    let bv: Vec<_> = b.iter().collect();
    assert_eq!(av, bv);
}

/// The left-merge before the flat pass, kept verbatim as the oracle for
/// `reconstruct_ws`: span lookups in the laminar schedule, the allowed
/// region assembled per kept node, and a per-machine `Timeline` that fills
/// it leftmost and panics on a double-booked tick.
fn reconstruct_by_timeline(
    jobs: &JobSet,
    laminar: &Schedule,
    sf: &ScheduleForest,
    keep: &KeepSet,
) -> Schedule {
    let mut out = Schedule::new();
    let mut timelines: Vec<(MachineId, Timeline)> = Vec::new();
    let mut allowed: Vec<Interval> = Vec::new();
    for node in keep.ids() {
        let (machine, id) = sf.node_job[node.0];
        let segs = laminar.segments(id).expect("forest node of unscheduled job");
        let span = segs.span().expect("non-empty assignment");
        allowed.clear();
        let mut cursor = span.start;
        for &c in sf.forest.children(node) {
            if keep.contains(c) {
                let cid = sf.job_of(c);
                let cspan = laminar
                    .segments(cid)
                    .expect("kept child unscheduled")
                    .span()
                    .expect("non-empty assignment");
                if cspan.start > cursor {
                    allowed.push(Interval::new(cursor, cspan.start));
                }
                cursor = cursor.max(cspan.end);
            }
        }
        if cursor < span.end {
            allowed.push(Interval::new(cursor, span.end));
        }
        let need = jobs.job(id).length;
        let timeline = match timelines.iter().position(|(m, _)| *m == machine) {
            Some(i) => &mut timelines[i].1,
            None => {
                timelines.push((machine, Timeline::new()));
                &mut timelines.last_mut().expect("just pushed").1
            }
        };
        let placed = timeline
            .fill_leftmost(&allowed, need)
            .expect("Lemma 4.1: allowed region must fit the job");
        out.assign(id, machine, placed);
    }
    out
}

/// Asserts `laminarize_ws` returns `s` itself, on a workspace dirtied by
/// the whole pipeline on `dirt`.
fn assert_own_laminarization(jobs: &JobSet, s: &Schedule, dirt: &JobSet) {
    let mut ws = SolveWorkspace::new();
    let dirt_ref = greedy_unbounded_ws(dirt, &all_ids(dirt), &mut ws).schedule;
    let _ = reduce_to_k_bounded_ws(dirt, &dirt_ref, 1, KbasSolver::Tm, &mut ws);
    assert_schedules_equal(&laminarize_ws(jobs, s, &mut ws).unwrap(), s);
}

/// Asserts the EDF plan of `edf` equals the laminarizing plan, prefix and
/// every `k ∈ 0..=4` tail under both solvers.
fn assert_edf_plan_matches(jobs: &JobSet, edf: &Schedule) -> Result<(), TestCaseError> {
    let mut ws = SolveWorkspace::new();
    let general = ReductionPlan::new_ws(jobs, edf, &mut ws).unwrap();
    let direct = ReductionPlan::from_edf_ws(jobs, edf, &mut ws);
    assert_schedules_equal(&direct.laminar, &general.laminar);
    prop_assert_eq!(&direct.forest.forest, &general.forest.forest);
    prop_assert_eq!(&direct.forest.node_job, &general.forest.node_job);
    for k in 0..=4u32 {
        for solver in [KbasSolver::Tm, KbasSolver::LevelledContraction] {
            let a = direct.solve_ws(jobs, k, solver, &mut ws);
            let b = general.solve_ws(jobs, k, solver, &mut ws);
            assert_schedules_equal(&a.schedule, &b.schedule);
            prop_assert_eq!(&a.keep_used, &b.keep_used);
            prop_assert_eq!(a.kbas.value, b.kbas.value);
        }
    }
    Ok(())
}

/// Asserts the flat left-merge equals the `Timeline` oracle on the laminar
/// schedule `laminar`, for the TM and levelled-contraction keep-sets of
/// every `k ∈ 0..=4` and for the full keep-set, on a workspace dirtied by
/// the whole pipeline on `dirt`.
fn assert_reconstruct_matches_oracle(
    jobs: &JobSet,
    laminar: &Schedule,
    dirt: &JobSet,
) -> Result<(), TestCaseError> {
    let mut ws = SolveWorkspace::new();
    let dirt_ref = greedy_unbounded_ws(dirt, &all_ids(dirt), &mut ws).schedule;
    let _ = reduce_to_k_bounded_ws(dirt, &dirt_ref, 2, KbasSolver::Tm, &mut ws);
    let sf = schedule_forest(jobs, laminar);
    let mut keeps = vec![KeepSet::from_mask(vec![true; sf.forest.len()])];
    for k in 0..=4u32 {
        keeps.push(tm(&sf.forest, k).keep);
        if !sf.forest.is_empty() {
            keeps.push(levelled_contraction(&sf.forest, k).keep(&sf.forest));
        }
    }
    for keep in &keeps {
        let flat = reconstruct_ws(jobs, laminar, &sf, keep, &mut ws);
        let oracle = reconstruct_by_timeline(jobs, laminar, &sf, keep);
        assert_schedules_equal(&flat, &oracle);
        prop_assert!(flat.verify(jobs, None).is_ok());
    }
    Ok(())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn edf_output_is_its_own_laminarization(
        jobs in arb_jobs(14, 24),
        dirt in arb_jobs(10, 24),
    ) {
        // Every job at once: some miss, and their aborted ticks leave holes.
        let mut ws = SolveWorkspace::new();
        let _ = edf_schedule_ws(&dirt, &all_ids(&dirt), None, &mut ws);
        let edf = edf_schedule_ws(&jobs, &all_ids(&jobs), None, &mut ws).schedule;
        assert_own_laminarization(&jobs, &edf, &dirt);
        let greedy = greedy_unbounded_ws(&jobs, &all_ids(&jobs), &mut ws).schedule;
        assert_own_laminarization(&jobs, &greedy, &dirt);
    }

    #[test]
    fn edf_output_is_its_own_laminarization_on_dense_ties(
        jobs in arb_chained_jobs(16, 3),
        dirt in arb_chained_jobs(10, 3),
    ) {
        let ids = all_ids(&jobs);
        let mut ws = SolveWorkspace::new();
        let edf = edf_schedule_ws(&jobs, &ids, None, &mut ws).schedule;
        assert_own_laminarization(&jobs, &edf, &dirt);
        let greedy = greedy_unbounded_ws(&jobs, &ids, &mut ws).schedule;
        assert_own_laminarization(&jobs, &greedy, &dirt);
    }

    #[test]
    fn edf_output_is_its_own_laminarization_on_sparse_busy_periods(
        jobs in arb_chained_jobs(30, 40),
        dirt in arb_chained_jobs(16, 3),
    ) {
        let ids = all_ids(&jobs);
        let mut ws = SolveWorkspace::new();
        let edf = edf_schedule_ws(&jobs, &ids, None, &mut ws).schedule;
        assert_own_laminarization(&jobs, &edf, &dirt);
        let greedy = greedy_unbounded_ws(&jobs, &ids, &mut ws).schedule;
        assert_own_laminarization(&jobs, &greedy, &dirt);
    }

    #[test]
    fn exact_reference_is_its_own_laminarization(
        jobs in arb_chained_jobs(12, 4),
        dirt in arb_jobs(10, 24),
    ) {
        let opt = opt_unbounded(&jobs, &all_ids(&jobs));
        assert_own_laminarization(&jobs, &opt.schedule, &dirt);
        assert_edf_plan_matches(&jobs, &opt.schedule)?;
    }

    #[test]
    fn edf_plan_matches_the_laminarizing_plan(
        jobs in arb_jobs(14, 24),
        tied in arb_chained_jobs(16, 3),
    ) {
        for jobs in [&jobs, &tied] {
            let ids = all_ids(jobs);
            assert_edf_plan_matches(jobs, &greedy_unbounded(jobs, &ids).schedule)?;
            assert_edf_plan_matches(jobs, &edf_schedule(jobs, &ids, None).schedule)?;
        }
    }

    #[test]
    fn flat_left_merge_matches_the_timeline_oracle_on_edf_outputs(
        jobs in arb_chained_jobs(24, 6),
        dirt in arb_jobs(12, 24),
    ) {
        let greedy = greedy_unbounded(&jobs, &all_ids(&jobs)).schedule;
        assert_reconstruct_matches_oracle(&jobs, &greedy, &dirt)?;
    }

    #[test]
    fn flat_left_merge_matches_the_timeline_oracle_on_laminarized_schedules(
        (jobs, scattered) in arb_scattered(14, 1),
        (jobs2, scattered2) in arb_scattered(18, 3),
        dirt in arb_jobs(12, 24),
    ) {
        for (jobs, scattered) in [(&jobs, &scattered), (&jobs2, &scattered2)] {
            scattered.verify(jobs, None).unwrap();
            let laminar = laminarize(jobs, scattered).unwrap();
            assert_reconstruct_matches_oracle(jobs, &laminar, &dirt)?;
        }
    }

    #[test]
    fn flat_left_merge_matches_the_timeline_oracle_on_multi_machine_schedules(
        jobs in arb_jobs(20, 24),
        machines in 2usize..4,
        dirt in arb_jobs(12, 24),
    ) {
        let multi = iterative_multi_machine(&jobs, &all_ids(&jobs), machines, |js, rem| {
            greedy_unbounded(js, rem).schedule
        });
        let laminar = laminarize(&jobs, &multi).unwrap();
        assert_reconstruct_matches_oracle(&jobs, &laminar, &dirt)?;
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
