//! Non-paper baselines used by the benches and as `OPT_∞` surrogates on
//! instances too large for the exact branch-and-bound.

use crate::edf::{edf_core, edf_schedule, EdfOutcome};
use crate::workspace::SolveWorkspace;
use pobp_core::{JobId, JobSet, Schedule};

/// Greedy `∞`-preemptive acceptance: consider jobs in descending density
/// order, accept a job iff the accepted set stays EDF-feasible. Returns the
/// accepted set's EDF schedule.
///
/// Not an approximation with a proven factor (that would be Lawler's DP);
/// on the structured instances of this repository it is exact whenever the
/// full set is feasible, which is what the large-scale experiments use.
pub fn greedy_unbounded(jobs: &JobSet, ids: &[JobId]) -> EdfOutcome {
    greedy_unbounded_ws(jobs, ids, &mut SolveWorkspace::new())
}

/// [`greedy_unbounded`] with caller-provided scratch memory. Each of the
/// `n` yes/no questions is a feasibility probe that builds no schedule and
/// simulates only the busy period its candidate lands in; EDF builds one
/// schedule, of the accepted set, at the end. EDF decides feasibility
/// exactly, so the accepted set and the schedule are the ones a full EDF
/// run per candidate would give.
///
/// # Panics
/// When `ids` names one job twice and its first copy was accepted.
pub fn greedy_unbounded_ws(jobs: &JobSet, ids: &[JobId], ws: &mut SolveWorkspace) -> EdfOutcome {
    let probe = &mut ws.probe;
    probe.begin();
    probe.order.extend_from_slice(ids);
    probe.order.sort_by(|&a, &b| {
        jobs.job(b)
            .density()
            .partial_cmp(&jobs.job(a).density())
            .expect("finite densities")
            .then(a.cmp(&b))
    });
    for i in 0..probe.order.len() {
        let j = probe.order[i];
        probe.try_add(jobs, j);
    }
    // `edf_core`'s output does not depend on the subset's order.
    probe.order.clear();
    probe.order.extend(probe.by_release.iter().map(|&(_, j)| j));
    edf_core(jobs, &probe.order, None, &mut ws.edf)
}

/// Baseline: run unbounded EDF, then simply *drop* every job that ended up
/// with more than `k + 1` segments. Feasible (removing jobs preserves
/// feasibility) but can lose almost everything — the benches show the
/// reduction of §4.2 beating it on nested workloads.
pub fn edf_truncate(jobs: &JobSet, ids: &[JobId], k: u32) -> Schedule {
    let out = edf_schedule(jobs, ids, None);
    let keep: Vec<JobId> = out
        .schedule
        .scheduled_ids()
        .filter(|&j| out.schedule.preemptions(j) <= k as usize)
        .collect();
    out.schedule.restricted_to(&keep)
}

/// Baseline: greedy non-preemptive by *value* (not density) without length
/// classes — the strawman that Algorithm 2's density order and
/// classify-and-select improve upon (ablation E10).
pub fn greedy_nonpreemptive_by_value(jobs: &JobSet, ids: &[JobId]) -> Schedule {
    let mut order = ids.to_vec();
    order.sort_by(|&a, &b| {
        jobs.job(b)
            .value
            .partial_cmp(&jobs.job(a).value)
            .expect("finite values")
            .then(a.cmp(&b))
    });
    let mut timeline = pobp_core::Timeline::new();
    let mut schedule = Schedule::new();
    for j in order {
        let job = jobs.job(j);
        let idle = timeline.idle_within(&job.window());
        if let Some(slot) = idle.leftmost_fit(job.length, job.release) {
            timeline.allocate_one(slot).expect("idle slot was busy");
            schedule.assign_single(j, pobp_core::SegmentSet::singleton(slot));
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::Job;

    fn ids_of(n: usize) -> Vec<JobId> {
        (0..n).map(JobId).collect()
    }

    #[test]
    fn greedy_unbounded_accepts_feasible_set() {
        let jobs: JobSet = vec![
            Job::new(0, 10, 3, 1.0),
            Job::new(0, 10, 3, 2.0),
            Job::new(0, 10, 3, 3.0),
        ]
        .into_iter()
        .collect();
        let out = greedy_unbounded(&jobs, &ids_of(3));
        assert!(out.is_feasible());
        assert_eq!(out.schedule.len(), 3);
    }

    #[test]
    fn greedy_unbounded_rejects_overload_by_density() {
        let jobs: JobSet = vec![
            Job::new(0, 4, 4, 8.0), // density 2
            Job::new(0, 4, 4, 4.0), // density 1 — rejected
        ]
        .into_iter()
        .collect();
        let out = greedy_unbounded(&jobs, &ids_of(2));
        assert_eq!(out.schedule.len(), 1);
        assert!(out.schedule.segments(JobId(0)).is_some());
    }

    #[test]
    fn edf_truncate_enforces_bound() {
        // Deeply nested preemptions: the outer job accumulates segments.
        let jobs: JobSet = vec![
            Job::new(0, 30, 10, 1.0),
            Job::new(2, 8, 2, 1.0),
            Job::new(10, 16, 2, 1.0),
            Job::new(18, 24, 2, 1.0),
        ]
        .into_iter()
        .collect();
        let s = edf_truncate(&jobs, &ids_of(4), 3);
        s.verify(&jobs, Some(3)).unwrap();
        assert_eq!(s.len(), 4); // 3 preemptions allowed → outer job survives
        let s1 = edf_truncate(&jobs, &ids_of(4), 1);
        s1.verify(&jobs, Some(1)).unwrap();
        assert_eq!(s1.len(), 3); // outer job dropped
    }

    #[test]
    fn greedy_by_value_is_en_bloc() {
        let jobs: JobSet = vec![Job::new(0, 10, 4, 1.0), Job::new(0, 10, 4, 5.0)]
            .into_iter()
            .collect();
        let s = greedy_nonpreemptive_by_value(&jobs, &ids_of(2));
        s.verify(&jobs, Some(0)).unwrap();
        assert_eq!(s.len(), 2);
        // The valuable job got the leftmost slot.
        assert_eq!(
            s.segments(JobId(1)).unwrap().segments(),
            &[pobp_core::Interval::new(0, 4)]
        );
    }
}
