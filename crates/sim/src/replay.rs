//! Replaying an *offline* schedule on a machine with context-switch costs,
//! and choosing the preemption budget `k` that maximizes replayed value —
//! the practical decision the paper's theory informs.
//!
//! Semantics of [`replay_with_overhead`]: the machine follows the offline
//! plan's segments in time order. Loading a job that is not currently
//! loaded costs `δ` ticks *before* the segment's work, paid from the
//! preceding idle gap when possible; any shortfall delays the segment (and
//! everything after it on the machine). A job whose delayed segment would
//! end after its deadline is dropped on the spot, together with its
//! not-yet-executed segments (its already-executed work is wasted machine
//! time, as in a real system). Dropping frees the dropped segments' slots,
//! which pulls later work earlier again.
//!
//! [`choose_k`] then answers: *given my switch cost, how many preemptions
//! per job should I allow?* It sweeps `k`, solves the Theorem 4.2
//! reduction for each from one k-independent [`ReductionPlan`], replays it
//! under `δ`, and returns every row with the best plan marked. As `δ`
//! grows the winning `k` falls — experiment E12's crossover, packaged as
//! an API.

use crate::online::SimOutcome;
use crate::trace::{ExecEvent, ExecTrace};
use pobp_core::{Interval, JobId, JobSet, Schedule, SegmentSet, Time};
use pobp_sched::{KbasSolver, ReductionPlan, SolveWorkspace};

/// Replays `plan` (a feasible offline schedule, machine 0 only) on a
/// machine with switch cost `delta`.
///
/// Returns the executed outcome: completed jobs keep Definition 2.1
/// feasibility; dropped jobs are listed with their wasted work visible in
/// the trace.
///
/// # Panics
/// Panics if `plan` uses machines other than 0 (replay one machine at a
/// time) or is infeasible for `jobs`.
pub fn replay_with_overhead(jobs: &JobSet, plan: &Schedule, delta: Time) -> SimOutcome {
    assert!(delta >= 0, "negative switch cost");
    plan.verify(jobs, None).expect("replay needs a feasible plan");
    assert!(
        plan.machines().iter().all(|&m| m == 0),
        "replay_with_overhead handles one machine (0) at a time"
    );
    // The plan as a time-ordered segment list.
    let mut segs: Vec<(Interval, JobId)> = Vec::new();
    for (id, a) in plan.iter() {
        segs.extend(a.segs.iter().map(|s| (*s, id)));
    }
    segs.sort_unstable_by_key(|(s, _)| (s.start, s.end));

    let mut trace = ExecTrace::default();
    let mut schedule = Schedule::new();
    let mut dropped: Vec<JobId> = Vec::new();
    let mut dropped_set: std::collections::HashSet<JobId> = Default::default();
    let mut pieces: std::collections::HashMap<JobId, Vec<Interval>> = Default::default();
    let mut done_work: std::collections::HashMap<JobId, Time> = Default::default();
    let mut started: std::collections::HashSet<JobId> = Default::default();
    let mut loaded: Option<JobId> = None;
    let mut t = Time::MIN;

    for &(seg, id) in &segs {
        if dropped_set.contains(&id) {
            continue; // remaining segments of a dropped job are skipped
        }
        let job = jobs.job(id);
        // Earliest the machine is free, but never before the plan said (the
        // plan's start respects the release time; we only ever shift right).
        let mut start = t.max(seg.start);
        if loaded != Some(id) && delta > 0 {
            // Pay the switch; it can start as soon as the machine is free,
            // but the work cannot start before the planned start.
            let switch_begin = t.max(seg.start - delta);
            let switch_end = switch_begin + delta;
            trace.push(switch_begin, ExecEvent::OverheadBegin);
            trace.overhead.push(Interval::new(switch_begin, switch_end));
            trace.push(switch_end, ExecEvent::OverheadEnd);
            start = start.max(switch_end);
        }
        let end = start + seg.len();
        if end > job.deadline {
            // Too late: drop the job (and its future segments).
            trace.push(start, ExecEvent::Abort(id));
            dropped_set.insert(id);
            dropped.push(id);
            // Note: its past work (if any) stays in the trace as waste.
            // The machine did NOT run this segment; also un-pay the switch?
            // A real dispatcher knows the deadline before switching, so we
            // refund the overhead interval we just tentatively recorded.
            if loaded != Some(id) && delta > 0 {
                trace.overhead.pop();
                trace.events.pop();
                trace.events.pop();
                trace.events.pop(); // Abort + OverheadEnd + OverheadBegin
                trace.push(t, ExecEvent::Abort(id));
            }
            continue;
        }
        if loaded != Some(id) {
            loaded = Some(id);
            if started.insert(id) {
                trace.push(start, ExecEvent::Start(id));
            } else {
                trace.push(start, ExecEvent::Resume(id));
            }
        }
        trace.work.push((id, Interval::new(start, end)));
        pieces.entry(id).or_default().push(Interval::new(start, end));
        *done_work.entry(id).or_insert(0) += seg.len();
        t = end;
        if done_work[&id] == job.length {
            trace.push(t, ExecEvent::Complete(id));
            schedule.assign_single(id, SegmentSet::from_intervals(pieces.remove(&id).unwrap()));
        }
    }
    // Jobs with executed-but-incomplete work were never formally dropped
    // above only if their *last* segments were skipped... collect them.
    for (id, _) in plan.iter() {
        if schedule.segments(id).is_none() && !dropped_set.contains(&id) {
            dropped.push(id);
        }
    }
    dropped.sort_unstable();
    dropped.dedup();
    debug_assert!(trace.check().is_ok(), "{:?}", trace.check());
    SimOutcome { trace, schedule, dropped }
}

/// One row of [`choose_k`]'s table: the plan at one budget.
#[derive(Clone, Debug)]
pub struct PlanChoice {
    /// The preemption budget.
    pub k: u32,
    /// The offline plan (Theorem 4.2 reduction at `k`).
    pub plan: Schedule,
    /// Replayed value under the given switch cost.
    pub replayed_value: f64,
    /// Value of the plan if switches were free (for comparison).
    pub planned_value: f64,
}

/// Every row [`choose_k`] computed, and its pick.
#[derive(Clone, Debug)]
pub struct KChoice {
    /// One row per budget: `rows[k]` is the plan at `k`, for
    /// `k ∈ 0..=k_max`.
    pub rows: Vec<PlanChoice>,
    /// Index into `rows` of the chosen plan: the smallest `k` with the
    /// highest replayed value.
    pub pick: usize,
}

impl KChoice {
    /// The chosen row.
    pub fn chosen(&self) -> &PlanChoice {
        &self.rows[self.pick]
    }
}

/// Sweeps `k ∈ 0..=k_max`, solves `plan` — the k-independent prefix of
/// the Theorem 4.2 reduction of a feasible `∞`-preemptive single-machine
/// schedule — at each `k`, replays the result at switch cost `delta`, and
/// returns every row with the best-performing one picked.
///
/// Build `plan` with [`ReductionPlan::from_edf`] when the schedule is an
/// EDF output (`pobp_sched::greedy_unbounded`, or `pobp_sched::edf_schedule`
/// without an availability restriction), which is its own laminarization,
/// and with [`ReductionPlan::new`] otherwise.
///
/// ```
/// use pobp_core::{Job, JobId, JobSet};
/// use pobp_sched::ReductionPlan;
/// use pobp_sim::choose_k;
///
/// let jobs: JobSet = vec![
///     Job::new(0, 26, 12, 6.0),
///     Job::new(2, 12, 4, 3.0),
/// ].into_iter().collect();
/// let ids = [JobId(0), JobId(1)];
/// let inf = pobp_sched::edf_schedule(&jobs, &ids, None);
/// let plan = ReductionPlan::from_edf(&jobs, &inf.schedule);
/// // Free switches: the largest budget wins (keeps everything).
/// let choice = choose_k(&jobs, &plan, 0, 2);
/// assert_eq!(choice.rows.len(), 3);
/// assert_eq!(choice.chosen().replayed_value, jobs.total_value());
/// ```
pub fn choose_k(jobs: &JobSet, plan: &ReductionPlan, delta: Time, k_max: u32) -> KChoice {
    let mut ws = SolveWorkspace::new();
    let rows: Vec<PlanChoice> = (0..=k_max)
        .map(|k| {
            let red = plan.solve_ws(jobs, k, KbasSolver::Tm, &mut ws);
            let replay = replay_with_overhead(jobs, &red.schedule, delta);
            PlanChoice {
                k,
                planned_value: red.schedule.value(jobs),
                replayed_value: replay.value(jobs),
                plan: red.schedule,
            }
        })
        .collect();
    let better = |best: usize, k: usize| rows[k].replayed_value > rows[best].replayed_value;
    let pick = (0..rows.len()).fold(0, |best, k| if better(best, k) { k } else { best });
    KChoice { rows, pick }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::Job;

    fn seg_set(pairs: &[(Time, Time)]) -> SegmentSet {
        SegmentSet::from_intervals(pairs.iter().map(|&(a, b)| Interval::new(a, b)))
    }

    #[test]
    fn zero_cost_replay_is_identity() {
        let jobs: JobSet = vec![Job::new(0, 10, 4, 1.0), Job::new(2, 8, 3, 1.0)]
            .into_iter()
            .collect();
        let mut plan = Schedule::new();
        plan.assign_single(JobId(0), seg_set(&[(0, 2), (5, 7)]));
        plan.assign_single(JobId(1), seg_set(&[(2, 5)]));
        let out = replay_with_overhead(&jobs, &plan, 0);
        assert!(out.dropped.is_empty());
        assert_eq!(out.schedule, plan);
        assert_eq!(out.trace.overhead_time(), 0);
    }

    #[test]
    fn overhead_absorbed_by_idle_gaps() {
        // Gaps of 2 before each switch: δ = 2 fits without delaying work.
        let jobs: JobSet = vec![Job::new(0, 20, 3, 1.0), Job::new(0, 20, 3, 1.0)]
            .into_iter()
            .collect();
        let mut plan = Schedule::new();
        plan.assign_single(JobId(0), seg_set(&[(2, 5)]));
        plan.assign_single(JobId(1), seg_set(&[(7, 10)]));
        let out = replay_with_overhead(&jobs, &plan, 2);
        assert!(out.dropped.is_empty());
        assert_eq!(out.schedule.segments(JobId(0)).unwrap(), &seg_set(&[(2, 5)]));
        assert_eq!(out.schedule.segments(JobId(1)).unwrap(), &seg_set(&[(7, 10)]));
        assert_eq!(out.trace.switches(), 2);
    }

    #[test]
    fn overhead_delays_back_to_back_switches() {
        let jobs: JobSet = vec![Job::new(0, 20, 3, 1.0), Job::new(0, 20, 3, 1.0)]
            .into_iter()
            .collect();
        let mut plan = Schedule::new();
        plan.assign_single(JobId(0), seg_set(&[(0, 3)]));
        plan.assign_single(JobId(1), seg_set(&[(3, 6)]));
        let out = replay_with_overhead(&jobs, &plan, 2);
        assert!(out.dropped.is_empty());
        // The cold load is paid in the idle time before t = 0 (a dispatcher
        // pre-loads), so j0 runs on time; j1's switch has no gap and shifts
        // it right by δ.
        assert_eq!(out.schedule.segments(JobId(0)).unwrap(), &seg_set(&[(0, 3)]));
        assert_eq!(out.schedule.segments(JobId(1)).unwrap(), &seg_set(&[(5, 8)]));
        assert_eq!(out.trace.overhead_time(), 4);
    }

    #[test]
    fn doomed_segment_drops_job_and_frees_time() {
        // A blocker runs first, so the tight job's switch cannot hide in
        // idle time; δ pushes it past its deadline → dropped. The third
        // job then completes unaffected.
        let jobs: JobSet = vec![
            Job::new(0, 2, 2, 1.0),  // blocker
            Job::new(0, 5, 3, 1.0),  // tight: planned [2,5), dies under δ=1
            Job::new(0, 20, 3, 5.0),
        ]
        .into_iter()
        .collect();
        let mut plan = Schedule::new();
        plan.assign_single(JobId(0), seg_set(&[(0, 2)]));
        plan.assign_single(JobId(1), seg_set(&[(2, 5)]));
        plan.assign_single(JobId(2), seg_set(&[(5, 8)]));
        let out = replay_with_overhead(&jobs, &plan, 1);
        assert_eq!(out.dropped, vec![JobId(1)]);
        assert_eq!(out.schedule.len(), 2);
        // The dropped job's slot is freed: j2 runs right after its switch.
        let j2 = out.schedule.segments(JobId(2)).unwrap();
        assert_eq!(j2, &seg_set(&[(5, 8)]));
        out.schedule.verify(&jobs, None).unwrap();
        out.trace.check().unwrap();
    }

    #[test]
    fn dropped_jobs_future_segments_are_skipped() {
        // A two-segment job whose first segment gets delayed past a point
        // where the *second* cannot complete... simpler: make its second
        // segment end exactly at the deadline so any delay kills it, and
        // check the other job is unaffected.
        let jobs: JobSet = vec![Job::new(0, 6, 4, 1.0), Job::new(0, 20, 2, 1.0)]
            .into_iter()
            .collect();
        let mut plan = Schedule::new();
        plan.assign_single(JobId(0), seg_set(&[(0, 2), (4, 6)]));
        plan.assign_single(JobId(1), seg_set(&[(2, 4)]));
        // δ = 1: j0's first segment shifts to [1,3); j1 [4,6); j0's second
        // segment would need [7,9) > deadline 6 → dropped. j1 completes.
        let out = replay_with_overhead(&jobs, &plan, 1);
        assert_eq!(out.dropped, vec![JobId(0)]);
        assert!(out.schedule.segments(JobId(1)).is_some());
        // j0's first piece is wasted work in the trace.
        assert!(out.trace.work_time() > 2);
    }

    #[test]
    fn choose_k_prefers_large_k_at_zero_cost() {
        // Heavy nesting: larger k keeps more value, and δ = 0 is free.
        let jobs: JobSet = vec![
            Job::new(0, 26, 12, 6.0),
            Job::new(2, 12, 4, 3.0),
            Job::new(3, 7, 2, 2.0),
            Job::new(14, 20, 3, 2.0),
        ]
        .into_iter()
        .collect();
        let ids: Vec<JobId> = jobs.ids().collect();
        let inf = pobp_sched::edf_schedule(&jobs, &ids, None);
        let choice = choose_k(&jobs, &ReductionPlan::from_edf(&jobs, &inf.schedule), 0, 3);
        let chosen = choice.chosen();
        assert_eq!(chosen.replayed_value, chosen.planned_value);
        assert_eq!(chosen.replayed_value, jobs.total_value());
        // Every row is there, in budget order, each at δ = 0 replaying its
        // own plan's value.
        assert_eq!(choice.rows.iter().map(|r| r.k).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert!(choice.rows.iter().all(|r| r.replayed_value == r.planned_value));
    }

    #[test]
    fn choose_k_shrinks_k_as_cost_grows() {
        // The E12 bimodal workload in miniature.
        let mut jobs = JobSet::new();
        for i in 0..4i64 {
            jobs.push(Job::new(30 * i, 30 * i + 200, 40, 40.0));
        }
        for i in 0..12i64 {
            jobs.push(Job::new(12 * i, 12 * i + 8, 3, 3.0));
        }
        let ids: Vec<JobId> = jobs.ids().collect();
        let inf = pobp_sched::greedy_unbounded(&jobs, &ids);
        let plan = ReductionPlan::from_edf(&jobs, &inf.schedule);
        let cheap = choose_k(&jobs, &plan, 0, 4);
        let pricey = choose_k(&jobs, &plan, 6, 4);
        let (cheap, pricey) = (cheap.chosen(), pricey.chosen());
        assert!(
            pricey.k <= cheap.k,
            "expected smaller k at high cost: {} vs {}",
            pricey.k,
            cheap.k
        );
        assert!(pricey.replayed_value <= cheap.replayed_value + 1e-9);
    }

    #[test]
    #[should_panic(expected = "one machine")]
    fn replay_rejects_multi_machine_plans() {
        let jobs: JobSet = vec![Job::new(0, 10, 2, 1.0)].into_iter().collect();
        let mut plan = Schedule::new();
        plan.assign(JobId(0), 1, seg_set(&[(0, 2)]));
        let _ = replay_with_overhead(&jobs, &plan, 1);
    }
}
