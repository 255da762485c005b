//! The Figure 1 rearrangement (§4.1): making the *preempts* relation laminar.
//!
//! The paper observes that any feasible schedule can be rearranged — with no
//! loss of value — so that a segment of `B` lies between two segments of `A`
//! iff no segment of `A` lies between two segments of `B`. Instead of
//! applying the pairwise exchange of Figure 1 until fixpoint, we laminarize
//! *globally*: re-run deterministic EDF restricted to the original
//! schedule's busy timeline (per machine). The original schedule is a
//! witness that its own job set is feasible inside that timeline, EDF is
//! feasibility-optimal under restricted availability, and deterministic EDF
//! output is laminar (see the proof sketch in `edf.rs`). The result is a
//! feasible schedule of the *same* jobs inside the *same* busy time, with a
//! laminar preemption structure — exactly what the schedule-forest
//! construction of §4.1 needs.

use crate::edf::{edf_core, edf_schedule_reference};
use crate::workspace::SolveWorkspace;
use pobp_core::{obs_count, Infeasibility, JobId, JobSet, Schedule};

/// Whether the single-machine schedule's preemption structure is laminar:
/// no two jobs interleave as `a₁ ≺ b₁ ≺ a₂ ≺ b₂`.
///
/// Runs a sweep over all segments with a stack of *open* jobs (jobs whose
/// span — first segment start to last segment end — contains the current
/// time). A schedule is laminar iff whenever a segment of an already-open
/// job arrives, that job is the top of the stack.
pub fn is_laminar(schedule: &Schedule) -> bool {
    for machine in schedule.machines() {
        if !machine_is_laminar(schedule, machine) {
            return false;
        }
    }
    true
}

fn machine_is_laminar(schedule: &Schedule, machine: usize) -> bool {
    // (start, end, job) of every segment on the machine, in time order.
    let mut segs: Vec<(i64, i64, JobId)> = Vec::new();
    let mut span_end: std::collections::HashMap<JobId, i64> = std::collections::HashMap::new();
    for (id, a) in schedule.iter() {
        if a.machine != machine {
            continue;
        }
        for s in a.segs.iter() {
            segs.push((s.start, s.end, id));
        }
        span_end.insert(id, a.segs.max_end().expect("non-empty assignment"));
    }
    segs.sort_unstable();
    let mut stack: Vec<JobId> = Vec::new();
    let mut open: std::collections::HashSet<JobId> = std::collections::HashSet::new();
    for (start, _end, id) in segs {
        while let Some(&top) = stack.last() {
            if span_end[&top] <= start {
                stack.pop();
                open.remove(&top);
            } else {
                break;
            }
        }
        if open.contains(&id) {
            if stack.last() != Some(&id) {
                return false; // segment of a non-top open job → interleaving
            }
        } else {
            stack.push(id);
            open.insert(id);
        }
    }
    true
}

/// Rearranges `schedule` into an equivalent laminar one (same jobs, same
/// per-machine busy timeline, no value change), per machine.
///
/// ```
/// use pobp_core::{Interval, Job, JobId, JobSet, Schedule, SegmentSet};
/// use pobp_sched::{is_laminar, laminarize};
///
/// let jobs: JobSet = vec![Job::new(0, 4, 2, 1.0), Job::new(0, 4, 2, 1.0)]
///     .into_iter().collect();
/// // The forbidden ABAB interleaving…
/// let mut s = Schedule::new();
/// s.assign_single(JobId(0), SegmentSet::from_intervals([
///     Interval::new(0, 1), Interval::new(2, 3)]));
/// s.assign_single(JobId(1), SegmentSet::from_intervals([
///     Interval::new(1, 2), Interval::new(3, 4)]));
/// assert!(!is_laminar(&s));
/// // …untangled with no loss of value or busy time.
/// let lam = laminarize(&jobs, &s).unwrap();
/// assert!(is_laminar(&lam));
/// assert_eq!(lam.value(&jobs), s.value(&jobs));
/// ```
///
/// # Errors
/// Returns the original schedule's infeasibility if it was not feasible to
/// begin with (the rearrangement is only defined for feasible schedules).
pub fn laminarize(jobs: &JobSet, schedule: &Schedule) -> Result<Schedule, Infeasibility> {
    laminarize_ws(jobs, schedule, &mut SolveWorkspace::new())
}

/// [`laminarize`] with caller-provided scratch memory (see
/// [`SolveWorkspace`]). Identical output.
///
/// # Errors
/// Returns the original schedule's infeasibility if it was not feasible to
/// begin with.
pub fn laminarize_ws(
    jobs: &JobSet,
    schedule: &Schedule,
    ws: &mut SolveWorkspace,
) -> Result<Schedule, Infeasibility> {
    schedule.verify(jobs, None)?;
    obs_count!("sched.laminarize.runs");
    let mut out = Schedule::new();
    for machine in schedule.machines() {
        obs_count!("sched.laminarize.machines");
        ws.sf.on_machine.clear();
        ws.sf.on_machine.extend(
            schedule
                .iter()
                .filter(|(_, a)| a.machine == machine)
                .map(|(id, _)| id),
        );
        let busy = schedule.busy(machine);
        let edf = edf_core(jobs, &ws.sf.on_machine, Some(&busy), &mut ws.edf);
        // The original schedule witnesses feasibility within `busy`, and EDF
        // is optimal under restricted availability — no job can miss.
        assert!(
            edf.is_feasible(),
            "laminarize: EDF missed {:?} inside a witnessed-feasible timeline",
            edf.missed
        );
        for (id, a) in edf.schedule.iter() {
            out.assign(id, machine, a.segs.clone());
        }
    }
    debug_assert!(is_laminar(&out));
    Ok(out)
}

/// Whether `schedule` is feasible and [`laminarize`] would return it
/// unchanged: the precondition of [`crate::ReductionPlan::from_edf`], which
/// debug builds assert. It recomputes each machine's restricted EDF run with
/// [`crate::edf_schedule_reference`], the oracle `edf_core` is tested
/// against, which fires no `obs` counter: the check leaves the counts of
/// the work it guards unchanged.
pub(crate) fn is_own_laminarization(jobs: &JobSet, schedule: &Schedule) -> bool {
    schedule.verify(jobs, None).is_ok()
        && schedule.machines().into_iter().all(|machine| {
            let on: Vec<JobId> = schedule
                .iter()
                .filter(|(_, a)| a.machine == machine)
                .map(|(id, _)| id)
                .collect();
            let edf = edf_schedule_reference(jobs, &on, Some(&schedule.busy(machine)));
            edf.is_feasible()
                && edf.schedule.iter().all(|(id, a)| schedule.segments(id) == Some(&a.segs))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::{Interval, Job, SegmentSet};

    fn seg_set(pairs: &[(i64, i64)]) -> SegmentSet {
        SegmentSet::from_intervals(pairs.iter().map(|&(a, b)| Interval::new(a, b)))
    }

    #[test]
    fn detects_interleaving() {
        let mut s = Schedule::new();
        // A: [0,1) and [2,3); B: [1,2) and [3,4) — the forbidden pattern.
        s.assign_single(JobId(0), seg_set(&[(0, 1), (2, 3)]));
        s.assign_single(JobId(1), seg_set(&[(1, 2), (3, 4)]));
        assert!(!is_laminar(&s));
    }

    #[test]
    fn accepts_nesting_and_sequence() {
        let mut s = Schedule::new();
        // A: [0,1) and [4,5); B entirely inside A's gap; C after everything.
        s.assign_single(JobId(0), seg_set(&[(0, 1), (4, 5)]));
        s.assign_single(JobId(1), seg_set(&[(1, 3)]));
        s.assign_single(JobId(2), seg_set(&[(6, 8)]));
        assert!(is_laminar(&s));
    }

    #[test]
    fn accepts_deep_nesting() {
        let mut s = Schedule::new();
        // A ⊃ B ⊃ C, matryoshka.
        s.assign_single(JobId(0), seg_set(&[(0, 1), (8, 9)]));
        s.assign_single(JobId(1), seg_set(&[(1, 2), (6, 8)]));
        s.assign_single(JobId(2), seg_set(&[(2, 6)]));
        assert!(is_laminar(&s));
    }

    #[test]
    fn rejects_cross_nesting_three_jobs() {
        let mut s = Schedule::new();
        // B starts inside A's gap but ends after A resumes elsewhere:
        // A [0,1), [4,5); B [1,2), [5,6): interleaved.
        s.assign_single(JobId(0), seg_set(&[(0, 1), (4, 5)]));
        s.assign_single(JobId(1), seg_set(&[(1, 2), (5, 6)]));
        s.assign_single(JobId(2), seg_set(&[(2, 4)]));
        assert!(!is_laminar(&s));
    }

    #[test]
    fn different_machines_do_not_interact() {
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, seg_set(&[(0, 1), (2, 3)]));
        s.assign(JobId(1), 1, seg_set(&[(1, 2), (3, 4)]));
        assert!(is_laminar(&s));
    }

    #[test]
    fn laminarize_fixes_interleaving() {
        // Jobs with enough slack to be rearranged: the classic ABAB.
        let jobs: JobSet = vec![Job::new(0, 4, 2, 1.0), Job::new(0, 4, 2, 1.0)]
            .into_iter()
            .collect();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), seg_set(&[(0, 1), (2, 3)]));
        s.assign_single(JobId(1), seg_set(&[(1, 2), (3, 4)]));
        assert!(!is_laminar(&s));
        let lam = laminarize(&jobs, &s).unwrap();
        assert!(is_laminar(&lam));
        lam.verify(&jobs, None).unwrap();
        // Same jobs, same value, same busy time.
        assert_eq!(lam.len(), 2);
        assert_eq!(lam.value(&jobs), s.value(&jobs));
        assert_eq!(lam.busy(0), s.busy(0));
    }

    #[test]
    fn laminarize_preserves_feasible_laminar_input() {
        let jobs: JobSet = vec![Job::new(0, 10, 4, 1.0), Job::new(1, 6, 2, 2.0)]
            .into_iter()
            .collect();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), seg_set(&[(0, 1), (3, 6)]));
        s.assign_single(JobId(1), seg_set(&[(1, 3)]));
        let lam = laminarize(&jobs, &s).unwrap();
        lam.verify(&jobs, None).unwrap();
        assert!(is_laminar(&lam));
        assert_eq!(lam.busy(0), s.busy(0));
        assert_eq!(lam.len(), 2);
    }

    #[test]
    fn laminarize_rejects_infeasible_input() {
        let jobs: JobSet = vec![Job::new(0, 4, 2, 1.0)].into_iter().collect();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), seg_set(&[(0, 3)])); // wrong length
        assert!(laminarize(&jobs, &s).is_err());
    }

    #[test]
    fn laminarize_multi_machine() {
        let jobs: JobSet = vec![
            Job::new(0, 4, 2, 1.0),
            Job::new(0, 4, 2, 1.0),
            Job::new(0, 4, 2, 1.0),
            Job::new(0, 4, 2, 1.0),
        ]
        .into_iter()
        .collect();
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, seg_set(&[(0, 1), (2, 3)]));
        s.assign(JobId(1), 0, seg_set(&[(1, 2), (3, 4)]));
        s.assign(JobId(2), 1, seg_set(&[(0, 1), (2, 3)]));
        s.assign(JobId(3), 1, seg_set(&[(1, 2), (3, 4)]));
        let lam = laminarize(&jobs, &s).unwrap();
        assert!(is_laminar(&lam));
        lam.verify(&jobs, None).unwrap();
        assert_eq!(lam.machines(), vec![0, 1]);
    }

    #[test]
    fn single_segments_are_trivially_laminar() {
        let mut s = Schedule::new();
        s.assign_single(JobId(0), seg_set(&[(0, 5)]));
        s.assign_single(JobId(1), seg_set(&[(5, 7)]));
        assert!(is_laminar(&s));
        assert!(is_laminar(&Schedule::new()));
    }
}
