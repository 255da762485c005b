//! Preemptive Earliest-Deadline-First on a single machine.
//!
//! EDF is the classical feasibility-optimal policy for
//! `1 | pmtn, r_j | ·`: a job subset can be feasibly scheduled with
//! unbounded preemption iff EDF completes every job by its deadline. We use
//! it in three roles:
//!
//! 1. **Feasibility oracle** — a *probe*: EDF run for its verdict alone,
//!    building no schedule. [`edf_feasible`] decides Definition 2.1
//!    feasibility of a whole subset, and so does each node of the exact
//!    `OPT_∞` branch-and-bound; [`crate::greedy_unbounded`] asks whether
//!    one more job still fits, simulating only the busy period that job
//!    lands in (see the busy-window argument on `ProbeScratch::try_add`);
//! 2. **Witness generator** — [`edf_schedule`] produces the concrete
//!    `∞`-preemptive schedule that the §4.1 reduction consumes;
//! 3. **Laminarizer** — with a *machine availability* restriction,
//!    re-running EDF inside an existing schedule's busy timeline yields an
//!    interleaving-free rearrangement of it (see `laminar.rs`).
//!
//! **Laminarity.** With a deterministic tie-break (deadline, then job id),
//! EDF schedules are laminar: if segments interleaved as
//! `a₁ ≺ b₁ ≺ a₂ ≺ b₂`, then at `b₁` EDF preferred `B` over the available,
//! unfinished `A` (so `B` strictly precedes `A` in priority order), yet at
//! `a₂` it preferred `A` over the available, unfinished `B` — a
//! contradiction. The argument never uses continuous machine availability,
//! so it survives the availability-restricted variant. This is exactly the
//! Figure 1 rearrangement invariant, and `laminar.rs` tests it.

use crate::workspace::{EdfScratch, ProbeScratch, SolveWorkspace};
use pobp_core::{obs_count, Interval, JobId, JobSet, Schedule, SegmentSet, Time};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Outcome of an EDF run.
#[derive(Clone, Debug)]
pub struct EdfOutcome {
    /// The schedule of the jobs that *completed by their deadlines*.
    /// Jobs that missed are aborted at their deadline and excluded entirely
    /// (their partial segments are discarded), so `schedule` is always
    /// feasible for the jobs it contains.
    pub schedule: Schedule,
    /// Jobs that could not be completed (empty iff the subset is feasible).
    pub missed: Vec<JobId>,
}

impl EdfOutcome {
    /// Whether every requested job completed on time.
    pub fn is_feasible(&self) -> bool {
        self.missed.is_empty()
    }
}

/// Runs preemptive EDF for `subset` on machine 0, optionally restricted to
/// run only within `availability` (a set of allowed machine-time segments).
///
/// `availability = None` means the machine is always available. Duplicate
/// ids in `subset` are rejected by a panic (they would be two copies of one
/// job).
///
/// ```
/// use pobp_core::{Job, JobId, JobSet};
/// use pobp_sched::{edf_feasible, edf_schedule};
///
/// let jobs: JobSet = vec![
///     Job::new(0, 20, 8, 1.0),
///     Job::new(1, 5, 3, 1.0),   // earlier deadline → preempts job 0
/// ].into_iter().collect();
/// let ids = [JobId(0), JobId(1)];
/// assert!(edf_feasible(&jobs, &ids));
/// let out = edf_schedule(&jobs, &ids, None);
/// assert!(out.is_feasible());
/// assert_eq!(out.schedule.preemptions(JobId(0)), 1);
/// ```
pub fn edf_schedule(
    jobs: &JobSet,
    subset: &[JobId],
    availability: Option<&SegmentSet>,
) -> EdfOutcome {
    edf_core(jobs, subset, availability, &mut EdfScratch::default())
}

/// [`edf_schedule`] with caller-provided scratch memory (see
/// [`SolveWorkspace`]). Identical output; the per-job state arrays, release
/// list and ready queue keep their capacity across calls.
pub fn edf_schedule_ws(
    jobs: &JobSet,
    subset: &[JobId],
    availability: Option<&SegmentSet>,
    ws: &mut SolveWorkspace,
) -> EdfOutcome {
    edf_core(jobs, subset, availability, &mut ws.edf)
}

pub(crate) fn edf_core(
    jobs: &JobSet,
    subset: &[JobId],
    availability: Option<&SegmentSet>,
    es: &mut EdfScratch,
) -> EdfOutcome {
    obs_count!("sched.edf.runs");
    if availability.is_some() {
        obs_count!("sched.edf.restricted_runs");
    }
    let mut outcome = EdfOutcome { schedule: Schedule::new(), missed: Vec::new() };
    if subset.is_empty() {
        return outcome;
    }
    // Availability as a segment list; `None` → one segment covering every
    // window in the subset.
    let default_avail;
    let avail: &[Interval] = match availability {
        Some(a) => a.segments(),
        None => {
            let lo = subset.iter().map(|&j| jobs.job(j).release).min().unwrap();
            let hi = subset.iter().map(|&j| jobs.job(j).deadline).max().unwrap();
            default_avail = [Interval::new(lo, hi)];
            &default_avail
        }
    };

    // Per-job state: flat arrays indexed by the dense job id, stamped with
    // this call's epoch (a stale stamp means "not in this subset"). The
    // stamp doubles as the duplicate check.
    let epoch = es.begin(jobs.len());
    let EdfScratch { remaining, placed, stamp, releases, ready, .. } = es;
    for &j in subset {
        let job = jobs.job(j); // panics first on out-of-range ids
        assert!(
            std::mem::replace(&mut stamp[j.0], epoch) != epoch,
            "duplicate job ids in EDF subset"
        );
        remaining[j.0] = job.length;
        placed[j.0].clear();
        releases.push((job.release, j));
    }
    // Releases ascending.
    releases.sort_unstable();

    // Ready queue ordered by (deadline, id) — the deterministic tie-break
    // that makes the output laminar.
    let mut rel_idx = 0usize;
    let mut ai = 0usize;
    let mut t = Time::MIN;

    let admit = |t: Time, rel_idx: &mut usize, ready: &mut BinaryHeap<Reverse<(Time, JobId)>>| {
        while *rel_idx < releases.len() && releases[*rel_idx].0 <= t {
            let (_, j) = releases[*rel_idx];
            obs_count!("sched.edf.heap_push");
            ready.push(Reverse((jobs.job(j).deadline, j)));
            *rel_idx += 1;
        }
    };

    loop {
        obs_count!("sched.edf.iterations");
        admit(t, &mut rel_idx, ready);
        // Nothing ready: jump to the next release, or finish.
        if ready.is_empty() {
            match releases.get(rel_idx) {
                Some(&(r, _)) => {
                    obs_count!("sched.edf.gap_jumps");
                    t = t.max(r);
                    continue;
                }
                None => break,
            }
        }
        // Clamp `t` into machine availability.
        while ai < avail.len() && avail[ai].end <= t {
            ai += 1;
        }
        if ai == avail.len() {
            // Machine time exhausted; everything still ready misses.
            break;
        }
        if t < avail[ai].start {
            obs_count!("sched.edf.idle_jumps");
            t = avail[ai].start;
            continue; // re-admit releases up to the new time
        }

        let Reverse((deadline, j)) = *ready.peek().expect("non-empty");
        let rem = remaining[j.0];
        if t + rem > deadline {
            // Hopeless: even with exclusive machine use the job cannot meet
            // its deadline. Abort it and discard its partial segments —
            // the rest of the schedule stays feasible, and a miss is an
            // exact certificate of subset infeasibility (EDF optimality).
            obs_count!("sched.edf.heap_pop");
            obs_count!("sched.edf.aborts");
            ready.pop();
            outcome.missed.push(j);
            placed[j.0].clear();
            continue;
        }
        // Run the top job until the next scheduling event.
        let mut run_until = (t + rem).min(avail[ai].end);
        if let Some(&(r, _)) = releases.get(rel_idx) {
            if r > t {
                run_until = run_until.min(r);
            }
        }
        debug_assert!(run_until > t, "no progress at t={t}");
        obs_count!("sched.edf.segments_emitted");
        placed[j.0].push(Interval::new(t, run_until));
        let new_rem = rem - (run_until - t);
        remaining[j.0] = new_rem;
        t = run_until;
        if new_rem == 0 {
            obs_count!("sched.edf.heap_pop");
            ready.pop();
            let segs = SegmentSet::from_intervals(placed[j.0].drain(..));
            outcome.schedule.assign_single(j, segs);
        }
    }
    // Anything still ready or unreleased-but-tracked missed its chance.
    while let Some(Reverse((_, j))) = ready.pop() {
        obs_count!("sched.edf.heap_pop");
        if remaining[j.0] > 0 {
            outcome.missed.push(j);
        }
    }
    while rel_idx < releases.len() {
        outcome.missed.push(releases[rel_idx].1);
        rel_idx += 1;
    }
    outcome.missed.sort_unstable();
    outcome.missed.dedup();
    outcome
}

/// Whether `subset` is `∞`-preemptively feasible on one machine
/// (EDF is exact for this question). A probe: it runs EDF for the verdict
/// alone and builds no schedule. Duplicate ids panic, as in
/// [`edf_schedule`].
pub fn edf_feasible(jobs: &JobSet, subset: &[JobId]) -> bool {
    edf_feasible_ws(jobs, subset, &mut SolveWorkspace::new())
}

/// [`edf_feasible`] with caller-provided scratch memory.
pub fn edf_feasible_ws(jobs: &JobSet, subset: &[JobId], ws: &mut SolveWorkspace) -> bool {
    let ProbeScratch { by_release, pending, .. } = &mut ws.probe;
    by_release.clear();
    by_release.extend(subset.iter().map(|&j| (jobs.job(j).release, j)));
    by_release.sort_unstable();
    assert!(by_release.windows(2).all(|w| w[0] != w[1]), "duplicate job ids in EDF subset");
    feasible_by_release(jobs, by_release, pending)
}

/// Whether the jobs of `by_release`, sorted by `(release, id)`, are
/// feasible together: one probe over the whole set.
pub(crate) fn feasible_by_release(
    jobs: &JobSet,
    by_release: &[(Time, JobId)],
    pending: &mut BinaryHeap<Reverse<(Time, Time)>>,
) -> bool {
    obs_count!("sched.edf.probes");
    let Some(&(last, _)) = by_release.last() else { return true };
    drain_after(jobs, by_release.iter().copied(), by_release[0].0, last, pending).is_some()
}

/// Where `(release, id)` goes in the release-sorted `by_release`.
///
/// # Panics
/// When that job is already there (two copies of one job).
pub(crate) fn release_slot(by_release: &[(Time, JobId)], key: (Time, JobId)) -> usize {
    by_release.binary_search(&key).expect_err("duplicate job ids in EDF subset")
}

/// The probe's EDF: runs `stream` (jobs in `(release, id)` order, none
/// released before `from`, nothing pending at `from`) on one machine and
/// returns the first instant after `past` at which every released job is
/// done. `None` at the first job that can no longer meet its deadline —
/// `edf_core`'s abort rule, and a certificate of infeasibility.
///
/// A pending job is just `(deadline, remaining)`: ties among equal
/// deadlines may run in any order without changing the verdict, since every
/// EDF order is feasibility-optimal. Runs stop at each release, so the
/// drain this returns comes after every job released up to `past`.
fn drain_after(
    jobs: &JobSet,
    stream: impl Iterator<Item = (Time, JobId)>,
    from: Time,
    past: Time,
    pending: &mut BinaryHeap<Reverse<(Time, Time)>>,
) -> Option<Time> {
    pending.clear();
    let mut stream = stream.peekable();
    let mut t = from;
    loop {
        while let Some((_, j)) = stream.next_if(|&(r, _)| r <= t) {
            let job = jobs.job(j);
            pending.push(Reverse((job.deadline, job.length)));
        }
        let next_release = stream.peek().map(|&(r, _)| r);
        let Some(mut top) = pending.peek_mut() else {
            match next_release {
                Some(r) => {
                    t = r;
                    continue;
                }
                None => return Some(t),
            }
        };
        let Reverse((deadline, remaining)) = *top;
        let done = t + remaining;
        if done > deadline {
            return None;
        }
        match next_release {
            Some(r) if r < done => {
                top.0 .1 = done - r;
                t = r;
            }
            _ => {
                PeekMut::pop(top);
                t = done;
                if pending.is_empty() && t > past {
                    return Some(t);
                }
            }
        }
    }
}

impl ProbeScratch {
    /// Adds `j` to the accepted set `by_release` iff the set stays
    /// feasible, deciding it by simulating only the busy period `j` lands
    /// in. Every accepted set is feasible, and `busy` holds its busy
    /// periods, which depend on releases and lengths alone.
    ///
    /// **Busy window.** Let `b` be the start of the busy period holding
    /// `r_j`, or `r_j` itself when the machine is idle at `r_j`. Nothing is
    /// pending at `b`, and EDF before `r_j` never sees `j`, so EDF on the
    /// set plus `j` is the old, feasible schedule up to `b`. From `b` the
    /// probe runs EDF until the first instant `e > r_j` at which all
    /// released work is done. A miss before `e` rejects `j`. Otherwise
    /// `j` is accepted: adding work only grows the backlog, so the old
    /// schedule has nothing pending at `e` either, and from `e` on the new
    /// schedule is the old one. The set's busy periods inside `[b, e)`
    /// become the one period `[b, e)`.
    ///
    /// # Panics
    /// When `j` is already accepted (two copies of one job).
    pub(crate) fn try_add(&mut self, jobs: &JobSet, j: JobId) -> bool {
        obs_count!("sched.edf.probes");
        let release = jobs.job(j).release;
        let at = release_slot(&self.by_release, (release, j));
        let b = match self.busy[..self.busy.partition_point(|p| p.start <= release)].last() {
            Some(p) if p.end > release => p.start,
            _ => release,
        };
        let from = self.by_release[..at].partition_point(|&(r, _)| r < b);
        let stream = self.by_release[from..at]
            .iter()
            .copied()
            .chain(std::iter::once((release, j)))
            .chain(self.by_release[at..].iter().copied());
        let Some(e) = drain_after(jobs, stream, b, release, &mut self.pending) else {
            return false;
        };
        self.by_release.insert(at, (release, j));
        let lo = self.busy.partition_point(|p| p.start < b);
        let hi = self.busy.partition_point(|p| p.start < e);
        self.busy.splice(lo..hi, [Interval::new(b, e)]);
        true
    }
}

/// The pre-workspace implementation (`HashMap` per-job state, sort-based
/// duplicate check), kept verbatim as the oracle for the differential
/// proptests in `tests/differential_ws.rs`.
#[doc(hidden)]
pub fn edf_schedule_reference(
    jobs: &JobSet,
    subset: &[JobId],
    availability: Option<&SegmentSet>,
) -> EdfOutcome {
    let mut outcome = EdfOutcome { schedule: Schedule::new(), missed: Vec::new() };
    if subset.is_empty() {
        return outcome;
    }
    let default_avail;
    let avail: &[Interval] = match availability {
        Some(a) => a.segments(),
        None => {
            let lo = subset.iter().map(|&j| jobs.job(j).release).min().unwrap();
            let hi = subset.iter().map(|&j| jobs.job(j).deadline).max().unwrap();
            default_avail = [Interval::new(lo, hi)];
            &default_avail
        }
    };

    let mut releases: Vec<(Time, JobId)> =
        subset.iter().map(|&j| (jobs.job(j).release, j)).collect();
    releases.sort_unstable();
    {
        let mut ids: Vec<JobId> = subset.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), subset.len(), "duplicate job ids in EDF subset");
    }
    let mut remaining: std::collections::HashMap<JobId, Time> =
        subset.iter().map(|&j| (j, jobs.job(j).length)).collect();
    let mut placed: std::collections::HashMap<JobId, Vec<Interval>> =
        subset.iter().map(|&j| (j, Vec::new())).collect();

    let mut ready: BinaryHeap<Reverse<(Time, JobId)>> = BinaryHeap::new();
    let mut rel_idx = 0usize;
    let mut ai = 0usize;
    let mut t = Time::MIN;

    let admit = |t: Time, rel_idx: &mut usize, ready: &mut BinaryHeap<Reverse<(Time, JobId)>>| {
        while *rel_idx < releases.len() && releases[*rel_idx].0 <= t {
            let (_, j) = releases[*rel_idx];
            ready.push(Reverse((jobs.job(j).deadline, j)));
            *rel_idx += 1;
        }
    };

    loop {
        admit(t, &mut rel_idx, &mut ready);
        if ready.is_empty() {
            match releases.get(rel_idx) {
                Some(&(r, _)) => {
                    t = t.max(r);
                    continue;
                }
                None => break,
            }
        }
        while ai < avail.len() && avail[ai].end <= t {
            ai += 1;
        }
        if ai == avail.len() {
            break;
        }
        if t < avail[ai].start {
            t = avail[ai].start;
            continue;
        }

        let Reverse((deadline, j)) = *ready.peek().expect("non-empty");
        let rem = remaining[&j];
        if t + rem > deadline {
            ready.pop();
            outcome.missed.push(j);
            placed.remove(&j);
            continue;
        }
        let mut run_until = (t + rem).min(avail[ai].end);
        if let Some(&(r, _)) = releases.get(rel_idx) {
            if r > t {
                run_until = run_until.min(r);
            }
        }
        placed.get_mut(&j).expect("job placed map").push(Interval::new(t, run_until));
        let new_rem = rem - (run_until - t);
        *remaining.get_mut(&j).unwrap() = new_rem;
        t = run_until;
        if new_rem == 0 {
            ready.pop();
            let segs = SegmentSet::from_intervals(placed.remove(&j).unwrap());
            outcome.schedule.assign_single(j, segs);
        }
    }
    while let Some(Reverse((_, j))) = ready.pop() {
        if remaining[&j] > 0 {
            outcome.missed.push(j);
        }
    }
    while rel_idx < releases.len() {
        outcome.missed.push(releases[rel_idx].1);
        rel_idx += 1;
    }
    outcome.missed.sort_unstable();
    outcome.missed.dedup();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::Job;

    fn ids(v: &[usize]) -> Vec<JobId> {
        v.iter().map(|&i| JobId(i)).collect()
    }

    #[test]
    fn single_job_runs_at_release() {
        let jobs: JobSet = vec![Job::new(5, 20, 4, 1.0)].into_iter().collect();
        let out = edf_schedule(&jobs, &ids(&[0]), None);
        assert!(out.is_feasible());
        assert_eq!(
            out.schedule.segments(JobId(0)).unwrap().segments(),
            &[Interval::new(5, 9)]
        );
        out.schedule.verify(&jobs, None).unwrap();
    }

    #[test]
    fn earlier_deadline_preempts() {
        // Long lax job preempted by a tight one released mid-run.
        let jobs: JobSet = vec![
            Job::new(0, 100, 10, 1.0), // j0, lax
            Job::new(3, 8, 5, 1.0),    // j1, tight: must run [3, 8)
        ]
        .into_iter()
        .collect();
        let out = edf_schedule(&jobs, &ids(&[0, 1]), None);
        assert!(out.is_feasible());
        out.schedule.verify(&jobs, None).unwrap();
        assert_eq!(
            out.schedule.segments(JobId(1)).unwrap().segments(),
            &[Interval::new(3, 8)]
        );
        let j0 = out.schedule.segments(JobId(0)).unwrap();
        assert_eq!(j0.segments(), &[Interval::new(0, 3), Interval::new(8, 15)]);
        assert_eq!(out.schedule.preemptions(JobId(0)), 1);
    }

    #[test]
    fn infeasible_overload_reports_miss() {
        // Two tight jobs in the same unit window.
        let jobs: JobSet = vec![Job::new(0, 2, 2, 1.0), Job::new(0, 2, 2, 1.0)]
            .into_iter()
            .collect();
        let out = edf_schedule(&jobs, &ids(&[0, 1]), None);
        assert!(!out.is_feasible());
        // One completes, one misses; the returned schedule is feasible.
        assert_eq!(out.schedule.len() + out.missed.len(), 2);
        out.schedule.verify(&jobs, None).unwrap();
        assert!(!edf_feasible(&jobs, &ids(&[0, 1])));
        assert!(edf_feasible(&jobs, &ids(&[0])));
    }

    #[test]
    fn idle_gap_between_releases() {
        let jobs: JobSet = vec![Job::new(0, 5, 2, 1.0), Job::new(10, 15, 2, 1.0)]
            .into_iter()
            .collect();
        let out = edf_schedule(&jobs, &ids(&[0, 1]), None);
        assert!(out.is_feasible());
        assert_eq!(
            out.schedule.segments(JobId(1)).unwrap().segments(),
            &[Interval::new(10, 12)]
        );
    }

    #[test]
    fn availability_restriction_is_respected() {
        // Machine only available [0,3) and [7,20).
        let jobs: JobSet = vec![Job::new(0, 20, 5, 1.0)].into_iter().collect();
        let avail = SegmentSet::from_intervals([Interval::new(0, 3), Interval::new(7, 20)]);
        let out = edf_schedule(&jobs, &ids(&[0]), Some(&avail));
        assert!(out.is_feasible());
        assert_eq!(
            out.schedule.segments(JobId(0)).unwrap().segments(),
            &[Interval::new(0, 3), Interval::new(7, 9)]
        );
    }

    #[test]
    fn availability_can_cause_misses() {
        let jobs: JobSet = vec![Job::new(0, 10, 5, 1.0)].into_iter().collect();
        let avail = SegmentSet::from_intervals([Interval::new(0, 3)]);
        let out = edf_schedule(&jobs, &ids(&[0]), Some(&avail));
        assert_eq!(out.missed, ids(&[0]));
        assert!(out.schedule.is_empty());
    }

    #[test]
    fn deadline_tie_broken_by_id() {
        // Same window; EDF must be deterministic: lower id first.
        let jobs: JobSet = vec![Job::new(0, 10, 3, 1.0), Job::new(0, 10, 3, 1.0)]
            .into_iter()
            .collect();
        let out = edf_schedule(&jobs, &ids(&[0, 1]), None);
        assert!(out.is_feasible());
        assert_eq!(
            out.schedule.segments(JobId(0)).unwrap().segments(),
            &[Interval::new(0, 3)]
        );
        assert_eq!(
            out.schedule.segments(JobId(1)).unwrap().segments(),
            &[Interval::new(3, 6)]
        );
    }

    #[test]
    fn nested_windows_schedule_inside_out() {
        // Figure-2-like nesting: inner tight job in the middle of the outer.
        let jobs: JobSet = vec![
            Job::new(0, 7, 4, 1.0), // outer, window 7
            Job::new(2, 5, 3, 1.0), // inner, tight [2,5)
        ]
        .into_iter()
        .collect();
        let out = edf_schedule(&jobs, &ids(&[0, 1]), None);
        assert!(out.is_feasible());
        out.schedule.verify(&jobs, None).unwrap();
        assert_eq!(
            out.schedule.segments(JobId(1)).unwrap().segments(),
            &[Interval::new(2, 5)]
        );
        assert_eq!(
            out.schedule.segments(JobId(0)).unwrap().segments(),
            &[Interval::new(0, 2), Interval::new(5, 7)]
        );
    }

    #[test]
    fn empty_subset() {
        let jobs: JobSet = vec![Job::new(0, 5, 2, 1.0)].into_iter().collect();
        let out = edf_schedule(&jobs, &[], None);
        assert!(out.is_feasible());
        assert!(out.schedule.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_rejected() {
        let jobs: JobSet = vec![Job::new(0, 5, 2, 1.0)].into_iter().collect();
        let _ = edf_schedule(&jobs, &ids(&[0, 0]), None);
    }

    #[test]
    fn miss_frees_machine_for_others() {
        // j0 impossible alone? No: j0 and j1 compete; j1 (earlier deadline)
        // wins the slot; j0 misses but j1 and j2 still complete.
        let jobs: JobSet = vec![
            Job::new(0, 4, 4, 1.0),  // j0 needs the whole [0,4)
            Job::new(0, 3, 3, 1.0),  // j1 earlier deadline, takes [0,3)
            Job::new(5, 9, 2, 1.0),  // j2 independent, later
        ]
        .into_iter()
        .collect();
        let out = edf_schedule(&jobs, &ids(&[0, 1, 2]), None);
        assert_eq!(out.missed, ids(&[0]));
        assert_eq!(out.schedule.len(), 2);
        out.schedule.verify(&jobs, None).unwrap();
    }
}
