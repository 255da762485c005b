//! Schedules and the feasibility predicate of Definition 2.1.

use std::collections::BTreeMap;

use crate::job::{JobId, JobSet, Value};
use crate::segs::SegmentSet;
use crate::time::Interval;

/// Identifier of a machine (0-based). The single-machine setting is machine 0.
pub type MachineId = usize;

/// A scheduled job: which machine it runs on and when.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Machine executing every segment of the job (non-migrative model).
    pub machine: MachineId,
    /// The job's execution segments `G_j` in normal form.
    pub segs: SegmentSet,
}

/// A (partial) schedule `G_{J'}` of a job set: each *scheduled* job is mapped
/// to one machine and a set of execution segments. Jobs absent from the map
/// are rejected (not scheduled), which is always allowed by the model — the
/// objective only counts the value of scheduled jobs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    by_job: BTreeMap<JobId, Assignment>,
}

impl Schedule {
    /// The empty schedule (every job rejected).
    pub fn new() -> Self {
        Schedule { by_job: BTreeMap::new() }
    }

    /// Schedules `job` on `machine` over `segs`, replacing any previous
    /// assignment of the same job. Empty `segs` removes the job.
    pub fn assign(&mut self, job: JobId, machine: MachineId, segs: SegmentSet) {
        if segs.is_empty() {
            self.by_job.remove(&job);
        } else {
            self.by_job.insert(job, Assignment { machine, segs });
        }
    }

    /// Convenience for the single-machine setting: machine 0.
    pub fn assign_single(&mut self, job: JobId, segs: SegmentSet) {
        self.assign(job, 0, segs);
    }

    /// Removes a job from the schedule (rejects it).
    pub fn reject(&mut self, job: JobId) -> Option<Assignment> {
        self.by_job.remove(&job)
    }

    /// The assignment of `job`, if scheduled.
    pub fn assignment(&self, job: JobId) -> Option<&Assignment> {
        self.by_job.get(&job)
    }

    /// The execution segments of `job`, if scheduled.
    pub fn segments(&self, job: JobId) -> Option<&SegmentSet> {
        self.by_job.get(&job).map(|a| &a.segs)
    }

    /// Number of scheduled jobs.
    pub fn len(&self) -> usize {
        self.by_job.len()
    }

    /// Whether no job is scheduled.
    pub fn is_empty(&self) -> bool {
        self.by_job.is_empty()
    }

    /// Ids of scheduled jobs, ascending.
    pub fn scheduled_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.by_job.keys().copied()
    }

    /// Iterates `(JobId, &Assignment)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &Assignment)> {
        self.by_job.iter().map(|(id, a)| (*id, a))
    }

    /// Total value of the scheduled jobs under `jobs`.
    pub fn value(&self, jobs: &JobSet) -> Value {
        self.by_job.keys().map(|id| jobs.job(*id).value).sum()
    }

    /// Number of preemptions of `job`: segments − 1 (0 when unscheduled).
    pub fn preemptions(&self, job: JobId) -> usize {
        self.by_job.get(&job).map_or(0, |a| a.segs.count().saturating_sub(1))
    }

    /// The largest preemption count over all scheduled jobs.
    pub fn max_preemptions(&self) -> usize {
        self.by_job.values().map(|a| a.segs.count().saturating_sub(1)).max().unwrap_or(0)
    }

    /// Machines used by at least one job, ascending, deduplicated.
    pub fn machines(&self) -> Vec<MachineId> {
        let mut v: Vec<MachineId> = self.by_job.values().map(|a| a.machine).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Union of the busy time of every job on `machine`.
    ///
    /// One sort-and-coalesce over the segments of every job on the machine,
    /// O(S log S) for S segments. (A fold of pairwise unions would copy the
    /// growing set once per job.)
    pub fn busy(&self, machine: MachineId) -> SegmentSet {
        SegmentSet::from_intervals(
            self.by_job
                .values()
                .filter(|a| a.machine == machine)
                .flat_map(|a| a.segs.iter().copied()),
        )
    }

    /// Restriction of the schedule to the given jobs (drops everything else).
    ///
    /// Removing jobs from a feasible schedule keeps it feasible — this is the
    /// `G_{J_1}` restriction step of Algorithm 3.
    pub fn restricted_to(&self, keep: &[JobId]) -> Schedule {
        let keep: std::collections::BTreeSet<JobId> = keep.iter().copied().collect();
        Schedule {
            by_job: self
                .by_job
                .iter()
                .filter(|(id, _)| keep.contains(id))
                .map(|(id, a)| (*id, a.clone()))
                .collect(),
        }
    }

    /// Checks every clause of Definition 2.1 against `jobs`:
    ///
    /// * (a) per job: segments within `[r_j, d_j)`, total length exactly
    ///   `p_j`;
    /// * (b) per machine: segments of different jobs pairwise disjoint;
    /// * (c) when `k = Some(k)`: `|G_j| ≤ k + 1` for every job;
    /// * multi-machine extension: each job entirely on one machine (enforced
    ///   structurally by [`Assignment`]).
    ///
    /// `k = None` means unbounded preemption.
    pub fn verify(&self, jobs: &JobSet, k: Option<u32>) -> Result<(), Infeasibility> {
        // Per-job constraints.
        for (&id, a) in &self.by_job {
            let job = jobs.get(id).ok_or(Infeasibility::UnknownJob(id))?;
            let window = job.window();
            for seg in a.segs.iter() {
                if !window.contains(seg) {
                    return Err(Infeasibility::OutsideWindow { job: id, segment: *seg, window });
                }
            }
            let scheduled = a.segs.total_len();
            if scheduled != job.length {
                return Err(Infeasibility::WrongLength { job: id, scheduled, required: job.length });
            }
            if let Some(k) = k {
                let segments = a.segs.count();
                if segments > k as usize + 1 {
                    return Err(Infeasibility::TooManyPreemptions {
                        job: id,
                        segments,
                        allowed: k as usize + 1,
                    });
                }
            }
        }
        // Per-machine disjointness: sort each machine's segments by start
        // and sweep with the furthest-reaching segment seen so far, so an
        // overlap is caught even when a long segment contains several later
        // ones and the adjacent pair happens to be disjoint.
        let mut by_machine: BTreeMap<MachineId, Vec<(Interval, JobId)>> = BTreeMap::new();
        for (&id, a) in &self.by_job {
            let entry = by_machine.entry(a.machine).or_default();
            entry.extend(a.segs.iter().map(|s| (*s, id)));
        }
        for (machine, mut segs) in by_machine {
            segs.sort_unstable_by_key(|(s, _)| (s.start, s.end));
            let mut reach: Option<(Interval, JobId)> = None;
            for (b, jb) in segs {
                if let Some((a, ja)) = reach {
                    if a.overlaps(&b) {
                        return Err(Infeasibility::Overlap { machine, a: (ja, a), b: (jb, b) });
                    }
                }
                if reach.is_none_or(|(a, _)| b.end > a.end) {
                    reach = Some((b, jb));
                }
            }
        }
        Ok(())
    }

    /// [`Schedule::verify`] plus the machine-count clause: every assignment
    /// must target a machine in `0..machines`. [`verify`](Schedule::verify)
    /// alone cannot check this — a schedule does not know the machine count
    /// it was produced for — so harnesses that do know it (the batch
    /// engine's certification layer, for one) call this form.
    pub fn verify_on(
        &self,
        jobs: &JobSet,
        k: Option<u32>,
        machines: usize,
    ) -> Result<(), Infeasibility> {
        for (&id, a) in &self.by_job {
            if a.machine >= machines {
                return Err(Infeasibility::MachineOutOfRange {
                    job: id,
                    machine: a.machine,
                    machines,
                });
            }
        }
        self.verify(jobs, k)
    }
}

/// A violated clause of Definition 2.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Infeasibility {
    /// The schedule references a job id not present in the job set.
    UnknownJob(JobId),
    /// A segment leaves the job's `[r_j, d_j)` window.
    OutsideWindow {
        /// Offending job.
        job: JobId,
        /// Offending segment.
        segment: Interval,
        /// The job's window.
        window: Interval,
    },
    /// Total scheduled time differs from `p_j`.
    WrongLength {
        /// Offending job.
        job: JobId,
        /// Ticks actually scheduled.
        scheduled: crate::time::Time,
        /// `p_j`.
        required: crate::time::Time,
    },
    /// Two segments on one machine overlap.
    Overlap {
        /// Machine on which the overlap occurs.
        machine: MachineId,
        /// First offending `(job, segment)`.
        a: (JobId, Interval),
        /// Second offending `(job, segment)`.
        b: (JobId, Interval),
    },
    /// An assignment targets a machine outside `0..machines`
    /// (only checked by [`Schedule::verify_on`]).
    MachineOutOfRange {
        /// Offending job.
        job: JobId,
        /// Machine the job was assigned to.
        machine: MachineId,
        /// Number of machines available.
        machines: usize,
    },
    /// A job uses more than `k + 1` segments.
    TooManyPreemptions {
        /// Offending job.
        job: JobId,
        /// Number of segments used.
        segments: usize,
        /// Maximum allowed (`k + 1`).
        allowed: usize,
    },
}

impl std::fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasibility::UnknownJob(j) => write!(f, "schedule references unknown job {j}"),
            Infeasibility::OutsideWindow { job, segment, window } => {
                write!(f, "{job}: segment {segment:?} outside window {window:?}")
            }
            Infeasibility::WrongLength { job, scheduled, required } => {
                write!(f, "{job}: scheduled {scheduled} ticks, needs exactly {required}")
            }
            Infeasibility::Overlap { machine, a, b } => write!(
                f,
                "machine {machine}: {}:{:?} overlaps {}:{:?}",
                a.0, a.1, b.0, b.1
            ),
            Infeasibility::MachineOutOfRange { job, machine, machines } => {
                write!(f, "{job}: assigned to machine {machine}, but only {machines} exist")
            }
            Infeasibility::TooManyPreemptions { job, segments, allowed } => {
                write!(f, "{job}: {segments} segments exceed the allowed {allowed}")
            }
        }
    }
}

impl std::error::Error for Infeasibility {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::time::Interval;

    fn jobs3() -> JobSet {
        vec![
            Job::new(0, 10, 4, 1.0),
            Job::new(0, 20, 5, 2.0),
            Job::new(5, 15, 3, 4.0),
        ]
        .into_iter()
        .collect()
    }

    fn seg(a: i64, b: i64) -> Interval {
        Interval::new(a, b)
    }

    #[test]
    fn assign_and_query() {
        let mut s = Schedule::new();
        s.assign_single(JobId(0), SegmentSet::from_intervals([seg(0, 4)]));
        s.assign_single(JobId(2), SegmentSet::from_intervals([seg(5, 7), seg(9, 10)]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.preemptions(JobId(0)), 0);
        assert_eq!(s.preemptions(JobId(2)), 1);
        assert_eq!(s.preemptions(JobId(1)), 0); // unscheduled
        assert_eq!(s.max_preemptions(), 1);
        assert_eq!(s.value(&jobs3()), 5.0);
        assert_eq!(s.machines(), vec![0]);
    }

    #[test]
    fn empty_assignment_rejects() {
        let mut s = Schedule::new();
        s.assign_single(JobId(0), SegmentSet::from_intervals([seg(0, 4)]));
        s.assign_single(JobId(0), SegmentSet::new());
        assert!(s.is_empty());
    }

    #[test]
    fn verify_accepts_valid_schedule() {
        let jobs = jobs3();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), SegmentSet::from_intervals([seg(0, 4)]));
        s.assign_single(JobId(1), SegmentSet::from_intervals([seg(4, 5), seg(8, 12)]));
        s.assign_single(JobId(2), SegmentSet::from_intervals([seg(5, 8)]));
        assert_eq!(s.verify(&jobs, None), Ok(()));
        assert_eq!(s.verify(&jobs, Some(1)), Ok(()));
    }

    #[test]
    fn verify_rejects_window_violation() {
        let jobs = jobs3();
        let mut s = Schedule::new();
        // Job 2 releases at 5; starting at 4 is infeasible.
        s.assign_single(JobId(2), SegmentSet::from_intervals([seg(4, 7)]));
        assert!(matches!(
            s.verify(&jobs, None),
            Err(Infeasibility::OutsideWindow { job: JobId(2), .. })
        ));
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let jobs = jobs3();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), SegmentSet::from_intervals([seg(0, 3)])); // needs 4
        assert!(matches!(
            s.verify(&jobs, None),
            Err(Infeasibility::WrongLength { job: JobId(0), scheduled: 3, required: 4 })
        ));
        // Over-scheduling is also wrong.
        s.assign_single(JobId(0), SegmentSet::from_intervals([seg(0, 5)]));
        assert!(matches!(s.verify(&jobs, None), Err(Infeasibility::WrongLength { .. })));
    }

    #[test]
    fn verify_rejects_overlap_same_machine_only() {
        let jobs = jobs3();
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, SegmentSet::from_intervals([seg(0, 4)]));
        s.assign(JobId(1), 0, SegmentSet::from_intervals([seg(3, 8)]));
        assert!(matches!(s.verify(&jobs, None), Err(Infeasibility::Overlap { machine: 0, .. })));
        // Same segments on different machines are fine.
        s.assign(JobId(1), 1, SegmentSet::from_intervals([seg(3, 8)]));
        assert_eq!(s.verify(&jobs, None), Ok(()));
    }

    #[test]
    fn verify_rejects_cross_job_collision_on_shared_machine_of_many() {
        // Regression: a genuinely multi-machine schedule where two
        // *different* jobs collide on machine 0 while machine 1 is clean.
        let jobs = jobs3();
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, SegmentSet::from_intervals([seg(0, 4)]));
        s.assign(JobId(2), 0, SegmentSet::from_intervals([seg(6, 9)]));
        s.assign(JobId(1), 1, SegmentSet::from_intervals([seg(0, 5)]));
        assert_eq!(s.verify(&jobs, None), Ok(()));
        // Move job 2 onto machine 0's busy time: [3, 6) vs job 0's [0, 4).
        s.assign(JobId(2), 0, SegmentSet::from_intervals([seg(5, 8)]));
        s.assign(JobId(0), 0, SegmentSet::from_intervals([seg(3, 7)]));
        let err = s.verify(&jobs, None).unwrap_err();
        assert!(
            matches!(err, Infeasibility::Overlap { machine: 0, .. }),
            "expected machine-0 overlap, got {err:?}"
        );
    }

    #[test]
    fn verify_catches_containment_past_a_disjoint_adjacent_pair() {
        // Machine 0: job 1 runs [0, 12); jobs 0 and 2 run inside it at
        // [5, 9) and [9, 12). Sorted by start the adjacent pair
        // ([5,9), [9,12)) is disjoint — only the furthest-reach sweep sees
        // that both collide with the long containing segment.
        let jobs: JobSet = vec![
            Job::new(0, 20, 4, 1.0),
            Job::new(0, 20, 12, 2.0),
            Job::new(0, 20, 3, 4.0),
        ]
        .into_iter()
        .collect();
        let mut s = Schedule::new();
        s.assign(JobId(1), 0, SegmentSet::from_intervals([seg(0, 12)]));
        s.assign(JobId(0), 0, SegmentSet::from_intervals([seg(5, 9)]));
        s.assign(JobId(2), 0, SegmentSet::from_intervals([seg(9, 12)]));
        assert!(matches!(s.verify(&jobs, None), Err(Infeasibility::Overlap { machine: 0, .. })));
    }

    #[test]
    fn verify_on_enforces_the_machine_range() {
        let jobs = jobs3();
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, SegmentSet::from_intervals([seg(0, 4)]));
        s.assign(JobId(1), 3, SegmentSet::from_intervals([seg(0, 5)]));
        // Plain verify cannot know the machine count; verify_on can.
        assert_eq!(s.verify(&jobs, None), Ok(()));
        assert_eq!(s.verify_on(&jobs, None, 4), Ok(()));
        assert!(matches!(
            s.verify_on(&jobs, None, 2),
            Err(Infeasibility::MachineOutOfRange { job: JobId(1), machine: 3, machines: 2 })
        ));
    }

    #[test]
    fn verify_enforces_preemption_bound() {
        let jobs = jobs3();
        let mut s = Schedule::new();
        s.assign_single(
            JobId(1),
            SegmentSet::from_intervals([seg(0, 2), seg(4, 6), seg(8, 9)]),
        );
        assert_eq!(s.verify(&jobs, None), Ok(()));
        assert_eq!(s.verify(&jobs, Some(2)), Ok(()));
        assert!(matches!(
            s.verify(&jobs, Some(1)),
            Err(Infeasibility::TooManyPreemptions { job: JobId(1), segments: 3, allowed: 2 })
        ));
    }

    #[test]
    fn touching_segments_do_not_count_as_preemption() {
        let jobs = jobs3();
        let mut s = Schedule::new();
        // [0,2) and [2,4) coalesce on construction → zero preemptions.
        s.assign_single(JobId(0), SegmentSet::from_intervals([seg(0, 2), seg(2, 4)]));
        assert_eq!(s.preemptions(JobId(0)), 0);
        assert_eq!(s.verify(&jobs, Some(0)), Ok(()));
    }

    #[test]
    fn verify_rejects_unknown_job() {
        let jobs = jobs3();
        let mut s = Schedule::new();
        s.assign_single(JobId(7), SegmentSet::from_intervals([seg(0, 1)]));
        assert!(matches!(s.verify(&jobs, None), Err(Infeasibility::UnknownJob(JobId(7)))));
    }

    #[test]
    fn busy_unions_per_machine() {
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, SegmentSet::from_intervals([seg(0, 4)]));
        s.assign(JobId(1), 0, SegmentSet::from_intervals([seg(4, 6)]));
        s.assign(JobId(2), 1, SegmentSet::from_intervals([seg(0, 3)]));
        assert_eq!(s.busy(0), SegmentSet::from_intervals([seg(0, 6)]));
        assert_eq!(s.busy(1), SegmentSet::from_intervals([seg(0, 3)]));
        assert!(s.busy(2).is_empty());
        assert_eq!(s.machines(), vec![0, 1]);
    }

    #[test]
    fn restriction_keeps_subset() {
        let mut s = Schedule::new();
        s.assign_single(JobId(0), SegmentSet::from_intervals([seg(0, 4)]));
        s.assign_single(JobId(1), SegmentSet::from_intervals([seg(4, 9)]));
        let r = s.restricted_to(&[JobId(1)]);
        assert_eq!(r.len(), 1);
        assert!(r.segments(JobId(1)).is_some());
        assert!(r.segments(JobId(0)).is_none());
    }
}
