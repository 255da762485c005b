//! The schedule forest of §4.1 and the left-merge reconstruction of
//! Lemma 4.1.
//!
//! **Forward direction** (schedule → forest): in a laminar schedule the
//! *preempts* relation (`(u,v) ∈ E ⟺ v` runs between two segments of `u`)
//! is a forest. We build it with a single stack sweep over the machine's
//! segments: when a job's first segment starts, its parent is the innermost
//! currently-open job. Each node's value is its job's value. In the
//! multi-machine setting the per-machine forests are merged into one
//! (remark in §4.1).
//!
//! **Backward direction** (k-BAS → k-bounded schedule): given the keep-set
//! of a k-BAS of the schedule forest, every kept job `u` is re-placed by
//! filling its `p_u` ticks leftmost into
//!
//! ```text
//! allowed(u) = span(u) \ ⋃ { span(c) : c kept child of u }
//! ```
//!
//! where `span(x)` is the interval from `x`'s first original segment start
//! to its last original segment end. This realizes the paper's "merge to
//! the left" across removed sub-jobs and absorbs any machine-idle holes.
//! Why it works (Lemma 4.1, spelled out for this implementation):
//!
//! * **fits**: `|span(u)| ≥ p_u + Σ_{all children} |span(c)|`, so removing
//!   only *kept* children leaves room;
//! * **window**: `span(u) ⊆ [r_u, d_u)`;
//! * **disjoint**: laminarity nests spans along ancestry; ancestor
//!   independence guarantees kept nodes of different components have
//!   ancestry-free — hence disjoint — spans, and a kept descendant always
//!   sits inside some kept child's span, which `allowed(u)` excludes;
//! * **preemption bound**: `span(u)` is one interval, so `allowed(u)` has
//!   at most (#kept children + 1) ≤ k + 1 components, and a leftmost fill
//!   produces at most that many segments.

use crate::workspace::{SfScratch, SolveWorkspace};
use pobp_core::{Interval, JobId, JobSet, MachineId, Schedule, SegmentSet};
use pobp_forest::{Forest, KeepSet, NodeId};

/// A schedule forest: the preemption structure of a laminar schedule, with
/// the mapping between forest nodes and scheduled jobs.
#[derive(Clone, Debug)]
pub struct ScheduleForest {
    /// The forest; node values are job values.
    pub forest: Forest,
    /// `node_job[node.0]` is the `(machine, job)` the node represents.
    pub node_job: Vec<(MachineId, JobId)>,
    /// `spans[node.0]` is the node's `span`: from its job's first segment
    /// start to its last segment end in the laminar schedule the forest was
    /// built from, which [`reconstruct_ws`] relies on.
    pub(crate) spans: Vec<Interval>,
}

impl ScheduleForest {
    /// The job a node represents.
    pub fn job_of(&self, node: NodeId) -> JobId {
        self.node_job[node.0].1
    }

    /// The machine a node's job runs on.
    pub fn machine_of(&self, node: NodeId) -> MachineId {
        self.node_job[node.0].0
    }

    /// Jobs selected by a keep-set over this forest.
    pub fn kept_jobs(&self, keep: &KeepSet) -> Vec<JobId> {
        keep.ids().map(|n| self.job_of(n)).collect()
    }
}

/// Builds the schedule forest of a laminar schedule (§4.1). Multi-machine
/// schedules produce one merged forest with per-machine trees.
///
/// # Panics
/// Panics when the schedule is not laminar (the caller should
/// [`crate::laminarize`] first) — detected by the same sweep.
pub fn schedule_forest(jobs: &JobSet, schedule: &Schedule) -> ScheduleForest {
    schedule_forest_ws(jobs, schedule, &mut SolveWorkspace::new())
}

/// [`schedule_forest`] with caller-provided scratch memory (see
/// [`SolveWorkspace`]). Identical output.
///
/// # Panics
/// Panics when the schedule is not laminar, like [`schedule_forest`].
pub fn schedule_forest_ws(
    jobs: &JobSet,
    schedule: &Schedule,
    ws: &mut SolveWorkspace,
) -> ScheduleForest {
    let mut forest = Forest::new();
    let mut node_job = Vec::with_capacity(schedule.len());
    let mut spans = Vec::with_capacity(schedule.len());
    for machine in schedule.machines() {
        // Segments of this machine in time order. Per-job state lives in
        // epoch-stamped flat arrays; one epoch per machine.
        let epoch = ws.sf.begin(jobs.len());
        let SfScratch { segs, span_end, span_stamp, opened, stack, .. } = &mut ws.sf;
        segs.clear();
        stack.clear();
        for (id, a) in schedule.iter() {
            if a.machine != machine {
                continue;
            }
            segs.extend(a.segs.iter().map(|s| (*s, id)));
            span_end[id.0] = a.segs.max_end().expect("non-empty assignment");
            span_stamp[id.0] = epoch;
        }
        segs.sort_unstable_by_key(|(s, _)| (s.start, s.end));
        // Stack sweep; parent of a newly-opened job = innermost open job.
        for &(seg, id) in segs.iter() {
            while let Some(&(top, _)) = stack.last() {
                debug_assert_eq!(span_stamp[top.0], epoch);
                if span_end[top.0] <= seg.start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if opened[id.0] == epoch {
                assert_eq!(
                    stack.last().map(|&(j, _)| j),
                    Some(id),
                    "schedule_forest: input schedule is not laminar at {seg:?}"
                );
                continue;
            }
            let value = jobs.job(id).value;
            let node = match stack.last() {
                Some(&(_, parent)) => forest.add_child(parent, value),
                None => forest.add_root(value),
            };
            debug_assert_eq!(node.0, node_job.len());
            node_job.push((machine, id));
            spans.push(Interval::new(seg.start, span_end[id.0]));
            opened[id.0] = epoch;
            stack.push((id, node));
        }
    }
    ScheduleForest { forest, node_job, spans }
}

/// Rebuilds a feasible `k`-bounded schedule from a laminar schedule and a
/// k-BAS keep-set over its schedule forest (Lemma 4.1's left-merge).
///
/// The result schedules exactly the kept jobs, each within its window, with
/// at most `k` preemptions each (`k` = the keep-set's degree bound), and
/// its total value equals the keep-set's value.
pub fn reconstruct(
    jobs: &JobSet,
    laminar: &Schedule,
    sf: &ScheduleForest,
    keep: &KeepSet,
) -> Schedule {
    reconstruct_ws(jobs, laminar, sf, keep, &mut SolveWorkspace::new())
}

/// [`reconstruct`] with caller-provided scratch memory (see
/// [`SolveWorkspace`]). Identical output.
///
/// One flat pass over the kept nodes. Each node's `allowed(u)` comes from
/// the spans stored in `sf`, and its leftmost fill is appended to one
/// shared buffer and copied into one exact-size segment vector, so the pass
/// costs `O(kept nodes + their children)` plus one sort of the buffer. The
/// sort is the collision check: on each machine, consecutive placed
/// segments must not overlap. Lemma 4.1 says they never do, so a failure is
/// a bug and panics.
/// `laminar` is the schedule `sf` was built from; only debug builds read it,
/// to check that the stored spans are its spans.
///
/// # Panics
/// When a kept job does not fit its allowed region, or when two placed
/// segments share a tick on one machine.
pub fn reconstruct_ws(
    jobs: &JobSet,
    laminar: &Schedule,
    sf: &ScheduleForest,
    keep: &KeepSet,
    ws: &mut SolveWorkspace,
) -> Schedule {
    let mut out = Schedule::new();
    let booked = &mut ws.sf.booked;
    booked.clear();
    for node in keep.ids() {
        let (machine, id) = sf.node_job[node.0];
        let span = sf.spans[node.0];
        debug_assert_eq!(laminar.segments(id).and_then(SegmentSet::span), Some(span));
        // allowed(u) = span(u) minus kept children's spans. Laminarity nests
        // the kept children's spans disjointly inside span(u), and node ids
        // are assigned in segment-start order per machine, so the children
        // list is already sorted by span start: a cursor sweep visits the
        // allowed pieces left to right (the last one ends at an empty
        // sentinel hole at span(u)'s end), and the leftmost fill takes each
        // whole until the last piece it needs.
        let holes = sf.forest.children(node).iter().filter(|&&c| keep.contains(c));
        let holes = holes.map(|c| sf.spans[c.0]).chain([Interval::new(span.end, span.end)]);
        let first = booked.len();
        let mut need = jobs.job(id).length;
        let mut cursor = span.start;
        for hole in holes {
            if need == 0 {
                break;
            }
            if hole.start > cursor {
                let len = need.min(hole.start - cursor);
                booked.push((machine, Interval::with_len(cursor, len)));
                need -= len;
            }
            cursor = cursor.max(hole.end);
        }
        assert_eq!(need, 0, "Lemma 4.1: allowed region must fit the job");
        // The pieces are separated by kept children's spans, so they are
        // already in normal form: the set keeps this exact-size vector.
        let placed = booked[first..].iter().map(|&(_, iv)| iv).collect::<Vec<_>>();
        out.assign(id, machine, SegmentSet::from_intervals(placed));
    }
    booked.sort_unstable_by_key(|&(machine, iv)| (machine, iv.start));
    for w in booked.windows(2) {
        let ((ma, a), (mb, b)) = (w[0], w[1]);
        assert!(
            ma != mb || a.end <= b.start,
            "Lemma 4.1: left-merge double-booked machine {ma} at {a:?} and {b:?}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::edf_schedule;
    use pobp_core::Job;
    use pobp_forest::{is_kbas, tm};

    fn seg_set(pairs: &[(i64, i64)]) -> SegmentSet {
        SegmentSet::from_intervals(pairs.iter().map(|&(a, b)| Interval::new(a, b)))
    }

    /// Nested triple: A ⊃ B ⊃ C plus a sibling D inside A after B.
    ///
    /// ```text
    /// time:  0    1    2    3    4    5    6    7    8    9
    /// A      ████                          ████
    /// B           ████           ████
    /// C                ████ ████
    /// D                                         ████ (separate gap? no —
    ///        D sits between A's segments after B: 7..8 is A; put D 8..9?)
    /// ```
    fn nested_jobs() -> (JobSet, Schedule) {
        // A: [0,1) and [6,7); B: [1,2) and [4,5); C: [2,4); D: [5,6).
        // Nesting: B,D inside A's gap; C inside B's gap.
        let jobs: JobSet = vec![
            Job::new(0, 10, 2, 10.0), // A
            Job::new(0, 10, 2, 5.0),  // B
            Job::new(0, 10, 2, 3.0),  // C
            Job::new(0, 10, 1, 2.0),  // D
        ]
        .into_iter()
        .collect();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), seg_set(&[(0, 1), (6, 7)]));
        s.assign_single(JobId(1), seg_set(&[(1, 2), (4, 5)]));
        s.assign_single(JobId(2), seg_set(&[(2, 4)]));
        s.assign_single(JobId(3), seg_set(&[(5, 6)]));
        s.verify(&jobs, None).unwrap();
        (jobs, s)
    }

    #[test]
    fn forest_captures_nesting() {
        let (jobs, s) = nested_jobs();
        let sf = schedule_forest(&jobs, &s);
        let f = &sf.forest;
        assert_eq!(f.len(), 4);
        assert_eq!(f.roots().len(), 1);
        let root = f.roots()[0];
        assert_eq!(sf.job_of(root), JobId(0));
        // A's children: B and D (both open inside A's span gap).
        let kids: Vec<JobId> = f.children(root).iter().map(|&c| sf.job_of(c)).collect();
        assert_eq!(kids, vec![JobId(1), JobId(3)]);
        // B's child: C.
        let b = f.children(root)[0];
        let bkids: Vec<JobId> = f.children(b).iter().map(|&c| sf.job_of(c)).collect();
        assert_eq!(bkids, vec![JobId(2)]);
        // Values carried over.
        assert_eq!(f.value(root), 10.0);
    }

    #[test]
    #[should_panic(expected = "not laminar")]
    fn forest_rejects_interleaving() {
        let jobs: JobSet = vec![Job::new(0, 4, 2, 1.0), Job::new(0, 4, 2, 1.0)]
            .into_iter()
            .collect();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), seg_set(&[(0, 1), (2, 3)]));
        s.assign_single(JobId(1), seg_set(&[(1, 2), (3, 4)]));
        let _ = schedule_forest(&jobs, &s);
    }

    #[test]
    fn sequential_jobs_make_separate_roots() {
        let jobs: JobSet = vec![Job::new(0, 5, 2, 1.0), Job::new(0, 10, 2, 1.0)]
            .into_iter()
            .collect();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), seg_set(&[(0, 2)]));
        s.assign_single(JobId(1), seg_set(&[(2, 4)]));
        let sf = schedule_forest(&jobs, &s);
        assert_eq!(sf.forest.roots().len(), 2);
    }

    #[test]
    fn multi_machine_forests_merge() {
        let jobs: JobSet = vec![Job::new(0, 5, 2, 1.0), Job::new(0, 5, 2, 1.0)]
            .into_iter()
            .collect();
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, seg_set(&[(0, 2)]));
        s.assign(JobId(1), 3, seg_set(&[(0, 2)]));
        let sf = schedule_forest(&jobs, &s);
        assert_eq!(sf.forest.roots().len(), 2);
        assert_eq!(sf.machine_of(NodeId(0)), 0);
        assert_eq!(sf.machine_of(NodeId(1)), 3);
    }

    #[test]
    fn reconstruct_full_keep_is_feasible() {
        let (jobs, s) = nested_jobs();
        let sf = schedule_forest(&jobs, &s);
        let keep = KeepSet::from_mask(vec![true; 4]);
        let rec = reconstruct(&jobs, &s, &sf, &keep);
        rec.verify(&jobs, None).unwrap();
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.value(&jobs), 20.0);
        // A keeps both children → 2 gaps → ≤ 3 segments.
        assert!(rec.preemptions(JobId(0)) <= 2);
    }

    #[test]
    fn reconstruct_merges_left_over_removed_child() {
        let (jobs, s) = nested_jobs();
        let sf = schedule_forest(&jobs, &s);
        // Remove B's subtree (B and C pruned down), keep A and D.
        let a_node = sf.forest.roots()[0];
        let d_node = *sf
            .forest
            .children(a_node)
            .iter()
            .find(|&&c| sf.job_of(c) == JobId(3))
            .unwrap();
        let keep = KeepSet::from_ids(sf.forest.len(), &[a_node, d_node]);
        assert!(is_kbas(&sf.forest, &keep, 1));
        let rec = reconstruct(&jobs, &s, &sf, &keep);
        rec.verify(&jobs, Some(1)).unwrap();
        assert_eq!(rec.len(), 2);
        // A's work fills leftmost around D's span [5,6): A gets [0,1)+... —
        // allowed(A) = [0,7) minus [5,6); leftmost 2 ticks → [0,2).
        assert_eq!(rec.segments(JobId(0)).unwrap().segments(), &[Interval::new(0, 2)]);
        // D stays inside its own span.
        assert_eq!(rec.segments(JobId(3)).unwrap().segments(), &[Interval::new(5, 6)]);
    }

    #[test]
    fn reconstruct_after_tm_is_k_bounded() {
        let (jobs, s) = nested_jobs();
        let sf = schedule_forest(&jobs, &s);
        for k in 0..3u32 {
            let res = tm(&sf.forest, k);
            assert!(is_kbas(&sf.forest, &res.keep, k));
            let rec = reconstruct(&jobs, &s, &sf, &res.keep);
            rec.verify(&jobs, Some(k)).unwrap();
            // Value of the reconstruction = value of the k-BAS.
            assert!((rec.value(&jobs) - res.value).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn reconstruct_absorbs_idle_holes() {
        // A preempted with an idle hole (availability-split): A [0,2), [5,7)
        // with child B at [2,3) and idle [3,5). Removing B, A merges left
        // across both the removed block and the hole.
        let jobs: JobSet = vec![Job::new(0, 10, 4, 1.0), Job::new(0, 10, 1, 1.0)]
            .into_iter()
            .collect();
        let mut s = Schedule::new();
        s.assign_single(JobId(0), seg_set(&[(0, 2), (5, 7)]));
        s.assign_single(JobId(1), seg_set(&[(2, 3)]));
        let sf = schedule_forest(&jobs, &s);
        let root = sf.forest.roots()[0];
        let keep = KeepSet::from_ids(sf.forest.len(), &[root]);
        let rec = reconstruct(&jobs, &s, &sf, &keep);
        rec.verify(&jobs, Some(0)).unwrap();
        assert_eq!(rec.segments(JobId(0)).unwrap().segments(), &[Interval::new(0, 4)]);
    }

    #[test]
    fn reconstruct_component_below_pruned_up_root_stays_in_place() {
        let (jobs, s) = nested_jobs();
        let sf = schedule_forest(&jobs, &s);
        // Prune A up; keep B (with child C) and D as separate components.
        let a = sf.forest.roots()[0];
        let members: Vec<NodeId> = sf.forest.ids().filter(|&n| n != a).collect();
        let keep = KeepSet::from_ids(sf.forest.len(), &members);
        assert!(is_kbas(&sf.forest, &keep, 1));
        let rec = reconstruct(&jobs, &s, &sf, &keep);
        rec.verify(&jobs, Some(1)).unwrap();
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.value(&jobs), 10.0);
    }

    /// Two roots whose stored spans overlap on one machine, as no laminar
    /// schedule's forest has them: the left-merge must not place both.
    fn overlapping_roots(machines: [MachineId; 2]) -> (JobSet, Schedule, ScheduleForest) {
        let jobs: JobSet = vec![Job::new(0, 10, 3, 1.0), Job::new(0, 10, 3, 1.0)]
            .into_iter()
            .collect();
        let spans = vec![Interval::new(0, 4), Interval::new(2, 6)];
        let mut s = Schedule::new();
        let mut forest = Forest::new();
        for (i, (&span, &machine)) in spans.iter().zip(&machines).enumerate() {
            s.assign(JobId(i), machine, SegmentSet::singleton(span));
            forest.add_root(1.0);
        }
        let node_job = vec![(machines[0], JobId(0)), (machines[1], JobId(1))];
        (jobs, s, ScheduleForest { forest, node_job, spans })
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn reconstruct_panics_on_a_double_booked_tick() {
        let (jobs, s, sf) = overlapping_roots([0, 0]);
        let _ = reconstruct(&jobs, &s, &sf, &KeepSet::from_mask(vec![true; 2]));
    }

    #[test]
    fn reconstruct_checks_collisions_per_machine() {
        let (jobs, s, sf) = overlapping_roots([0, 1]);
        let rec = reconstruct(&jobs, &s, &sf, &KeepSet::from_mask(vec![true; 2]));
        rec.verify(&jobs, Some(0)).unwrap();
        assert_eq!(rec.segments(JobId(1)).unwrap().segments(), &[Interval::new(2, 5)]);
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn reconstruct_panics_when_a_job_does_not_fit() {
        // A's span [0,7) minus its kept children's spans B [1,5) and D
        // [5,6) leaves 2 ticks; A is made to need 3.
        let (mut jobs, s) = nested_jobs();
        let sf = schedule_forest(&jobs, &s);
        jobs = jobs
            .iter()
            .map(|(id, j)| if id == JobId(0) { Job::new(0, 10, 3, 10.0) } else { *j })
            .collect();
        let _ = reconstruct(&jobs, &s, &sf, &KeepSet::from_mask(vec![true; 4]));
    }

    #[test]
    fn edf_to_forest_roundtrip() {
        // An EDF schedule is laminar by construction → forest builds fine.
        let jobs: JobSet = vec![
            Job::new(0, 40, 12, 1.0),
            Job::new(2, 10, 4, 1.0),
            Job::new(3, 7, 2, 1.0),
            Job::new(15, 25, 5, 1.0),
        ]
        .into_iter()
        .collect();
        let ids: Vec<JobId> = (0..4).map(JobId).collect();
        let out = edf_schedule(&jobs, &ids, None);
        assert!(out.is_feasible());
        let sf = schedule_forest(&jobs, &out.schedule);
        assert_eq!(sf.forest.len(), 4);
        // j0 is preempted by j1, which is preempted by j2; j3 may nest in j0.
        let keep = KeepSet::from_mask(vec![true; 4]);
        let rec = reconstruct(&jobs, &out.schedule, &sf, &keep);
        rec.verify(&jobs, None).unwrap();
    }
}
