//! `Schedule::busy` against the fold of pairwise unions it replaced, on
//! random multi-machine schedules.

use pobp_core::{Interval, JobId, MachineId, Schedule, SegmentSet};
use proptest::prelude::*;

/// Machines jobs are placed on; `busy` is asked about a few more, which
/// never hold a job.
const MACHINES: usize = 4;

/// The oracle: a left fold of `SegmentSet::union` over the jobs on
/// `machine`, in id order.
fn busy_by_union_fold(schedule: &Schedule, machine: MachineId) -> SegmentSet {
    schedule
        .iter()
        .filter(|(_, a)| a.machine == machine)
        .fold(SegmentSet::new(), |acc, (_, a)| acc.union(&a.segs))
}

/// Up to 24 jobs, each on a random machine with 1–3 segments. Segments of
/// different jobs on one machine overlap often. Half the jobs sit on a
/// 4-tick grid, so segments of different jobs also touch end to start.
/// The schedule is not feasible in general; `busy` does not require it.
fn arb_schedule() -> impl Strategy<Value = Schedule> {
    let job = (0..MACHINES, 0u8..2, proptest::collection::vec((0i64..24, 1i64..5), 1..4));
    proptest::collection::vec(job, 0..24).prop_map(|jobs| {
        let mut schedule = Schedule::new();
        for (i, (machine, on_grid, segs)) in jobs.into_iter().enumerate() {
            let step = if on_grid == 1 { 4 } else { 1 };
            let segs =
                segs.into_iter().map(|(start, len)| Interval::with_len(start * step, len * step));
            schedule.assign(JobId(i), machine, SegmentSet::from_intervals(segs));
        }
        schedule
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn busy_equals_the_union_fold(schedule in arb_schedule()) {
        for machine in 0..MACHINES + 2 {
            let busy = schedule.busy(machine);
            prop_assert_eq!(&busy, &busy_by_union_fold(&schedule, machine), "machine {}", machine);
            if !schedule.machines().contains(&machine) {
                prop_assert!(busy.is_empty(), "machine {} holds no job", machine);
            }
        }
    }
}

/// Segments of different jobs that touch end to start coalesce into one
/// busy interval; segments on another machine stay out.
#[test]
fn busy_coalesces_touching_jobs_per_machine() {
    let iv = Interval::new;
    let mut schedule = Schedule::new();
    schedule.assign(JobId(0), 0, SegmentSet::from_intervals([iv(0, 2), iv(6, 8)]));
    schedule.assign(JobId(1), 0, SegmentSet::from_intervals([iv(2, 4)]));
    schedule.assign(JobId(2), 0, SegmentSet::from_intervals([iv(3, 6), iv(10, 11)]));
    schedule.assign(JobId(3), 1, SegmentSet::from_intervals([iv(8, 10)]));
    assert_eq!(schedule.busy(0).segments(), &[iv(0, 8), iv(10, 11)]);
    assert_eq!(schedule.busy(1).segments(), &[iv(8, 10)]);
    assert!(schedule.busy(2).is_empty());
}
