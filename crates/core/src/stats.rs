//! Schedule statistics: preemption histograms, utilization, per-machine
//! load. Used by the experiment harness and the examples to report the
//! quantities the paper's motivation cares about (context-switch counts).

use crate::job::{JobSet, Value};
use crate::schedule::{MachineId, Schedule};
use crate::time::{Interval, Time};

/// Aggregate statistics of a schedule against its job set.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleStats {
    /// Number of scheduled jobs.
    pub scheduled: usize,
    /// Number of rejected jobs (in the job set but not the schedule).
    pub rejected: usize,
    /// Total value of the scheduled jobs.
    pub value: Value,
    /// Fraction of the job set's total value retained (1.0 when all of it).
    pub value_fraction: f64,
    /// Total preemptions across jobs (`Σ (segments − 1)`), i.e. the number
    /// of extra context switches the schedule pays vs running each job
    /// en bloc.
    pub total_preemptions: usize,
    /// `histogram[p]` = number of scheduled jobs preempted exactly `p`
    /// times.
    pub preemption_histogram: Vec<usize>,
    /// Per-machine busy time.
    pub machine_busy: Vec<(MachineId, Time)>,
    /// Machine utilization within the schedule's own span (busy / span),
    /// averaged over used machines. 0 for an empty schedule.
    pub utilization: f64,
}

/// The three totals a solve reports, a subset of [`ScheduleStats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleTotals {
    /// Total value of the scheduled jobs ([`Schedule::value`]).
    pub value: Value,
    /// Number of scheduled jobs.
    pub scheduled: usize,
    /// Total preemptions across jobs (`Σ (segments − 1)`).
    pub preemptions: usize,
}

/// Computes [`ScheduleTotals`] in one pass over the schedule, without the
/// histogram, busy time and utilization of [`schedule_stats`].
pub fn schedule_totals(jobs: &JobSet, schedule: &Schedule) -> ScheduleTotals {
    let mut preemptions = 0usize;
    // Summed in id order, as `Schedule::value` sums: the same bits.
    let value: Value = schedule
        .iter()
        .map(|(id, a)| {
            preemptions += a.segs.count().saturating_sub(1);
            jobs.job(id).value
        })
        .sum();
    ScheduleTotals { value, scheduled: schedule.len(), preemptions }
}

/// Computes [`ScheduleStats`].
pub fn schedule_stats(jobs: &JobSet, schedule: &Schedule) -> ScheduleStats {
    let ScheduleTotals { value, scheduled, preemptions: total_preemptions } =
        schedule_totals(jobs, schedule);
    let rejected = jobs.len().saturating_sub(scheduled);
    let total_value = jobs.total_value();
    let value_fraction = if total_value > 0.0 { value / total_value } else { 0.0 };

    let max_p = schedule.max_preemptions();
    let mut histogram = vec![0usize; max_p + 1];
    for id in schedule.scheduled_ids() {
        histogram[schedule.preemptions(id)] += 1;
    }
    if schedule.is_empty() {
        histogram.clear();
    }

    let mut machine_busy = Vec::new();
    let mut util_sum = 0.0;
    let machines = schedule.machines();
    for &m in &machines {
        let busy = schedule.busy(m);
        let len = busy.total_len();
        if let Some(span) = busy.span() {
            util_sum += len as f64 / span.len() as f64;
        }
        machine_busy.push((m, len));
    }
    let utilization = if machines.is_empty() { 0.0 } else { util_sum / machines.len() as f64 };

    ScheduleStats {
        scheduled,
        rejected,
        value,
        value_fraction,
        total_preemptions,
        preemption_histogram: histogram,
        machine_busy,
        utilization,
    }
}

/// The busy fraction of `window` on `machine` — the `b0`-load of
/// Lemma 4.12, measurable for experiment assertions.
pub fn window_load(schedule: &Schedule, machine: MachineId, window: &Interval) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    let busy = schedule.busy(machine).clip(window).total_len();
    busy as f64 / window.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId};
    use crate::segs::SegmentSet;

    fn setup() -> (JobSet, Schedule) {
        let jobs: JobSet = vec![
            Job::new(0, 10, 4, 4.0),
            Job::new(2, 8, 3, 3.0),
            Job::new(0, 50, 5, 3.0), // rejected
        ]
        .into_iter()
        .collect();
        let mut s = Schedule::new();
        s.assign_single(
            JobId(0),
            SegmentSet::from_intervals([Interval::new(0, 2), Interval::new(5, 7)]),
        );
        s.assign_single(JobId(1), SegmentSet::from_intervals([Interval::new(2, 5)]));
        (jobs, s)
    }

    #[test]
    fn counts_and_values() {
        let (jobs, s) = setup();
        let st = schedule_stats(&jobs, &s);
        assert_eq!(st.scheduled, 2);
        assert_eq!(st.rejected, 1);
        assert_eq!(st.value, 7.0);
        assert!((st.value_fraction - 0.7).abs() < 1e-12);
        assert_eq!(st.total_preemptions, 1);
        assert_eq!(st.preemption_histogram, vec![1, 1]); // one 0-preempt, one 1-preempt
    }

    #[test]
    fn machine_busy_and_utilization() {
        let (jobs, s) = setup();
        let st = schedule_stats(&jobs, &s);
        assert_eq!(st.machine_busy, vec![(0, 7)]);
        assert_eq!(st.utilization, 1.0); // busy [0,7) is contiguous
    }

    #[test]
    fn empty_schedule() {
        let (jobs, _) = setup();
        let st = schedule_stats(&jobs, &Schedule::new());
        assert_eq!(st.scheduled, 0);
        assert_eq!(st.rejected, 3);
        assert_eq!(st.value, 0.0);
        assert_eq!(st.utilization, 0.0);
        assert!(st.preemption_histogram.is_empty());
    }

    #[test]
    fn multi_machine_busy() {
        let jobs: JobSet = vec![Job::new(0, 10, 4, 1.0), Job::new(0, 10, 2, 1.0)]
            .into_iter()
            .collect();
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, SegmentSet::singleton(Interval::new(0, 4)));
        s.assign(JobId(1), 2, SegmentSet::singleton(Interval::new(4, 6)));
        let st = schedule_stats(&jobs, &s);
        assert_eq!(st.machine_busy, vec![(0, 4), (2, 2)]);
        assert_eq!(st.value_fraction, 1.0);
    }

    /// The lean totals agree with the full statistics, and with what
    /// `Schedule` recomputes on its own: the value to the bit, the
    /// preemptions with the histogram's weighted sum.
    #[test]
    fn totals_match_the_full_stats() {
        let (jobs, preempted) = setup();
        let multi_jobs: JobSet =
            vec![Job::new(0, 10, 4, 1.0), Job::new(0, 10, 2, 1.5), Job::new(0, 12, 3, 2.0)]
                .into_iter()
                .collect();
        let mut multi = Schedule::new();
        multi.assign(JobId(0), 0, SegmentSet::singleton(Interval::new(0, 4)));
        multi.assign(
            JobId(1),
            2,
            SegmentSet::from_intervals([Interval::new(0, 1), Interval::new(5, 6)]),
        );
        multi.assign(
            JobId(2),
            2,
            SegmentSet::from_intervals([
                Interval::new(1, 2),
                Interval::new(3, 4),
                Interval::new(8, 9),
            ]),
        );
        let empty = Schedule::new();
        for (jobs, s, preemptions) in
            [(&jobs, &preempted, 1), (&jobs, &empty, 0), (&multi_jobs, &multi, 3)]
        {
            let totals = schedule_totals(jobs, s);
            let stats = schedule_stats(jobs, s);
            assert_eq!(totals.value.to_bits(), stats.value.to_bits());
            assert_eq!(totals.value.to_bits(), s.value(jobs).to_bits());
            assert_eq!(totals.scheduled, stats.scheduled);
            assert_eq!(totals.scheduled, s.len());
            assert_eq!(totals.preemptions, stats.total_preemptions);
            let weighted: usize =
                stats.preemption_histogram.iter().enumerate().map(|(p, n)| p * n).sum();
            assert_eq!(totals.preemptions, weighted);
            assert_eq!(totals.preemptions, preemptions);
        }
    }

    #[test]
    fn window_load_matches_lemma_4_12_quantity() {
        let (_, s) = setup();
        assert_eq!(window_load(&s, 0, &Interval::new(0, 7)), 1.0);
        assert_eq!(window_load(&s, 0, &Interval::new(0, 14)), 0.5);
        assert_eq!(window_load(&s, 0, &Interval::new(7, 14)), 0.0);
        assert_eq!(window_load(&s, 0, &Interval::new(3, 3)), 0.0);
        assert_eq!(window_load(&s, 1, &Interval::new(0, 7)), 0.0);
    }
}
