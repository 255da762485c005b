//! Execution traces: what the machine actually did, tick by tick.

use pobp_core::{Interval, JobId, JobSet, Time};

/// One machine-level event in an execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecEvent {
    /// A job was dispatched for the first time.
    Start(JobId),
    /// A running job was preempted by another.
    Preempt {
        /// The job taken off the machine.
        out: JobId,
        /// The job taking over.
        by: JobId,
    },
    /// A previously preempted job resumed.
    Resume(JobId),
    /// A job finished all its work.
    Complete(JobId),
    /// A job was abandoned (cannot meet its deadline any more).
    Abort(JobId),
    /// The machine began paying context-switch overhead.
    OverheadBegin,
    /// The machine finished paying overhead and begins useful work.
    OverheadEnd,
}

/// A timestamped execution trace plus the raw busy intervals.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    /// `(time, event)` pairs in chronological order.
    pub events: Vec<(Time, ExecEvent)>,
    /// Useful work intervals, per job.
    pub work: Vec<(JobId, Interval)>,
    /// Machine time consumed by context-switch overhead.
    pub overhead: Vec<Interval>,
}

impl ExecTrace {
    /// Records an event.
    pub fn push(&mut self, t: Time, e: ExecEvent) {
        self.events.push((t, e));
    }

    /// Number of context switches paid (overhead intervals).
    pub fn switches(&self) -> usize {
        self.overhead.len()
    }

    /// Total machine time spent on overhead.
    pub fn overhead_time(&self) -> Time {
        self.overhead.iter().map(Interval::len).sum()
    }

    /// Total useful work time.
    pub fn work_time(&self) -> Time {
        self.work.iter().map(|(_, iv)| iv.len()).sum()
    }

    /// Jobs that completed, in completion order.
    pub fn completed(&self) -> Vec<JobId> {
        self.events
            .iter()
            .filter_map(|&(_, e)| match e {
                ExecEvent::Complete(j) => Some(j),
                _ => None,
            })
            .collect()
    }

    /// Jobs that were aborted.
    pub fn aborted(&self) -> Vec<JobId> {
        self.events
            .iter()
            .filter_map(|&(_, e)| match e {
                ExecEvent::Abort(j) => Some(j),
                _ => None,
            })
            .collect()
    }

    /// Preemptions taken across all jobs, aborted ones included (the
    /// `Preempt` events).
    pub fn preemptions(&self) -> usize {
        self.events.iter().filter(|(_, e)| matches!(e, ExecEvent::Preempt { .. })).count()
    }

    /// Total value completed under `jobs`.
    pub fn value(&self, jobs: &JobSet) -> f64 {
        self.completed().iter().map(|&j| jobs.job(j).value).sum()
    }

    /// Preemption count per completed job id (segments − 1 of useful work).
    pub fn preemptions_of(&self, job: JobId) -> usize {
        let segs = pobp_core::SegmentSet::from_intervals(
            self.work.iter().filter(|(j, _)| *j == job).map(|&(_, iv)| iv),
        );
        segs.count().saturating_sub(1)
    }

    /// Internal consistency: events are time-ordered; work and overhead
    /// intervals are pairwise disjoint.
    pub fn check(&self) -> Result<(), String> {
        for w in self.events.windows(2) {
            if w[0].0 > w[1].0 {
                return Err(format!("events out of order: {w:?}"));
            }
        }
        let mut all: Vec<Interval> = self.work.iter().map(|&(_, iv)| iv).collect();
        all.extend(self.overhead.iter().copied());
        all.sort_unstable();
        for w in all.windows(2) {
            if w[0].overlaps(&w[1]) {
                return Err(format!("machine double-booked: {:?} vs {:?}", w[0], w[1]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::Job;

    #[test]
    fn trace_accounting() {
        let jobs: JobSet = vec![Job::new(0, 10, 4, 3.0), Job::new(0, 10, 2, 2.0)]
            .into_iter()
            .collect();
        let mut tr = ExecTrace::default();
        tr.push(0, ExecEvent::Start(JobId(0)));
        tr.work.push((JobId(0), Interval::new(0, 2)));
        tr.push(2, ExecEvent::Preempt { out: JobId(0), by: JobId(1) });
        tr.overhead.push(Interval::new(2, 3));
        tr.push(2, ExecEvent::OverheadBegin);
        tr.push(3, ExecEvent::OverheadEnd);
        tr.work.push((JobId(1), Interval::new(3, 5)));
        tr.push(5, ExecEvent::Complete(JobId(1)));
        tr.work.push((JobId(0), Interval::new(5, 7)));
        tr.push(5, ExecEvent::Resume(JobId(0)));
        tr.push(7, ExecEvent::Complete(JobId(0)));
        tr.check().unwrap();
        assert_eq!(tr.switches(), 1);
        assert_eq!(tr.overhead_time(), 1);
        assert_eq!(tr.work_time(), 6);
        assert_eq!(tr.completed(), vec![JobId(1), JobId(0)]);
        assert!(tr.aborted().is_empty());
        assert_eq!(tr.preemptions(), 1);
        assert_eq!(tr.value(&jobs), 5.0);
        assert_eq!(tr.preemptions_of(JobId(0)), 1);
        assert_eq!(tr.preemptions_of(JobId(1)), 0);
    }

    #[test]
    fn check_rejects_overlap() {
        let mut tr = ExecTrace::default();
        tr.work.push((JobId(0), Interval::new(0, 3)));
        tr.work.push((JobId(1), Interval::new(2, 4)));
        assert!(tr.check().is_err());
    }

    #[test]
    fn check_rejects_unordered_events() {
        let mut tr = ExecTrace::default();
        tr.push(5, ExecEvent::Start(JobId(0)));
        tr.push(3, ExecEvent::Complete(JobId(0)));
        assert!(tr.check().is_err());
    }
}
