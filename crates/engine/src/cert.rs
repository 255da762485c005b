//! Certified outputs: the engine's trust boundary.
//!
//! Nothing leaves the engine as [`TaskResult::Done`](crate::task::TaskResult)
//! (or `Degraded`) on trust. Before a result is emitted — whether solved by
//! the task's algorithm or produced by the degradation fallback — the
//! schedule behind it is independently re-checked against the `JobSet`:
//!
//! 1. **feasibility** — `Schedule::verify_on(jobs, Some(eff_k), machines)`:
//!    every clause of Definition 2.1 plus the machine range;
//! 2. **value** — the claimed `alg_value`, `scheduled` count, and
//!    `preemptions` are recomputed from the schedule and must match;
//! 3. **reference** — the reference schedule re-verifies and its recomputed
//!    value must match the claimed `ref_value`.
//!
//! A mismatch becomes a structured
//! [`TaskResult::CertFailed`](crate::task::TaskResult) naming the stage and
//! reason, **never** a wrong value in an output row. This is what turns
//! injected reference corruption (see [`crate::chaos`]) or a solver bug into a
//! visible, attributable failure. Certification is always on; it is not
//! feature-gated. Each emitted result costs one `verify_on` of its own
//! schedule and one pass recomputing its three totals
//! ([`schedule_totals`]). The reference check (a `verify` and a
//! revaluation of the reference schedule) runs once for each run of tasks
//! that hand a worker the same reference `Arc` for an equal instance: once
//! per `k` row. A check that failed is never remembered, so every task
//! handed a bad reference fails on its own.
//!
//! Values in this workspace are integer-valued `f64`s (exact — DESIGN.md
//! §4); the comparisons still allow a `1e-9` relative slack so the
//! certification layer never flags benign floating-point noise, while the
//! chaos corruption (`2v + 1`) stays far outside it.

use pobp_core::{schedule_totals, JobSet, Schedule};

use crate::task::SolveOutput;

/// Which certification check failed. Stage names are stable (used in JSON
/// output and CI assertions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertStage {
    /// The schedule failed `Schedule::verify_on` (Definition 2.1 clauses or
    /// machine range).
    Feasibility,
    /// Recomputed value/scheduled/preemptions disagree with the claimed
    /// [`SolveOutput`].
    Value,
    /// The reference schedule failed re-verification, or its recomputed
    /// value disagrees with the claimed `ref_value`.
    Reference,
}

impl CertStage {
    /// The stable lowercase name used by CLIs and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            CertStage::Feasibility => "feasibility",
            CertStage::Value => "value",
            CertStage::Reference => "reference",
        }
    }
}

/// A failed certification: the stage that caught it and a human-readable
/// reason.
#[derive(Clone, Debug, PartialEq)]
pub struct CertFailure {
    /// The failing check.
    pub stage: CertStage,
    /// What mismatched, with the claimed and recomputed quantities.
    pub reason: String,
}

/// Relative tolerance for value comparisons (see the module docs).
const TOL: f64 = 1e-9;

fn values_differ(claimed: f64, recomputed: f64) -> bool {
    (claimed - recomputed).abs() > TOL * recomputed.abs().max(1.0)
}

/// Certifies a bounded-stage result: feasibility of `schedule` under
/// `(eff_k, machines)` and agreement of `out`'s claimed statistics with a
/// recomputation from the schedule. The reference side is certified
/// separately ([`certify_reference`]).
pub(crate) fn certify_solve(
    jobs: &JobSet,
    schedule: &Schedule,
    eff_k: u32,
    machines: usize,
    out: &SolveOutput,
) -> Result<(), CertFailure> {
    schedule.verify_on(jobs, Some(eff_k), machines).map_err(|e| CertFailure {
        stage: CertStage::Feasibility,
        reason: e.to_string(),
    })?;
    let totals = schedule_totals(jobs, schedule);
    if values_differ(out.alg_value, totals.value) {
        return Err(CertFailure {
            stage: CertStage::Value,
            reason: format!(
                "claimed value {} but the schedule recomputes to {}",
                out.alg_value, totals.value
            ),
        });
    }
    if out.scheduled != totals.scheduled {
        return Err(CertFailure {
            stage: CertStage::Value,
            reason: format!(
                "claimed {} scheduled jobs but the schedule holds {}",
                out.scheduled, totals.scheduled
            ),
        });
    }
    if out.preemptions != totals.preemptions {
        return Err(CertFailure {
            stage: CertStage::Value,
            reason: format!(
                "claimed {} preemptions but the schedule recomputes to {}",
                out.preemptions, totals.preemptions
            ),
        });
    }
    Ok(())
}

/// Certifies the unbounded reference: the schedule re-verifies (unbounded
/// preemption, any machine) and its recomputed value matches `claimed`.
///
/// For the exact branch the claimed value is `OPT_∞` of the chosen subset —
/// exactly the witness schedule's value; for the greedy branch it is
/// computed from the schedule directly. Either way a corrupted cache entry
/// (or a buggy oracle) shows up here as a mismatch.
pub(crate) fn certify_reference(
    jobs: &JobSet,
    reference: &Schedule,
    claimed: f64,
) -> Result<(), CertFailure> {
    reference.verify(jobs, None).map_err(|e| CertFailure {
        stage: CertStage::Reference,
        reason: format!("reference schedule is infeasible: {e}"),
    })?;
    let recomputed = reference.value(jobs);
    if values_differ(claimed, recomputed) {
        return Err(CertFailure {
            stage: CertStage::Reference,
            reason: format!(
                "claimed reference value {claimed} but its schedule recomputes to {recomputed}"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::{Interval, Job, JobId, SegmentSet};

    fn setup() -> (JobSet, Schedule, SolveOutput) {
        let jobs: JobSet =
            vec![Job::new(0, 10, 4, 3.0), Job::new(0, 20, 5, 2.0)].into_iter().collect();
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, SegmentSet::from_intervals([Interval::new(0, 4)]));
        s.assign(JobId(1), 0, SegmentSet::from_intervals([Interval::new(4, 9)]));
        let out = SolveOutput {
            alg_value: 5.0,
            ref_value: 5.0,
            scheduled: 2,
            preemptions: 0,
            branch_values: None,
        };
        (jobs, s, out)
    }

    #[test]
    fn honest_results_certify() {
        let (jobs, s, out) = setup();
        assert_eq!(certify_solve(&jobs, &s, 1, 1, &out), Ok(()));
        assert_eq!(certify_reference(&jobs, &s, 5.0), Ok(()));
    }

    #[test]
    fn value_mismatch_is_caught_with_both_quantities() {
        let (jobs, s, mut out) = setup();
        out.alg_value = 11.0; // the chaos corruption formula: 2·5 + 1
        let err = certify_solve(&jobs, &s, 1, 1, &out).unwrap_err();
        assert_eq!(err.stage, CertStage::Value);
        assert!(err.reason.contains("11") && err.reason.contains('5'), "{}", err.reason);
    }

    #[test]
    fn infeasible_schedule_is_a_feasibility_failure() {
        let (jobs, mut s, out) = setup();
        // Overlap the two jobs on machine 0.
        s.assign(JobId(1), 0, SegmentSet::from_intervals([Interval::new(2, 7)]));
        let err = certify_solve(&jobs, &s, 1, 1, &out).unwrap_err();
        assert_eq!(err.stage, CertStage::Feasibility);
        // Machine out of range is also a feasibility failure.
        let (jobs, mut s, out) = setup();
        s.assign(JobId(1), 2, SegmentSet::from_intervals([Interval::new(4, 9)]));
        let err = certify_solve(&jobs, &s, 1, 1, &out).unwrap_err();
        assert_eq!(err.stage, CertStage::Feasibility);
        assert!(err.reason.contains("machine 2"), "{}", err.reason);
    }

    #[test]
    fn preemption_budget_is_recertified() {
        let (jobs, mut s, mut out) = setup();
        s.assign(
            JobId(1),
            0,
            SegmentSet::from_intervals([
                Interval::new(4, 6),
                Interval::new(7, 9),
                Interval::new(10, 11),
            ]),
        );
        out.preemptions = 2;
        assert_eq!(certify_solve(&jobs, &s, 2, 1, &out), Ok(()));
        let err = certify_solve(&jobs, &s, 1, 1, &out).unwrap_err();
        assert_eq!(err.stage, CertStage::Feasibility);
    }

    #[test]
    fn corrupted_reference_value_is_caught() {
        let (jobs, s, _) = setup();
        let err = certify_reference(&jobs, &s, 11.0).unwrap_err();
        assert_eq!(err.stage, CertStage::Reference);
        assert!(err.reason.contains("11"), "{}", err.reason);
    }
}
