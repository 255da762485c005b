//! The task wrapper: one `SolveTask` → one **certified** `SolveOutput`.
//!
//! Every task runs in two stages — the unbounded *reference* (the expensive,
//! `k`-independent side, served from the engine's reference cache when
//! possible) and the *bounded* algorithm itself — with a cooperative
//! [`TaskCtx`] check at each stage boundary. Before the output is released
//! the engine's trust boundary re-checks it ([`crate::cert`]): the schedule
//! re-verifies under `(eff_k, machines)`, the claimed totals recompute,
//! and the reference schedule's value matches the claimed `ref_value` (once
//! per reference and instance per worker: [`RowMemo`]). A mismatch is a
//! [`SolveFailure::Cert`], which the pool turns into
//! `TaskResult::CertFailed`. Panics are **not** handled here: they unwind
//! out to the pool's `catch_unwind` so the taxonomy (panic vs timeout vs
//! cancel vs cert) stays in one place.

use std::ptr;
use std::sync::Arc;

use pobp_core::{obs_count, obs_time, schedule_totals, trace_event, JobId, JobSet, Schedule};
use pobp_sched::{
    combined_from_scratch, greedy_unbounded_ws, iterative_multi_machine, k_preemption_combined,
    lsa_cs, opt_unbounded, schedule_k0, KbasSolver, ReductionPlan, SolveWorkspace,
};
use pobp_sim::{run_online, OnlineAlg, OnlineConfig};

use crate::cache::{instance_hash, RefSolution, ResultCache};
use crate::cancel::{StopReason, TaskCtx};
use crate::cert::{self, CertFailure};
use crate::chaos::FaultSite;
use crate::task::{Algo, SolveOutput, SolveTask};

/// Why a solve attempt produced no output: stopped at a stage boundary, or
/// caught by the certification trust boundary.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum SolveFailure {
    /// Deadline or batch cancellation noticed at a stage boundary.
    Stopped(StopReason),
    /// The result did not survive certification.
    Cert(CertFailure),
}

impl From<StopReason> for SolveFailure {
    fn from(r: StopReason) -> Self {
        SolveFailure::Stopped(r)
    }
}

/// A certified solve: the output and whether the reference came from the
/// cache.
pub(crate) struct Solved {
    pub output: SolveOutput,
    pub ref_hit: bool,
}

/// A worker's memo of what a `k` row shares, kept for one batch.
///
/// A grid's `k` row is contiguous in the batch and its tasks share one
/// instance, so the worker that claims the row meets that instance task
/// after task. The memo pays once for what the row shares:
///
/// * the [`instance_hash`] of the last instance the worker hashed, which
///   is both the cache key and the chaos key;
/// * the reference `Arc` that last passed [`cert::certify_reference`], with
///   the instance it passed against;
/// * the [`ReductionPlan`] (the reference's schedule forest) of the last
///   reference the worker reduced, keyed by that reference's `Arc`.
///
/// Instances are borrowed from the batch's task slice and match by address
/// or by `==` (the content [`instance_hash`] covers); references match by
/// `Arc::ptr_eq`, and holding the `Arc` keeps its allocation alive, so a
/// pointer match is never a reused address. Only a passed check is stored.
/// Without the cache every task computes its own reference, so the
/// reference and plan slots never hit. Why this is not a cache layer: see
/// [`crate::cache`].
#[derive(Default)]
pub(crate) struct RowMemo<'b> {
    hashed: Option<(&'b JobSet, u64)>,
    certified: Option<(&'b JobSet, Arc<RefSolution>)>,
    plan: Option<(Arc<RefSolution>, ReductionPlan)>,
}

impl<'b> RowMemo<'b> {
    /// `instance_hash(jobs)`, reused while the instance is the one hashed
    /// last.
    pub(crate) fn instance_hash(&mut self, jobs: &'b JobSet) -> u64 {
        match self.hashed {
            Some((seen, h)) if same_instance(seen, jobs) => h,
            _ => {
                obs_count!("engine.instance.hashed");
                let h = instance_hash(jobs);
                self.hashed = Some((jobs, h));
                h
            }
        }
    }

    /// [`cert::certify_reference`], skipped when this very `Arc` already
    /// passed against an equal instance.
    fn certify_reference(
        &mut self,
        jobs: &'b JobSet,
        reference: &Arc<RefSolution>,
    ) -> Result<(), CertFailure> {
        if matches!(&self.certified, Some((seen, passed))
            if Arc::ptr_eq(passed, reference) && same_instance(seen, jobs))
        {
            return Ok(());
        }
        obs_count!("engine.cert.reference_checked");
        cert::certify_reference(jobs, &reference.schedule, reference.value)?;
        self.certified = Some((jobs, Arc::clone(reference)));
        Ok(())
    }

    /// The reduction prefix of `reference`: the memo's plan when it was
    /// built from this very reference, else a fresh plan that replaces it.
    /// Both reference kinds are unrestricted EDF runs (`corrupt-ref` moves
    /// only the claimed value), so the plan skips laminarization
    /// ([`ReductionPlan::from_edf_ws`]).
    fn plan(
        &mut self,
        reference: &Arc<RefSolution>,
        jobs: &JobSet,
        ws: &mut SolveWorkspace,
    ) -> &ReductionPlan {
        if !matches!(&self.plan, Some((built_from, _)) if Arc::ptr_eq(built_from, reference)) {
            let plan = ReductionPlan::from_edf_ws(jobs, &reference.schedule, ws);
            self.plan = Some((Arc::clone(reference), plan));
        }
        &self.plan.as_ref().expect("memo filled above").1
    }
}

/// Whether two instances are the same content: one allocation, or equal
/// jobs in equal order. For the positive, finite values a `Job` admits,
/// `==` on a value is equality of its bits, which is what
/// [`instance_hash`] reads.
fn same_instance(a: &JobSet, b: &JobSet) -> bool {
    ptr::eq(a, b) || a == b
}

/// Computes the unbounded reference of `task`, consulting `cache` (the
/// cache and the task's instance hash). The returned flag is `true` on a
/// cache hit. `ctx` carries the task's chaos handle, which only the
/// `corrupt-ref` site reads.
fn reference(
    task: &SolveTask,
    ids: &[JobId],
    cache: Option<(&ResultCache, u64)>,
    ctx: &TaskCtx,
    ws: &mut SolveWorkspace,
) -> (Arc<RefSolution>, bool) {
    if let Some((c, inst)) = cache {
        if let Some(hit) = c.get_ref(inst, task.exact_ref) {
            obs_count!("engine.cache.ref_hits");
            // Timing-class: which task wins the race to compute a shared
            // reference depends on scheduling order.
            trace_event!(timing "cache.ref_hit");
            return (hit, true);
        }
    }
    let mut sol = obs_time!("engine.solve.time.reference", {
        if task.exact_ref {
            let opt = opt_unbounded(&task.instance, ids);
            RefSolution { schedule: opt.schedule, value: opt.value }
        } else {
            let inf = greedy_unbounded_ws(&task.instance, ids, ws);
            let value = inf.schedule.value(&task.instance);
            RefSolution { schedule: inf.schedule, value }
        }
    });
    obs_count!("engine.solve.ref_computed");
    trace_event!(timing "cache.ref_computed");
    let sol = match cache {
        Some((c, inst)) => {
            // The `corrupt-ref` site, keyed by the cache entry: every
            // consumer of the entry observes the same corrupt bytes.
            if let Some(ch) = &ctx.chaos {
                ch.plan.corrupt_ref(inst ^ task.exact_ref as u64, &mut sol);
            }
            c.put_ref(inst, task.exact_ref, sol)
        }
        None => Arc::new(sol),
    };
    (sol, false)
}

/// Runs the bounded stage of `task` against the reference. Returns the
/// schedule, the effective `k` to verify against, and the combined
/// algorithm's branch values when available.
fn bounded_stage(
    task: &SolveTask,
    ids: &[JobId],
    reference: &Arc<RefSolution>,
    memo: &mut RowMemo<'_>,
    ws: &mut SolveWorkspace,
) -> (Schedule, u32, Option<(f64, f64)>) {
    let jobs = &task.instance;
    let k = task.k;
    if let Some(alg) = online_alg(task.algo) {
        // Online arrival mode (docs/online.md): single-machine by contract
        // — the CLI rejects `--machines > 1` up front; a hand-built task
        // that slips through panics here and surfaces as `Panicked`.
        assert!(task.machines == 1, "online algorithms are single-machine");
        let out = run_online(jobs, ids, OnlineConfig { alg, k });
        return (out.schedule, k, None);
    }
    if task.machines > 1 {
        // §4.3.4 iterative extension: each machine's run builds its own
        // greedy reference over the residual job set.
        let schedule = match task.algo {
            Algo::Reduction => iterative_multi_machine(jobs, ids, task.machines, |js, rem| {
                let inf = greedy_unbounded_ws(js, rem, ws);
                ReductionPlan::from_edf_ws(js, &inf.schedule, ws)
                    .solve_ws(js, k, KbasSolver::Tm, ws)
                    .schedule
            }),
            Algo::Combined => iterative_multi_machine(jobs, ids, task.machines, |js, rem| {
                combined_from_scratch(js, rem, k).chosen
            }),
            Algo::LsaCs => iterative_multi_machine(jobs, ids, task.machines, |js, rem| {
                lsa_cs(js, rem, k).schedule
            }),
            Algo::K0 => iterative_multi_machine(jobs, ids, task.machines, |js, rem| {
                schedule_k0(js, rem).schedule
            }),
            Algo::OnlineDjn | Algo::OnlineGreedy | Algo::OnlineEdf => {
                unreachable!("online algorithms returned above")
            }
            Algo::PanicForTest => panic!("injected panic (Algo::PanicForTest)"),
        };
        let eff_k = if task.algo == Algo::K0 { 0 } else { k };
        return (schedule, eff_k, None);
    }
    match task.algo {
        Algo::Reduction => {
            let plan = memo.plan(reference, jobs, ws);
            (plan.solve_ws(jobs, k, KbasSolver::Tm, ws).schedule, k, None)
        }
        Algo::Combined => {
            let out = k_preemption_combined(jobs, ids, &reference.schedule, k)
                .expect("reference schedule is feasible");
            let branches = Some((out.strict.value(jobs), out.lax.value(jobs)));
            (out.chosen, k, branches)
        }
        Algo::LsaCs => (lsa_cs(jobs, ids, k).schedule, k, None),
        Algo::K0 => (schedule_k0(jobs, ids).schedule, 0, None),
        Algo::OnlineDjn | Algo::OnlineGreedy | Algo::OnlineEdf => {
            unreachable!("online algorithms returned above")
        }
        Algo::PanicForTest => panic!("injected panic (Algo::PanicForTest)"),
    }
}

/// Maps the engine's online [`Algo`] variants onto the executor's
/// [`OnlineAlg`]; `None` for offline algorithms.
fn online_alg(algo: Algo) -> Option<OnlineAlg> {
    match algo {
        Algo::OnlineDjn => Some(OnlineAlg::Djn),
        Algo::OnlineGreedy => Some(OnlineAlg::Greedy),
        Algo::OnlineEdf => Some(OnlineAlg::EdfBudget),
        _ => None,
    }
}

/// Runs one task to completion and certifies the result. `cache` pairs the
/// cache with the task's instance hash, which the caller takes from
/// `memo`. `Err` carries the stage-boundary stop reason or the
/// certification failure; panics unwind to the caller (the pool's
/// `catch_unwind`).
pub(crate) fn solve_task<'b>(
    task: &'b SolveTask,
    ctx: &TaskCtx,
    cache: Option<(&ResultCache, u64)>,
    memo: &mut RowMemo<'b>,
    ws: &mut SolveWorkspace,
) -> Result<Solved, SolveFailure> {
    if let Some(stop) = ctx.should_stop() {
        return Err(stop.into());
    }
    let ids: Vec<JobId> = task.instance.ids().collect();
    let (reference, ref_hit) = reference(task, &ids, cache, ctx, ws);
    if let Some(stop) = ctx.should_stop() {
        return Err(stop.into());
    }
    if let Some(ch) = &ctx.chaos {
        // The `deadline` site: pretend the wall clock ran out exactly at
        // the reference→bounded stage boundary.
        if ch.plan.fires(FaultSite::ForcedDeadline, ch.key) {
            obs_count!("engine.chaos.deadline");
            trace_event!("chaos.deadline");
            return Err(StopReason::DeadlineExceeded.into());
        }
    }
    let (schedule, eff_k, branch_values) =
        obs_time!("engine.solve.time.bounded", bounded_stage(task, &ids, &reference, memo, ws));
    let totals = schedule_totals(&task.instance, &schedule);
    let output = SolveOutput {
        alg_value: totals.value,
        ref_value: reference.value,
        scheduled: totals.scheduled,
        preemptions: totals.preemptions,
        branch_values,
    };
    // The trust boundary: nothing leaves the wrapper uncertified — neither
    // the reference (which may come from the cache) nor the bounded side.
    obs_time!("engine.cert.time", {
        memo.certify_reference(&task.instance, &reference)
            .and_then(|()| {
                cert::certify_solve(&task.instance, &schedule, eff_k, task.machines, &output)
            })
            .map_err(SolveFailure::Cert)
    })?;
    trace_event!("cert.ok");
    Ok(Solved { output, ref_hit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::cert::CertStage;
    use pobp_core::Job;

    /// A memo that passed a reference for instance A is handed the same
    /// `Arc` for a different instance B, as a 64-bit collision of their
    /// instance hashes would hand it: B must re-check the reference, and
    /// fail.
    #[test]
    fn a_reference_passed_for_one_instance_is_checked_again_for_another() {
        let a: JobSet =
            vec![Job::new(0, 10, 4, 3.0), Job::new(0, 20, 5, 2.0)].into_iter().collect();
        // B: A's windows and lengths, so A's reference is feasible for B;
        // only its value is wrong.
        let b: JobSet =
            vec![Job::new(0, 10, 4, 7.0), Job::new(0, 20, 5, 2.0)].into_iter().collect();
        let (task_a, task_b) =
            (SolveTask::new(a, 1, Algo::Reduction), SolveTask::new(b, 2, Algo::Reduction));
        let ctx = TaskCtx { batch: CancelToken::new(), deadline: None, chaos: None };
        let cache = ResultCache::new();
        let mut memo = RowMemo::default();
        let mut ws = SolveWorkspace::new();

        let key = memo.instance_hash(&task_a.instance);
        let solved = solve_task(&task_a, &ctx, Some((&cache, key)), &mut memo, &mut ws)
            .unwrap_or_else(|_| panic!("A solves"));
        assert!(!solved.ref_hit);
        // The collision: B is looked up under A's key.
        let Err(SolveFailure::Cert(failure)) =
            solve_task(&task_b, &ctx, Some((&cache, key)), &mut memo, &mut ws)
        else {
            panic!("A's reference passed for B");
        };
        assert_eq!(failure.stage, CertStage::Reference);
        // A's pass still serves A, and B fails again: a failure is never
        // remembered as a pass.
        assert!(solve_task(&task_a, &ctx, Some((&cache, key)), &mut memo, &mut ws).is_ok());
        assert!(solve_task(&task_b, &ctx, Some((&cache, key)), &mut memo, &mut ws).is_err());
    }
}
