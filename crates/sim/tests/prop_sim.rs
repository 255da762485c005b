//! Property tests for the overhead-aware executor.

use pobp_core::{Job, JobId, JobSet};
use pobp_sim::{execute_online, max_robust_delta, switch_points, Policy, SimConfig};
use proptest::prelude::*;

fn arb_jobs(max_n: usize) -> impl Strategy<Value = JobSet> {
    proptest::collection::vec((0i64..50, 1i64..10, 0i64..20, 1u32..10), 1..=max_n).prop_map(
        |specs| {
            specs
                .into_iter()
                .map(|(r, p, slack, v)| Job::new(r, r + p + slack, p, v as f64))
                .collect()
        },
    )
}

fn all_ids(jobs: &JobSet) -> Vec<JobId> {
    jobs.ids().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traces_are_always_consistent(
        jobs in arb_jobs(20),
        delta in 0i64..6,
        pk in 0u32..5,
        which in 0usize..3,
    ) {
        let policy = match which {
            0 => Policy::Edf,
            1 => Policy::EdfBudget(pk),
            _ => Policy::NonPreemptive,
        };
        let ids = all_ids(&jobs);
        let out = execute_online(&jobs, &ids, SimConfig { policy, switch_cost: delta });
        out.trace.check().unwrap();
        // Completed jobs obey Definition 2.1 (and the budget, when set).
        let k_check = match policy {
            Policy::EdfBudget(k) => Some(k),
            Policy::NonPreemptive => Some(0),
            Policy::Edf => None,
        };
        out.schedule.verify(&jobs, k_check).unwrap();
        // Completed + dropped = input.
        prop_assert_eq!(out.schedule.len() + out.dropped.len(), jobs.len());
        // Overhead count never exceeds number of dispatches.
        prop_assert!(out.trace.switches() <= out.trace.work.len() + 1);
    }

    #[test]
    fn overhead_paid_equals_switch_count_times_delta(
        jobs in arb_jobs(15),
        delta in 1i64..5,
    ) {
        let ids = all_ids(&jobs);
        let out = execute_online(&jobs, &ids, SimConfig { policy: Policy::Edf, switch_cost: delta });
        prop_assert_eq!(out.trace.overhead_time(), out.trace.switches() as i64 * delta);
    }

    #[test]
    fn more_budget_never_fewer_preemptions_bound(
        jobs in arb_jobs(15),
        delta in 0i64..4,
    ) {
        // Each completed job under EdfBudget(k) respects its own budget.
        let ids = all_ids(&jobs);
        for k in 0..4u32 {
            let out = execute_online(
                &jobs,
                &ids,
                SimConfig { policy: Policy::EdfBudget(k), switch_cost: delta },
            );
            for j in out.schedule.scheduled_ids() {
                prop_assert!(out.schedule.preemptions(j) <= k as usize);
            }
        }
    }

    #[test]
    fn zero_cost_budget_dominates_as_k_grows_in_work_time(
        jobs in arb_jobs(12),
    ) {
        // At δ = 0, useful work time is monotone-ish in k? Not guaranteed
        // point-wise (different abort decisions) — but EDF (k = ∞) always
        // completes a superset-or-equal *work time* vs what it wastes:
        // assert the weaker invariant that work time ≤ total demand.
        let ids = all_ids(&jobs);
        let demand: i64 = jobs.iter().map(|(_, j)| j.length).sum();
        for k in [0u32, 2] {
            let out = execute_online(
                &jobs,
                &ids,
                SimConfig { policy: Policy::EdfBudget(k), switch_cost: 0 },
            );
            prop_assert!(out.trace.work_time() <= demand);
        }
    }

    #[test]
    fn switch_point_analysis_matches_trace(jobs in arb_jobs(15)) {
        // For a completed-everything run at δ = 0, offline switch_points on
        // the produced schedule counts at most the online dispatch count.
        let ids = all_ids(&jobs);
        let out = execute_online(&jobs, &ids, SimConfig { policy: Policy::Edf, switch_cost: 0 });
        let offline = switch_points(&out.schedule).len();
        // Online dispatches = work intervals where the job changed; the
        // offline count can only be lower or equal (aborted jobs' wasted
        // work created extra online switches).
        let mut online = 0usize;
        let mut sorted = out.trace.work.clone();
        sorted.sort_unstable_by_key(|&(_, iv)| iv.start);
        let mut prev: Option<JobId> = None;
        for &(j, _) in &sorted {
            if prev != Some(j) {
                online += 1;
            }
            prev = Some(j);
        }
        prop_assert!(offline <= online, "offline {offline} > online {online}");
        let _ = max_robust_delta(&out.schedule);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replay_invariants(jobs in arb_jobs(15), delta in 0i64..5, k in 0u32..4) {
        let ids = all_ids(&jobs);
        let inf = pobp_sched::edf_schedule(&jobs, &ids, None);
        let plan = pobp_sched::reduce_to_k_bounded(&jobs, &inf.schedule, k)
            .unwrap()
            .schedule;
        let out = pobp_sim::replay_with_overhead(&jobs, &plan, delta);
        out.trace.check().unwrap();
        // Completed jobs stay Definition 2.1 feasible (k-bounded too: the
        // replay only shifts segments right and never splits them further).
        out.schedule.verify(&jobs, Some(k)).unwrap();
        // Completed + dropped = the plan's jobs.
        prop_assert_eq!(out.schedule.len() + out.dropped.len(), plan.len());
        // δ = 0 replay is the identity.
        if delta == 0 {
            prop_assert_eq!(&out.schedule, &plan);
            prop_assert!(out.dropped.is_empty());
        }
        // Value can only go down with cost.
        prop_assert!(out.value(&jobs) <= plan.value(&jobs) + 1e-9);
    }

    #[test]
    fn choose_k_returns_best_of_sweep(jobs in arb_jobs(10), delta in 0i64..6) {
        let ids = all_ids(&jobs);
        let inf = pobp_sched::edf_schedule(&jobs, &ids, None);
        let plan = pobp_sched::ReductionPlan::from_edf(&jobs, &inf.schedule);
        let table = pobp_sim::choose_k(&jobs, &plan, delta, 3);
        let choice = table.chosen();
        prop_assert_eq!(table.rows.len(), 4);
        // Every row is the laminarizing reduction at its k, replayed, and
        // the choice is at least as good as every sweep member.
        for k in 0..=3u32 {
            let plan = pobp_sched::reduce_to_k_bounded(&jobs, &inf.schedule, k)
                .unwrap()
                .schedule;
            let v = pobp_sim::replay_with_overhead(&jobs, &plan, delta).value(&jobs);
            let row = &table.rows[k as usize];
            prop_assert_eq!(row.k, k);
            prop_assert_eq!(&row.plan, &plan);
            prop_assert_eq!(row.replayed_value, v);
            prop_assert!(choice.replayed_value >= v - 1e-9, "beaten by k={k}");
        }
        prop_assert!(choice.replayed_value <= choice.planned_value + 1e-9);
    }
}
