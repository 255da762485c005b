//! Cross-crate property tests: the full schedule → forest → k-BAS →
//! schedule pipeline on random workloads, plus EDF/laminarity invariants.

use pobp::prelude::*;
use proptest::prelude::*;

fn arb_jobs(max_n: usize) -> impl Strategy<Value = JobSet> {
    proptest::collection::vec(
        (0i64..60, 1i64..12, 1i64..30, 1u32..20),
        1..=max_n,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(r, p, slack, v)| Job::new(r, r + p + slack, p, v as f64))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edf_output_is_feasible_and_laminar(jobs in arb_jobs(14)) {
        let ids: Vec<JobId> = jobs.ids().collect();
        let out = edf_schedule(&jobs, &ids, None);
        out.schedule.verify(&jobs, None).unwrap();
        prop_assert!(is_laminar(&out.schedule));
        // Scheduled + missed partition the input.
        prop_assert_eq!(out.schedule.len() + out.missed.len(), jobs.len());
    }

    #[test]
    fn edf_never_idles_while_work_pending(jobs in arb_jobs(10)) {
        // Work-conservation: within the horizon, whenever some scheduled
        // job is released, unfinished (its remaining segments lie ahead)
        // the machine is busy. We check a weaker, easily-stated form:
        // the total busy time equals the sum of scheduled lengths.
        let ids: Vec<JobId> = jobs.ids().collect();
        let out = edf_schedule(&jobs, &ids, None);
        let busy = out.schedule.busy(0);
        let expect: Time = out
            .schedule
            .scheduled_ids()
            .map(|j| jobs.job(j).length)
            .sum();
        prop_assert_eq!(busy.total_len(), expect);
    }

    #[test]
    fn laminarize_preserves_value_and_busy_time(jobs in arb_jobs(12)) {
        let ids: Vec<JobId> = jobs.ids().collect();
        let out = edf_schedule(&jobs, &ids, None);
        let lam = laminarize(&jobs, &out.schedule).unwrap();
        lam.verify(&jobs, None).unwrap();
        prop_assert!(is_laminar(&lam));
        prop_assert_eq!(lam.value(&jobs), out.schedule.value(&jobs));
        prop_assert_eq!(lam.busy(0), out.schedule.busy(0));
        prop_assert_eq!(lam.len(), out.schedule.len());
    }

    #[test]
    fn full_reduction_pipeline_invariants(jobs in arb_jobs(14), k in 0u32..4) {
        let ids: Vec<JobId> = jobs.ids().collect();
        let inf = edf_schedule(&jobs, &ids, None);
        let red = reduce_to_k_bounded(&jobs, &inf.schedule, k).unwrap();
        // (1) Feasible and k-bounded.
        red.schedule.verify(&jobs, Some(k)).unwrap();
        // (2) Value identity with the k-BAS.
        prop_assert!((red.schedule.value(&jobs) - red.kbas.value).abs() < 1e-9);
        // (3) The k-BAS is valid on the schedule forest.
        let plan = ReductionPlan::new(&jobs, &inf.schedule).unwrap();
        prop_assert!(is_kbas(&plan.forest.forest, &red.kbas.keep, k));
        // (4) Theorem 4.2 loss bound w.r.t. the input schedule value —
        // the theorem is stated for k ≥ 1 (log_{k+1} is undefined at k=0).
        if k >= 1 {
            let bound = loss_bound(jobs.len(), k);
            prop_assert!(
                red.schedule.value(&jobs) * bound >= inf.schedule.value(&jobs) - 1e-6
            );
        } else if !inf.schedule.is_empty() {
            // k = 0: TM still guarantees at least the best single node.
            let best_single = inf
                .schedule
                .scheduled_ids()
                .map(|j| jobs.job(j).value)
                .fold(0.0f64, f64::max);
            prop_assert!(red.schedule.value(&jobs) >= best_single - 1e-9);
        }
        // (5) Scheduled jobs are a subset of the input schedule's jobs.
        for j in red.schedule.scheduled_ids() {
            prop_assert!(inf.schedule.segments(j).is_some());
        }
    }

    #[test]
    fn lsa_feasible_for_all_k(jobs in arb_jobs(16), k in 0u32..5) {
        let ids: Vec<JobId> = jobs.ids().collect();
        let out = lsa(&jobs, &ids, k);
        out.schedule.verify(&jobs, Some(k)).unwrap();
        prop_assert_eq!(out.accepted.len() + out.rejected.len(), jobs.len());
        // Accepted set value matches the schedule value.
        let direct: f64 = out.accepted.iter().map(|&j| jobs.job(j).value).sum();
        prop_assert_eq!(direct, out.value(&jobs));
    }

    #[test]
    fn lsa_cs_feasible_and_at_least_best_class(jobs in arb_jobs(16), k in 0u32..4) {
        let ids: Vec<JobId> = jobs.ids().collect();
        let cs = lsa_cs(&jobs, &ids, k);
        cs.schedule.verify(&jobs, Some(k)).unwrap();
        // CS ≥ every individual class's LSA value.
        for class in length_classes(&jobs, &ids, (k + 1).max(2)) {
            if class.is_empty() { continue; }
            let one = lsa(&jobs, &class, k);
            prop_assert!(cs.value(&jobs) >= one.value(&jobs) - 1e-9);
        }
    }

    #[test]
    fn combined_feasible_on_random_input(jobs in arb_jobs(12), k in 1u32..4) {
        let ids: Vec<JobId> = jobs.ids().collect();
        let out = combined_from_scratch(&jobs, &ids, k);
        out.chosen.verify(&jobs, Some(k)).unwrap();
        out.strict.verify(&jobs, Some(k)).unwrap();
        out.lax.verify(&jobs, Some(k)).unwrap();
    }

    #[test]
    fn multi_machine_never_duplicates(jobs in arb_jobs(16), m in 1usize..5, k in 0u32..3) {
        let ids: Vec<JobId> = jobs.ids().collect();
        let s = iterative_multi_machine(&jobs, &ids, m, |js, rem| {
            lsa_cs(js, rem, k).schedule
        });
        // verify() checks per-machine feasibility and that each job appears
        // once (it is keyed by job id).
        s.verify(&jobs, Some(k)).unwrap();
        for mach in s.machines() {
            prop_assert!(mach < m);
        }
    }

    #[test]
    fn schedule_forest_roundtrip_value(jobs in arb_jobs(12)) {
        // Keeping everything in the forest and reconstructing returns every
        // scheduled job, feasibly.
        let ids: Vec<JobId> = jobs.ids().collect();
        let out = edf_schedule(&jobs, &ids, None);
        let lam = laminarize(&jobs, &out.schedule).unwrap();
        let sf = schedule_forest(&jobs, &lam);
        prop_assert_eq!(sf.forest.len(), lam.len());
        let keep = KeepSet::from_mask(vec![true; sf.forest.len()]);
        let rec = reconstruct(&jobs, &lam, &sf, &keep);
        rec.verify(&jobs, None).unwrap();
        prop_assert_eq!(rec.value(&jobs), lam.value(&jobs));
    }

    #[test]
    fn greedy_unbounded_matches_exact_when_all_feasible(jobs in arb_jobs(10)) {
        let ids: Vec<JobId> = jobs.ids().collect();
        if edf_feasible(&jobs, &ids) {
            let g = greedy_unbounded(&jobs, &ids);
            prop_assert_eq!(g.schedule.len(), jobs.len());
            prop_assert_eq!(g.schedule.value(&jobs), jobs.total_value());
        }
    }
}
