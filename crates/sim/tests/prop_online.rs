//! Property tests for the online-arrival executor (`pobp_sim::online`).
//!
//! The load-bearing invariants behind `docs/online.md`:
//!
//! * whatever an online algorithm completes is a Definition-2.1-feasible
//!   `k`-bounded schedule (irrevocability never smuggles in extra
//!   preemptions);
//! * no online algorithm ever beats the exact offline `OPT_k` oracle on
//!   instances small enough to solve exactly — the competitive ratio is
//!   always ≥ 1, which is what makes the `e13` tables meaningful;
//! * the executor is a pure function of `(jobs, subset, config)`.

use pobp_core::{Job, JobId, JobSet};
use pobp_sim::{run_online, OnlineAlg, OnlineConfig, ONLINE_ALGS};
use proptest::prelude::*;

/// Small instances that always fit the exact `opt_k_bounded_small` oracle
/// (`n ≤ 6`, short horizon, unit-ish lengths).
fn arb_tiny_jobs() -> impl Strategy<Value = JobSet> {
    proptest::collection::vec((0i64..12, 1i64..5, 0i64..8, 1u32..10), 1..=5).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(r, p, slack, v)| Job::new(r, r + p + slack, p, v as f64))
            .collect()
    })
}

/// Larger instances for the structural invariants (no exact oracle).
fn arb_jobs(max_n: usize) -> impl Strategy<Value = JobSet> {
    proptest::collection::vec((0i64..60, 1i64..12, 0i64..25, 1u32..12), 1..=max_n).prop_map(
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn completed_schedules_are_feasible_and_k_bounded(
        jobs in arb_jobs(18),
        k in 0u32..4,
        which in 0usize..3,
    ) {
        let alg = ONLINE_ALGS[which];
        let ids = all_ids(&jobs);
        let out = run_online(&jobs, &ids, OnlineConfig { alg, k });
        // The online contract: completed work is a real k-bounded schedule.
        out.schedule.verify(&jobs, Some(k)).unwrap();
        // Every job is accounted for exactly once.
        let completed = out.trace.completed();
        prop_assert_eq!(completed.len() + out.dropped.len(), jobs.len());
        // The reported value is exactly the completed jobs' value.
        let direct: f64 = completed.iter().map(|&j| jobs.get(j).unwrap().value).sum();
        prop_assert!((out.value(&jobs) - direct).abs() < 1e-9);
        prop_assert!((out.schedule.value(&jobs) - direct).abs() < 1e-9);
    }

    #[test]
    fn online_never_beats_the_exact_oracle(
        jobs in arb_tiny_jobs(),
        k in 0u32..3,
    ) {
        // Ratio sanity for e13: OPT_k dominates every online algorithm, so
        // the empirical competitive ratio oracle/ALG is ≥ 1 whenever the
        // oracle is exact.
        let ids = all_ids(&jobs);
        prop_assume!(pobp_sched::opt_k_bounded_fits(&jobs, &ids));
        let opt = pobp_sched::opt_k_bounded_small(&jobs, &ids, k);
        for &alg in &ONLINE_ALGS {
            let out = run_online(&jobs, &ids, OnlineConfig { alg, k });
            prop_assert!(
                out.value(&jobs) <= opt + 1e-9,
                "{alg} value {} beats exact OPT_{k} = {opt}",
                out.value(&jobs),
            );
        }
    }

    #[test]
    fn executor_is_deterministic(
        jobs in arb_jobs(15),
        k in 0u32..4,
        which in 0usize..3,
    ) {
        let alg = ONLINE_ALGS[which];
        let ids = all_ids(&jobs);
        let a = run_online(&jobs, &ids, OnlineConfig { alg, k });
        let b = run_online(&jobs, &ids, OnlineConfig { alg, k });
        prop_assert_eq!(&a.schedule, &b.schedule);
        prop_assert_eq!(a.trace.completed(), b.trace.completed());
        prop_assert_eq!(&a.dropped, &b.dropped);
        prop_assert_eq!(a.trace.preemptions(), b.trace.preemptions());
    }

    #[test]
    fn greedy_never_preempts(jobs in arb_jobs(15), k in 0u32..4) {
        let ids = all_ids(&jobs);
        let out = run_online(&jobs, &ids, OnlineConfig { alg: OnlineAlg::Greedy, k });
        prop_assert_eq!(out.trace.preemptions(), 0);
        for j in out.schedule.scheduled_ids() {
            prop_assert_eq!(out.schedule.preemptions(j), 0);
        }
    }
}
