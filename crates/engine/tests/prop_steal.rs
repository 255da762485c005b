//! Steal-heavy schedules, property-tested: with skewed task sizes (a few
//! expensive instances pinning one worker while tiny ones drain), forced
//! panics, and seeded fault injection, the
//! work-stealing pool still produces **byte-identical reports** at
//! `threads ∈ {1, 2, 4}` (the logical-trace side of the same skew is in
//! `trace_logical.rs`). Steal telemetry is an invariant check only: it lives in
//! `EngineStats`, outside the determinism contract, and is never compared
//! across thread counts.

use proptest::prelude::*;

use pobp_engine::{run_batch, Algo, EngineConfig, GridSpec, SolveTask, TaskResult};

/// A grid whose cells differ wildly in cost: `big` large instances up
/// front (each pinning its worker for a while) followed by a tail of tiny
/// cells — the shape that forces idle workers onto the steal path.
fn skewed_tasks(big: usize, big_n: usize, small_seeds: u64) -> Vec<SolveTask> {
    let mut tasks = GridSpec::new(
        vec![big_n],
        vec![2],
        (0..big as u64).collect(),
        Algo::Combined,
    )
    .tasks();
    tasks.extend(GridSpec::new(vec![4, 5], vec![0, 1], (0..small_seeds).collect(), Algo::Reduction).tasks());
    tasks
}

fn cfg(threads: usize, use_cache: bool) -> EngineConfig {
    EngineConfig {
        threads,
        max_retries: 1,
        backoff: std::time::Duration::from_millis(1),
        use_cache,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reports are byte-identical at 1, 2, and 4 threads on a skewed batch
    /// with a forced panic (which retries, requeues, and may migrate to a
    /// different worker — the report must not care).
    #[test]
    fn skewed_schedules_are_byte_identical_across_thread_counts(
        big in 1usize..3,
        big_n in 40usize..80,
        small_seeds in 4u64..12,
        panic_at in 0usize..64,
        use_cache in AnyBool,
    ) {
        let mut tasks = skewed_tasks(big, big_n, small_seeds);
        let at = panic_at % tasks.len();
        let mut bad = SolveTask::new(tasks[at].instance.clone(), 1, Algo::PanicForTest);
        bad.label = format!("panic@{at}");
        tasks.insert(at, bad);

        let seq = run_batch(&tasks, cfg(1, use_cache));
        let two = run_batch(&tasks, cfg(2, use_cache));
        let par = run_batch(&tasks, cfg(4, use_cache));

        let want = format!("{:#?}", seq.reports);
        prop_assert_eq!(&want, &format!("{:#?}", two.reports));
        prop_assert_eq!(&want, &format!("{:#?}", par.reports));
        prop_assert!(matches!(seq.reports[at].result, TaskResult::Panicked { .. }));

        // Steal accounting is telemetry, not contract: only its invariants
        // hold. A single worker has nobody to rob.
        prop_assert_eq!(seq.stats.steal_attempts, 0);
        prop_assert_eq!(seq.stats.steal_hits, 0);
        for s in [seq.stats, two.stats, par.stats] {
            prop_assert!(s.steal_hits <= s.steal_attempts);
            prop_assert_eq!(
                s.run + s.degraded + s.cert_failed + s.panicked + s.timed_out
                    + s.cancelled,
                s.tasks
            );
        }
    }
}

mod chaos {
    use super::*;
    use pobp_engine::{Engine, FaultPlan, FaultSite};
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The same skew, plus a seeded fault plan hammering every site:
        /// injection decisions are pure hashes of `(seed, site, task key)`,
        /// so stolen or requeued units fault identically wherever they run.
        #[test]
        fn skewed_chaos_schedules_are_byte_identical(
            seed in 0u64..10_000,
            big in 1usize..3,
            small_seeds in 4u64..10,
            degrade in AnyBool,
        ) {
            let tasks = skewed_tasks(big, 48, small_seeds);
            let run = |threads: usize| {
                let plan = FaultPlan::new(seed)
                    .with_rate(FaultSite::Panic, 0.25)
                    .with_rate(FaultSite::Flaky, 0.25)
                    .with_rate(FaultSite::Delay, 0.25)
                    .with_rate(FaultSite::SpuriousCancel, 0.2)
                    .with_rate(FaultSite::ForcedDeadline, 0.2)
                    .with_rate(FaultSite::CorruptRef, 0.2);
                let mut cfg = cfg(threads, true);
                cfg.degrade = degrade;
                Engine::new(EngineConfig { chaos: Some(Arc::new(plan)), ..cfg }).run_batch(&tasks)
            };
            let seq = run(1);
            let two = run(2);
            let par = run(4);
            let want = format!("{:#?}", seq.reports);
            prop_assert_eq!(&want, &format!("{:#?}", two.reports));
            prop_assert_eq!(&want, &format!("{:#?}", par.reports));
        }
    }
}
