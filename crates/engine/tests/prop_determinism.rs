//! The determinism contract, property-tested: a sweep over a random grid
//! produces **byte-identical ordered results** with `threads = 1` and
//! `threads = 4`, including when one task is forced to panic mid-batch.
//!
//! "Byte-identical" is taken literally: the full `Debug` rendering of the
//! report vector (indices, labels, attempts, values, panic messages) is
//! compared as a string. Cache state is also exercised on both sides —
//! caching must never change what a task returns.

use proptest::prelude::*;

use pobp_engine::{run_batch, Algo, EngineConfig, GridSpec, SolveTask, TaskResult};

fn arb_algo() -> impl Strategy<Value = Algo> {
    (0u8..4).prop_map(|i| match i {
        0 => Algo::Reduction,
        1 => Algo::Combined,
        2 => Algo::LsaCs,
        _ => Algo::K0,
    })
}

fn render(reports: &[pobp_engine::TaskReport]) -> String {
    format!("{reports:#?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn threads_1_and_4_are_byte_identical(
        ns in proptest::collection::vec(4usize..14, 1..=2),
        ks in proptest::collection::vec(0u32..4, 1..=3),
        seeds in proptest::collection::vec(0u64..100, 1..=3),
        algo in arb_algo(),
        panic_at in 0usize..64,
        use_cache in AnyBool,
    ) {
        let grid = GridSpec::new(ns, ks, seeds, algo);
        let mut tasks = grid.tasks();
        // Force one panic somewhere in the batch: isolation must not
        // disturb the surrounding results on either thread count.
        let at = panic_at % tasks.len();
        let mut bad = SolveTask::new(tasks[at].instance.clone(), 1, Algo::PanicForTest);
        bad.label = format!("panic@{at}");
        tasks.insert(at, bad);

        let run = |threads: usize| {
            let cfg = EngineConfig {
                threads,
                max_retries: 1,
                backoff: std::time::Duration::from_millis(1),
                use_cache,
                ..EngineConfig::default()
            };
            run_batch(&tasks, cfg)
        };
        let seq = run(1);
        let par = run(4);

        prop_assert_eq!(render(&seq.reports), render(&par.reports));
        // The injected panic surfaced as a record, not an abort.
        prop_assert!(matches!(
            seq.reports[at].result,
            TaskResult::Panicked { .. }
        ));
        // Terminal kinds partition the batch on both sides.
        for s in [seq.stats, par.stats] {
            prop_assert_eq!(
                s.run + s.degraded + s.cert_failed + s.panicked + s.timed_out
                    + s.cancelled,
                s.tasks
            );
            prop_assert_eq!(s.panicked, 1);
        }
    }
}
