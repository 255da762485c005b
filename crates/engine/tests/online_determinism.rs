//! The online algorithms inherit the engine's determinism contract: a batch
//! of online-arrival tasks over the instance zoo produces byte-identical
//! ordered reports for `threads = 1` and `threads = 4` (the logical-trace
//! side is in `trace_logical.rs`).
//!
//! Caveat baked into these tests: zoo cells are compared with the result
//! cache **off**. The fig2/fig4 families ignore their seed, so a sweep holds
//! duplicate cache keys and *which* duplicate is served from cache is
//! scheduling-dependent — `attempts` (part of the Debug rendering) is
//! cache-state metadata, not certified output. The `pobp online` CLI handles
//! this by never emitting `attempts`; here we simply keep every task fresh.

use proptest::prelude::*;

use pobp_engine::{run_batch, Algo, EngineConfig, SolveTask, TaskResult};
use pobp_instances::{zoo_instance, ZooFamily, ZOO_FAMILIES};

fn online_zoo_tasks(ns: &[usize], ks: &[u32], seeds: &[u64]) -> Vec<SolveTask> {
    let mut tasks = Vec::new();
    for &family in &ZOO_FAMILIES {
        for &n in ns {
            for &seed in seeds {
                for &k in ks {
                    let instance = zoo_instance(family, n, k, seed);
                    for algo in [Algo::OnlineDjn, Algo::OnlineGreedy, Algo::OnlineEdf] {
                        let mut t = SolveTask::new(instance.clone(), k, algo);
                        t.label = format!("{family} n={n} k={k} seed={seed} {}", algo.name());
                        tasks.push(t);
                    }
                }
            }
        }
    }
    tasks
}

fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        max_retries: 1,
        backoff: std::time::Duration::from_millis(1),
        use_cache: false,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `--threads 1` and `--threads 4` agree byte-for-byte on the full
    /// Debug rendering of an online zoo sweep's reports.
    #[test]
    fn online_reports_are_thread_count_invariant(
        ns in proptest::collection::vec(4usize..10, 1..=2),
        ks in proptest::collection::vec(0u32..3, 1..=2),
        seed in 0u64..50,
    ) {
        let tasks = online_zoo_tasks(&ns, &ks, &[seed]);
        let seq = run_batch(&tasks, config(1));
        let par = run_batch(&tasks, config(4));
        prop_assert_eq!(format!("{:#?}", seq.reports), format!("{:#?}", par.reports));
        for report in &seq.reports {
            prop_assert!(matches!(report.result, TaskResult::Done(_)), "{} failed", report.label);
        }
    }
}

/// Every online task comes back certified: the executor's schedule passes
/// the engine's independent recheck (feasible, k-bounded, value matches).
#[test]
fn online_outputs_are_certified() {
    let tasks = online_zoo_tasks(&[6, 9], &[0, 1, 2], &[0, 1]);
    let batch = run_batch(&tasks, config(2));
    assert_eq!(batch.stats.run, batch.stats.tasks);
    assert_eq!(batch.stats.cert_failed, 0);
    for report in &batch.reports {
        let TaskResult::Done(out) = &report.result else {
            panic!("{} did not finish: {:?}", report.label, report.result)
        };
        assert!(out.alg_value >= 0.0);
    }
}

/// Online families parse through the shared `Algo` registry.
#[test]
fn online_algo_names_round_trip() {
    for algo in [Algo::OnlineDjn, Algo::OnlineGreedy, Algo::OnlineEdf] {
        assert!(algo.is_online());
        assert_eq!(Algo::parse(algo.name()), Some(algo));
    }
    assert!(!Algo::Reduction.is_online());
    let _ = ZooFamily::parse("fig2").expect("zoo family registry");
}
