//! Integration tests for the engine's robustness features: panic
//! isolation, retry accounting, deadlines, cancellation, caching, and the
//! terminal-kind partition invariant.

use std::time::Duration;

use pobp_core::JobId;
use pobp_engine::{
    instance_hash, run_batch, Algo, CertStage, DegradeCause, Engine, EngineConfig, GridSpec,
    RefSolution, SolveTask, TaskResult,
};
use pobp_instances::RandomWorkload;

/// One worker thread and no retry: the fully sequential reference setup.
fn sequential() -> EngineConfig {
    EngineConfig { threads: 1, max_retries: 0, ..EngineConfig::default() }
}

fn grid_tasks() -> Vec<SolveTask> {
    GridSpec::new(vec![6, 10], vec![0, 1, 2], vec![0, 1], Algo::Reduction).tasks()
}

#[test]
fn batch_solves_a_grid_in_input_order() {
    let tasks = grid_tasks();
    let batch = run_batch(&tasks, EngineConfig { threads: 4, ..EngineConfig::default() });
    assert_eq!(batch.reports.len(), tasks.len());
    for (i, r) in batch.reports.iter().enumerate() {
        assert_eq!(r.index, i);
        assert_eq!(r.label, tasks[i].label);
        let TaskResult::Done(out) = &r.result else {
            panic!("task {i} did not complete: {:?}", r.result);
        };
        assert!(out.alg_value <= out.ref_value + 1e-9, "k-bounded beats its own reference");
    }
    let s = batch.stats;
    assert_eq!(
        s.run + s.degraded + s.cert_failed + s.panicked + s.timed_out + s.cancelled,
        s.tasks
    );
    assert_eq!(s.tasks, tasks.len());
}

#[test]
fn panicking_task_is_isolated_not_fatal() {
    let mut tasks = grid_tasks();
    let mut bad = SolveTask::new(tasks[0].instance.clone(), 1, Algo::PanicForTest);
    bad.label = "boom".into();
    tasks.insert(1, bad);
    let batch = run_batch(&tasks, EngineConfig { threads: 4, ..EngineConfig::default() });
    assert_eq!(batch.reports.len(), tasks.len());
    match &batch.reports[1].result {
        TaskResult::Panicked { message } => {
            assert!(message.contains("injected panic"), "got: {message}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // Every other task still completed.
    for (i, r) in batch.reports.iter().enumerate() {
        if i != 1 {
            assert!(matches!(r.result, TaskResult::Done(_)), "task {i}: {:?}", r.result);
        }
    }
    assert_eq!(batch.stats.panicked, 1);
    assert_eq!(batch.stats.run, tasks.len() - 1);
}

#[test]
fn retry_accounting_is_bounded() {
    let task = SolveTask::new(grid_tasks()[0].instance.clone(), 1, Algo::PanicForTest);
    let cfg = EngineConfig {
        threads: 1,
        max_retries: 2,
        backoff: Duration::from_millis(1),
        ..EngineConfig::default()
    };
    let batch = run_batch(&[task], cfg);
    let r = &batch.reports[0];
    assert_eq!(r.attempts, 3, "1 attempt + 2 retries");
    assert!(matches!(r.result, TaskResult::Panicked { .. }));
    assert_eq!(batch.stats.retried, 2);
    assert_eq!(batch.stats.panicked, 1);
}

/// A panicking task's backoff is a not-before requeue, not a sleep that
/// holds the worker: one worker with a contiguous run of flaky tasks keeps
/// draining the batch while their retries wait, so the 16 backoffs overlap
/// instead of adding up to 16 × 100 ms.
#[test]
fn retry_backoff_requeues_instead_of_holding_the_worker() {
    const FLAKY: usize = 16;
    const BACKOFF: Duration = Duration::from_millis(100);
    let mut tasks: Vec<SolveTask> = (0..64)
        .map(|seed| SolveTask::new(RandomWorkload::standard(4).generate(seed), 0, Algo::K0))
        .collect();
    let flaky: Vec<SolveTask> = (0..FLAKY)
        .map(|i| SolveTask::new(tasks[i].instance.clone(), 0, Algo::PanicForTest))
        .collect();
    tasks.splice(8..8, flaky);
    let cfg = EngineConfig {
        threads: 1,
        max_retries: 1,
        backoff: BACKOFF,
        use_cache: false,
        ..EngineConfig::default()
    };
    let t0 = std::time::Instant::now();
    let batch = run_batch(&tasks, cfg);
    let elapsed = t0.elapsed();
    for (i, r) in batch.reports.iter().enumerate() {
        if (8..8 + FLAKY).contains(&i) {
            assert!(matches!(r.result, TaskResult::Panicked { .. }), "task {i}: {:?}", r.result);
            assert_eq!(r.attempts, 2, "task {i}: 1 attempt + 1 retry");
        } else {
            assert!(matches!(r.result, TaskResult::Done(_)), "task {i}: {:?}", r.result);
        }
    }
    assert!(
        elapsed < BACKOFF * FLAKY as u32 / 2,
        "{FLAKY} backoffs of {BACKOFF:?} took {elapsed:?}: the worker slept them out"
    );
}

#[test]
fn zero_deadline_times_every_task_out() {
    let tasks = grid_tasks();
    let cfg = EngineConfig {
        threads: 2,
        deadline: Some(Duration::ZERO),
        ..EngineConfig::default()
    };
    let batch = run_batch(&tasks, cfg);
    for r in &batch.reports {
        assert_eq!(r.result, TaskResult::TimedOut, "task {}", r.index);
    }
    assert_eq!(batch.stats.timed_out, tasks.len());
}

#[test]
fn cancelled_engine_reports_cancelled() {
    let engine = Engine::new(sequential());
    engine.cancel_all();
    let batch = engine.run_batch(&grid_tasks());
    for r in &batch.reports {
        assert_eq!(r.result, TaskResult::Cancelled);
    }
    assert_eq!(batch.stats.cancelled, batch.stats.tasks);
}

#[test]
fn duplicate_tasks_get_identical_reports() {
    // Every copy makes its own attempt; only the reference is shared.
    let base = grid_tasks();
    let tasks = vec![base[0].clone(), base[0].clone(), base[0].clone()];
    let batch = run_batch(&tasks, sequential());
    assert_eq!(batch.stats.run, 3);
    assert_eq!(batch.stats.ref_cache_hits, 2);
    let TaskResult::Done(first) = &batch.reports[0].result else { panic!() };
    for r in &batch.reports {
        let TaskResult::Done(out) = &r.result else { panic!() };
        assert_eq!(out, first);
        assert_eq!(r.attempts, 1, "task {}", r.index);
    }
}

#[test]
fn reference_layer_is_shared_across_k() {
    // One instance, four budgets: the unbounded reference is computed once.
    let grid = GridSpec::new(vec![12], vec![1, 2, 4, 8], vec![7], Algo::Reduction);
    let batch = run_batch(&grid.tasks(), sequential());
    assert_eq!(batch.stats.run, 4);
    assert_eq!(batch.stats.ref_cache_hits, 3);
    // All four tasks report the same reference value.
    let refs: Vec<f64> = batch
        .reports
        .iter()
        .map(|r| match &r.result {
            TaskResult::Done(out) => out.ref_value,
            other => panic!("{other:?}"),
        })
        .collect();
    assert!(refs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn cache_off_recomputes_everything() {
    let base = grid_tasks();
    let tasks = vec![base[0].clone(), base[0].clone()];
    let cfg = EngineConfig { use_cache: false, ..sequential() };
    let batch = run_batch(&tasks, cfg);
    assert_eq!(batch.stats.run, 2);
    assert_eq!(batch.stats.ref_cache_hits, 0);
}

#[test]
fn exact_reference_reports_opt_inf() {
    // n is small enough for the exact oracle: ref_value must dominate
    // every algorithm's value, and Done outputs expose the price.
    let grid = GridSpec {
        ns: vec![8],
        ks: vec![1],
        seeds: vec![3],
        algo: Algo::Combined,
        machines: 1,
        exact_ref: true,
    };
    let batch = run_batch(&grid.tasks(), sequential());
    let TaskResult::Done(out) = &batch.reports[0].result else { panic!() };
    assert!(out.ref_value >= out.alg_value - 1e-9);
    assert!(out.price().unwrap() >= 1.0 - 1e-9);
    assert!(out.branch_values.is_some(), "combined exposes branch values");
}

#[test]
fn multi_machine_tasks_verify_and_dominate_single() {
    let instance = grid_tasks()[0].instance.clone();
    let mk = |machines: usize| SolveTask {
        machines,
        ..SolveTask::new(instance.clone(), 2, Algo::LsaCs)
    };
    let batch = run_batch(&[mk(1), mk(4)], sequential());
    let values: Vec<f64> = batch
        .reports
        .iter()
        .map(|r| match &r.result {
            TaskResult::Done(out) => out.alg_value,
            other => panic!("{other:?}"),
        })
        .collect();
    assert!(values[1] >= values[0] - 1e-9, "more machines never lose value");
}

#[test]
fn degradation_rescues_deadline_overruns_with_the_polynomial_fallback() {
    let tasks = grid_tasks();
    let cfg = EngineConfig {
        threads: 2,
        deadline: Some(Duration::ZERO),
        degrade: true,
        ..EngineConfig::default()
    };
    let batch = run_batch(&tasks, cfg);
    for (r, t) in batch.reports.iter().zip(&tasks) {
        let TaskResult::Degraded { fallback, cause, output } = &r.result else {
            panic!("task {} not degraded: {:?}", r.index, r.result);
        };
        assert_eq!(*cause, DegradeCause::DeadlineExceeded);
        let expected = if t.k == 0 { Algo::K0 } else { Algo::LsaCs };
        assert_eq!(*fallback, expected, "task {}", r.index);
        // The fallback output passed certification like any Done result.
        assert!(output.alg_value.is_finite());
        assert!(output.scheduled <= t.instance.len());
        assert_eq!(r.result.output().unwrap(), output);
    }
    assert_eq!(batch.stats.degraded, tasks.len());
    assert_eq!(batch.stats.timed_out, 0);
}

#[test]
fn degradation_skips_the_test_only_panic_algo() {
    // PanicForTest has no meaningful fallback; the original failure stands
    // even with degradation armed.
    let task = SolveTask::new(grid_tasks()[0].instance.clone(), 1, Algo::PanicForTest);
    let cfg = EngineConfig { degrade: true, ..sequential() };
    let batch = run_batch(&[task], cfg);
    assert!(matches!(batch.reports[0].result, TaskResult::Panicked { .. }));
    assert_eq!(batch.stats.degraded, 0);
}

#[test]
fn tampered_cache_entry_fails_certification_instead_of_leaking() {
    // The trust boundary in action without a fault plan: poison a k row's
    // shared reference entry by hand (`2v + 1`, as the corrupt-ref site
    // does) and check the engine refuses to emit a row built on it. A
    // failed reference check is never remembered, so every task of the
    // row fails on its own, on one worker or two.
    let base = grid_tasks()[0].clone();
    let row: Vec<SolveTask> =
        [1, 2, 4].into_iter().map(|k| SolveTask { k, ..base.clone() }).collect();
    let ids: Vec<JobId> = base.instance.ids().collect();
    let schedule = pobp_sched::greedy_unbounded(&base.instance, &ids).schedule;
    let value = schedule.value(&base.instance) * 2.0 + 1.0;
    for threads in [1, 2] {
        let engine = Engine::new(EngineConfig { threads, ..sequential() });
        engine.cache().put_ref(
            instance_hash(&base.instance),
            base.exact_ref,
            RefSolution { schedule: schedule.clone(), value },
        );

        let batch = engine.run_batch(&row);
        for report in &batch.reports {
            let TaskResult::CertFailed { stage, reason } = &report.result else {
                panic!("poisoned reference leaked at {threads} threads: {report:?}");
            };
            assert_eq!(*stage, CertStage::Reference);
            assert!(reason.contains("reference value"), "got: {reason}");
        }
        assert_eq!(batch.stats.cert_failed, 3);
        assert_eq!(batch.stats.run, 0);
    }
}
