//! Integration tests for the engine's robustness features: panic
//! isolation, retry accounting, deadlines, cancellation, caching, and the
//! terminal-kind partition invariant.

use std::time::Duration;

use pobp_engine::{
    instance_hash, run_batch, Algo, CertStage, DegradeCause, Engine, EngineConfig, GridSpec,
    SolveTask, TaskResult,
};

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
        s.run + s.cached + s.degraded + s.cert_failed + s.panicked + s.timed_out + s.cancelled,
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
    assert_eq!(batch.stats.run + batch.stats.cached, tasks.len() - 1);
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
fn duplicate_tasks_hit_the_result_cache() {
    let base = grid_tasks();
    let tasks = vec![base[0].clone(), base[0].clone(), base[0].clone()];
    let batch = run_batch(&tasks, sequential());
    assert_eq!(batch.stats.run, 1);
    assert_eq!(batch.stats.cached, 2);
    // Cached answers are identical to the computed one.
    let TaskResult::Done(first) = &batch.reports[0].result else { panic!() };
    for r in &batch.reports[1..] {
        let TaskResult::Done(out) = &r.result else { panic!() };
        assert_eq!(out, first);
        assert_eq!(r.attempts, 0, "cache hits make no attempt");
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
    assert_eq!(batch.stats.cached, 0);
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
    // The trust boundary in action without the chaos feature: poison a
    // result-cache entry by hand and check the engine refuses to serve it.
    let task = grid_tasks()[0].clone();
    let engine = Engine::new(sequential());
    let first = engine.run_batch(std::slice::from_ref(&task));
    let TaskResult::Done(honest) = &first.reports[0].result else { panic!() };

    let inst = instance_hash(&task.instance);
    let mut entry = engine
        .cache()
        .get_result(inst, task.k, task.machines, task.algo, task.exact_ref)
        .expect("first run populated the result layer");
    entry.output.alg_value = honest.alg_value * 2.0 + 1.0;
    engine
        .cache()
        .put_result(inst, task.k, task.machines, task.algo, task.exact_ref, entry);

    let second = engine.run_batch(std::slice::from_ref(&task));
    let TaskResult::CertFailed { stage, reason } = &second.reports[0].result else {
        panic!("poisoned hit leaked: {:?}", second.reports[0].result);
    };
    assert_eq!(*stage, CertStage::Value);
    assert!(reason.contains("value"), "got: {reason}");
    assert_eq!(second.stats.cert_failed, 1);
    assert_eq!(second.stats.cached, 0);
}
