//! The engine's row memo (the reduction prefix, the instance hash and the
//! reference check a `k` row shares), pinned by the `obs` counters.
//!
//! A test binary of its own: an engine batch registers the engine's event
//! stats in the process-global registry, and
//! `complexity_obs.rs::report_json_carries_schema_2_quantiles` reads the
//! first registered event.

use pobp::obs;
use pobp::prelude::*;

/// Seeded mixed-laxity workload (same family as EXPERIMENTS.md E4).
fn workload(n: usize, seed: u64) -> JobSet {
    RandomWorkload {
        n,
        horizon: (n as i64) * 6,
        length_range: (1, 10),
        laxity: LaxityModel::Uniform { max: 4.0 },
        values: ValueModel::Uniform { max: 20 },
    }
    .generate(seed)
}

/// The engine builds the reduction's `k`-independent prefix (the
/// reference's schedule forest) once per `k` row: a worker keeps the prefix
/// of the last reference it reduced and reuses it while the cache hands it
/// the same reference. Without the cache every task computes its own
/// reference, so every task rebuilds the prefix. A build is one span of the
/// `sched.reduction.time.forest` timer. The reference is an EDF output, its
/// own laminarization, so no batch runs a restricted EDF.
#[test]
fn engine_builds_the_reduction_prefix_once_per_k_row() {
    // Every batch below, measured or not, stays inside the window.
    let _window = obs::exclusive();
    let prefix_builds = |tasks: &[SolveTask], cfg: &EngineConfig| {
        obs::reset();
        let batch = run_batch(tasks, cfg.clone());
        let snap = obs::snapshot();
        assert_eq!(snap.counter("sched.edf.restricted_runs"), 0, "no batch laminarizes");
        let builds = snap.timers.get("sched.reduction.time.forest").map_or(0, |t| t.spans);
        (batch, builds)
    };
    let cached = EngineConfig { threads: 1, ..EngineConfig::default() };
    let uncached = EngineConfig { use_cache: false, ..cached.clone() };

    let jobs = workload(40, 21);
    let row: Vec<SolveTask> = [1, 2, 4, 8]
        .into_iter()
        .map(|k| SolveTask::new(jobs.clone(), k, Algo::Reduction))
        .collect();
    let (with_cache, runs) = prefix_builds(&row, &cached);
    assert_eq!(runs, 1, "one prefix for the k row");
    let (without_cache, runs) = prefix_builds(&row, &uncached);
    assert_eq!(runs, 4, "without the cache every task rebuilds the prefix");
    assert_eq!(with_cache.reports, without_cache.reports);

    // Interleaved instances: the prefix of A must not serve B, and A's
    // second task rebuilds the prefix B displaced.
    let other = workload(40, 22);
    let interleaved = vec![
        SolveTask::new(jobs.clone(), 1, Algo::Reduction),
        SolveTask::new(other, 1, Algo::Reduction),
        SolveTask::new(jobs, 2, Algo::Reduction),
    ];
    let (with_cache, runs) = prefix_builds(&interleaved, &cached);
    assert_eq!(runs, 3);
    let (without_cache, _) = prefix_builds(&interleaved, &uncached);
    assert_eq!(with_cache.reports, without_cache.reports);
    // Each task alone in a batch: no memo to reuse, whatever its policy.
    for (task, report) in interleaved.iter().zip(&with_cache.reports) {
        assert!(matches!(report.result, TaskResult::Done(_)), "{report:?}");
        let (alone, _) = prefix_builds(std::slice::from_ref(task), &uncached);
        assert_eq!(report.result, alone.reports[0].result, "k = {}", task.k);
    }
}

/// A worker hashes a `k` row's instance once (the cache key and the chaos
/// key) and certifies the row's shared reference once; interleaved
/// instances pay again each time the instance changes. Reports do not
/// move: they equal the uncached batch's, which shares no reference.
#[test]
fn engine_hashes_and_checks_a_k_row_once() {
    let _window = obs::exclusive();
    let counts = |tasks: &[SolveTask], cfg: &EngineConfig| {
        obs::reset();
        let batch = run_batch(tasks, cfg.clone());
        let snap = obs::snapshot();
        let counts =
            (snap.counter("engine.instance.hashed"), snap.counter("engine.cert.reference_checked"));
        (batch, counts)
    };
    let cached = EngineConfig { threads: 1, ..EngineConfig::default() };
    let uncached = EngineConfig { use_cache: false, ..cached.clone() };

    let jobs = workload(40, 21);
    let row: Vec<SolveTask> = [1, 2, 4, 8]
        .into_iter()
        .map(|k| SolveTask::new(jobs.clone(), k, Algo::Reduction))
        .collect();
    let (with_cache, hashed_checked) = counts(&row, &cached);
    assert_eq!(hashed_checked, (1, 1), "one hash and one reference check for the k row");
    let (without_cache, _) = counts(&row, &uncached);
    assert_eq!(with_cache.reports, without_cache.reports);

    let interleaved = vec![
        SolveTask::new(jobs.clone(), 1, Algo::Reduction),
        SolveTask::new(workload(40, 22), 1, Algo::Reduction),
        SolveTask::new(jobs, 2, Algo::Reduction),
    ];
    let (with_cache, hashed_checked) = counts(&interleaved, &cached);
    assert_eq!(hashed_checked, (3, 3), "each change of instance pays again");
    let (without_cache, _) = counts(&interleaved, &uncached);
    assert_eq!(with_cache.reports, without_cache.reports);
}
