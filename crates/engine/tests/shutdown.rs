//! `Engine::shutdown` — the drain-then-join and cancel-then-join paths the
//! `pobp serve` daemon uses to stop cleanly (`docs/engine.md`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use pobp_engine::{Algo, Engine, EngineConfig, GridSpec, TaskResult};

fn slow_batch(cells: usize) -> Vec<pobp_engine::SolveTask> {
    // Enough distinct (seed, k) reduction cells that a single worker is
    // busy for a while; no two tasks share a cache key.
    GridSpec::new(vec![40], (0..4).collect(), (0..cells as u64 / 4).collect(), Algo::Reduction)
        .tasks()
}

#[test]
fn drain_shutdown_lets_inflight_batches_finish() {
    let engine = Arc::new(Engine::new(EngineConfig {
        threads: 1,
        use_cache: false,
        ..EngineConfig::default()
    }));
    let worker = {
        let engine = engine.clone();
        std::thread::spawn(move || engine.run_batch(&slow_batch(40)))
    };
    // Let the batch get going, then drain: every task must still complete
    // with a real result — drain never cancels.
    std::thread::sleep(Duration::from_millis(10));
    engine.shutdown(true);
    let batch = worker.join().unwrap();
    assert!(engine.is_closed());
    assert_eq!(batch.reports.len(), 40);
    for r in &batch.reports {
        assert!(matches!(r.result, TaskResult::Done(_)), "drained task ended {:?}", r.result);
    }
    assert_eq!(batch.stats.run, 40);
    assert_eq!(batch.stats.cancelled, 0);
}

#[test]
fn cancel_shutdown_stops_the_batch_at_the_next_boundary() {
    let engine = Arc::new(Engine::new(EngineConfig {
        threads: 1,
        use_cache: false,
        ..EngineConfig::default()
    }));
    let worker = {
        let engine = engine.clone();
        std::thread::spawn(move || engine.run_batch(&slow_batch(400)))
    };
    std::thread::sleep(Duration::from_millis(30));
    let begun = Instant::now();
    engine.shutdown(false);
    let waited = begun.elapsed();
    let batch = worker.join().unwrap();
    // The batch is accounted for in full: whatever ran before the cancel is
    // Done, everything after the boundary is Cancelled, nothing is lost.
    assert_eq!(batch.reports.len(), 400);
    let s = batch.stats;
    assert_eq!(s.run + s.cancelled, s.tasks, "unexpected taxonomy: {s:?}");
    assert!(s.cancelled > 0, "cancel-shutdown should cut the 400-cell batch short: {s:?}");
    // Cancel-then-join returns as soon as in-flight tasks notice the token,
    // not after the whole batch would have run.
    assert!(waited < Duration::from_secs(30), "shutdown took {waited:?}");
}

#[test]
fn closed_engine_refuses_new_batches_as_cancelled() {
    let engine = Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() });
    engine.shutdown(true); // idle engine: returns immediately
    engine.shutdown(false); // idempotent, either mode
    let batch = engine.run_batch(&slow_batch(8));
    assert_eq!(batch.reports.len(), 8);
    for r in &batch.reports {
        assert_eq!(r.result, TaskResult::Cancelled);
        assert_eq!(r.attempts, 0);
    }
    assert_eq!(batch.stats.cancelled, 8);
}

#[test]
fn shared_cache_spans_engines() {
    // Two engines over one cache: the second reuses every reference the
    // first computed — the serve daemon's per-job-engine pattern.
    let a = Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() });
    let tasks = slow_batch(8);
    let first = a.run_batch(&tasks);
    assert_eq!(first.stats.run, 8);
    let b = Engine::with_shared_cache(
        EngineConfig { threads: 1, ..EngineConfig::default() },
        a.cache_handle(),
    );
    let second = b.run_batch(&tasks);
    assert_eq!(second.stats.run, 8);
    assert_eq!(second.stats.ref_cache_hits, 8, "shared cache should serve every reference");
    for (x, y) in first.reports.iter().zip(&second.reports) {
        assert_eq!(x.result.output(), y.result.output());
    }
}
