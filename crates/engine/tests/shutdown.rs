//! The two hooks a long-lived owner of many engines uses (`docs/engine.md`,
//! Lifecycle and embedding): `Engine::cancel_all`, which is how the
//! `pobp serve` daemon stops a running job, and `Engine::with_shared_cache`,
//! which gives its per-job engines one reference cache.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pobp_engine::{Algo, Engine, EngineConfig, GridSpec, ResultCache};

fn slow_batch(n: usize, cells: usize) -> Vec<pobp_engine::SolveTask> {
    // Enough distinct (seed, k) reduction cells that a single worker is
    // busy for a while; no two tasks share a cache key.
    GridSpec::new(vec![n], (0..4).collect(), (0..cells as u64 / 4).collect(), Algo::Reduction)
        .tasks()
}

#[test]
fn cancel_all_stops_a_running_batch_at_the_next_boundary() {
    let engine = Arc::new(Engine::new(EngineConfig {
        threads: 1,
        use_cache: false,
        ..EngineConfig::default()
    }));
    // Built before the batch starts, so the sleep below runs while the
    // batch does. At n = 2000 each cell takes milliseconds even in a
    // release build, so the uncancelled batch would run for seconds and the
    // cancel always lands mid-batch.
    let tasks = slow_batch(2000, 400);
    let worker = {
        let engine = engine.clone();
        std::thread::spawn(move || engine.run_batch(&tasks))
    };
    std::thread::sleep(Duration::from_millis(30));
    let begun = Instant::now();
    engine.cancel_all();
    let batch = worker.join().unwrap();
    let waited = begun.elapsed();
    // The batch is accounted for in full: whatever ran before the cancel is
    // Done, everything after the boundary is Cancelled, nothing is lost.
    assert_eq!(batch.reports.len(), 400);
    let s = batch.stats;
    assert_eq!(s.run + s.cancelled, s.tasks, "unexpected taxonomy: {s:?}");
    assert!(s.cancelled > 0, "cancel_all should cut the 400-cell batch short: {s:?}");
    // The batch returns as soon as its in-flight task notices the token,
    // not after the whole batch would have run.
    assert!(waited < Duration::from_secs(30), "the cancelled batch took {waited:?}");
}

#[test]
fn shared_cache_spans_engines() {
    // Two engines over one cache: the second reuses every reference the
    // first computed — the serve daemon's per-job-engine pattern.
    let cache = Arc::new(ResultCache::new());
    let cfg = || EngineConfig { threads: 1, ..EngineConfig::default() };
    let a = Engine::with_shared_cache(cfg(), Arc::clone(&cache));
    let tasks = slow_batch(40, 8);
    let first = a.run_batch(&tasks);
    assert_eq!(first.stats.run, 8);
    let b = Engine::with_shared_cache(cfg(), cache);
    let second = b.run_batch(&tasks);
    assert_eq!(second.stats.run, 8);
    assert_eq!(second.stats.ref_cache_hits, 8, "shared cache should serve every reference");
    for (x, y) in first.reports.iter().zip(&second.reports) {
        assert_eq!(x.result.output(), y.result.output());
    }
}
