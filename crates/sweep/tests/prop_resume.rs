//! The crash/resume invariant, property-tested: *kill a sweep anywhere,
//! resume it, and the merged bytes equal an uninterrupted run's* — for any
//! grid, chunking, thread count, and kill point.
//!
//! Two kill mechanisms:
//!
//! * byte-truncation of the active shard (this file, any build) — the
//!   literal on-disk shape a `kill -9` leaves;
//! * injected IO faults (`--features chaos`) — the writer itself fails at
//!   a deterministically chosen event point (short write, failed fsync,
//!   failed rename, torn tail, disk full), the run errors, and a disarmed
//!   resume must still converge to identical bytes.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use pobp_engine::{Algo, EngineConfig};
use pobp_sweep::{run_sweep, SweepConfig, SweepSpec};

/// A fresh scratch directory per proptest case.
fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "pobp-sweep-prop-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Decodes a small grid from the generated knobs. Sizes stay small (n ≤ 8,
/// k ≤ 2) so a case solves in milliseconds.
fn decode_spec(extra_n: bool, seeds: u64, ks: usize, chunk_cells: usize) -> SweepSpec {
    SweepSpec {
        ns: if extra_n { vec![5, 7] } else { vec![6] },
        ks: (0..ks as u32).collect(),
        seeds: (0..seeds).collect(),
        algo: Algo::Reduction,
        machines: 1,
        exact_ref: false,
        chunk_cells,
    }
}

fn cfg(spec: &SweepSpec, threads: usize, resume: bool, max_chunks: Option<usize>) -> SweepConfig {
    SweepConfig {
        spec: spec.clone(),
        engine: EngineConfig { threads, ..EngineConfig::default() },
        resume,
        max_chunks,
        #[cfg(feature = "chaos")]
        chaos: None,
    }
}

/// The uninterrupted baseline: merged bytes of a clean single-threaded run.
fn baseline(spec: &SweepSpec) -> Vec<u8> {
    let dir = case_dir("clean");
    let out = run_sweep(&dir, &cfg(spec, 1, false, None)).unwrap();
    let merged = fs::read(out.merged.expect("clean run merges")).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Simulated `kill -9`: run some chunks, truncate the next shard at an
    /// arbitrary byte (as if the process died mid-write), resume with an
    /// independently chosen thread count.
    #[test]
    fn truncation_killed_sweeps_resume_byte_identically(
        extra_n in AnyBool,
        seeds in 1u64..4,
        ks in 1usize..4,
        chunk_cells in 1usize..4,
        kill_after in 0usize..3,
        cut_frac in 0.0f64..1.0,
        resume_threads in 1usize..5,
    ) {
        let spec = decode_spec(extra_n, seeds, ks, chunk_cells);
        let expect = baseline(&spec);

        let dir = case_dir("kill");
        let chunks_total = spec.chunks().len();
        let ran = kill_after.min(chunks_total.saturating_sub(1));
        if ran > 0 {
            run_sweep(&dir, &cfg(&spec, 1, false, Some(ran))).unwrap();
        } else {
            // Kill "before the first chunk": manifest exists, no shards.
            run_sweep(&dir, &cfg(&spec, 1, false, Some(0))).unwrap();
        }
        // The shard the dying process was writing: an arbitrary prefix of
        // what a complete chunk would have produced.
        let ref_dir = case_dir("kill-ref");
        run_sweep(&ref_dir, &cfg(&spec, 1, false, Some(ran + 1))).unwrap();
        let victim = format!("shard-{ran:05}.jsonl");
        let full = fs::read(ref_dir.join(&victim)).unwrap();
        let cut = (full.len() as f64 * cut_frac) as usize;
        fs::write(dir.join(&victim), &full[..cut]).unwrap();
        fs::remove_dir_all(&ref_dir).unwrap();

        let out = run_sweep(&dir, &cfg(&spec, resume_threads, true, None)).unwrap();
        let merged = fs::read(out.merged.expect("resume completes")).unwrap();
        prop_assert_eq!(&merged, &expect);
        prop_assert_eq!(out.chunks_skipped, ran);
        // Double-resume is a no-op that still verifies and re-merges.
        let again = run_sweep(&dir, &cfg(&spec, 1, true, None)).unwrap();
        prop_assert_eq!(again.rows_written, 0);
        prop_assert_eq!(&fs::read(again.merged.unwrap()).unwrap(), &expect);
        fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use pobp_engine::{FaultPlan, FaultSite};
    use pobp_sweep::Manifest;
    use std::sync::Arc;

    const IO_SITES: [FaultSite; 5] = [
        FaultSite::IoShortWrite,
        FaultSite::IoFsync,
        FaultSite::IoRename,
        FaultSite::IoTornTail,
        FaultSite::IoDiskFull,
    ];

    fn armed(spec: &SweepSpec, threads: usize, plan: &Arc<FaultPlan>) -> SweepConfig {
        SweepConfig {
            spec: spec.clone(),
            engine: EngineConfig { threads, ..EngineConfig::default() },
            resume: false,
            max_chunks: None,
            chaos: Some(Arc::clone(plan)),
        }
    }

    /// Drives the sweep to completion with faults disarmed, fresh or
    /// resumed depending on how far the armed run got before erroring.
    fn finish_disarmed(dir: &std::path::Path, spec: &SweepSpec) -> Vec<u8> {
        let resume = Manifest::load(dir).unwrap().is_some();
        let out = run_sweep(dir, &cfg(spec, 1, resume, None)).unwrap();
        fs::read(out.merged.expect("disarmed run completes")).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// An injected IO fault kills the run at a deterministically chosen
        /// event point; a disarmed resume converges to the clean bytes.
        #[test]
        fn io_fault_killed_sweeps_resume_byte_identically(
            site_idx in 0usize..5,
            rate_pct in 5u32..=100,
            chaos_seed in 0u64..1_000,
            chunk_cells in 1usize..4,
        ) {
            let spec = decode_spec(true, 2, 3, chunk_cells);
            let expect = baseline(&spec);
            let plan = Arc::new(
                FaultPlan::new(chaos_seed)
                    .with_rate(IO_SITES[site_idx], f64::from(rate_pct) / 100.0),
            );
            let dir = case_dir("io");
            let first = run_sweep(&dir, &armed(&spec, 1, &plan));
            let merged = match first {
                // No guarded op drew the fault: already complete.
                Ok(out) => fs::read(out.merged.expect("ok run merges")).unwrap(),
                // The writer failed mid-sweep; the directory must still be
                // resumable (or, if the very first manifest write died,
                // freshly startable).
                Err(_) => finish_disarmed(&dir, &spec),
            };
            prop_assert_eq!(&merged, &expect);
            fs::remove_dir_all(&dir).ok();
        }

        /// Fault decisions are a pure function of (plan, spec): the same
        /// armed run leaves byte-identical shards and the same outcome on
        /// any thread count.
        #[test]
        fn injected_faults_replay_identically_across_threads(
            site_idx in 0usize..5,
            rate_pct in 10u32..=60,
            chaos_seed in 0u64..1_000,
        ) {
            let spec = decode_spec(false, 3, 2, 1);
            let plan = Arc::new(
                FaultPlan::new(chaos_seed)
                    .with_rate(IO_SITES[site_idx], f64::from(rate_pct) / 100.0),
            );
            let snapshot = |threads: usize| {
                let dir = case_dir("replay");
                let res = run_sweep(&dir, &armed(&spec, threads, &plan));
                let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
                    .map(|rd| {
                        rd.filter_map(Result::ok)
                            .map(|e| {
                                (
                                    e.file_name().to_string_lossy().into_owned(),
                                    fs::read(e.path()).unwrap(),
                                )
                            })
                            // heartbeat.json is wall-clock telemetry
                            // (instrument builds), explicitly outside the
                            // byte-identity contract.
                            .filter(|(name, _)| name != "heartbeat.json")
                            .collect()
                    })
                    .unwrap_or_default();
                files.sort();
                fs::remove_dir_all(&dir).ok();
                (res.is_ok(), files)
            };
            let (ok1, files1) = snapshot(1);
            let (ok4, files4) = snapshot(4);
            prop_assert_eq!(ok1, ok4);
            prop_assert_eq!(files1, files4);
        }
    }
}
