//! The sweep runner: execute a [`SweepSpec`] chunk by chunk with
//! checkpointing, and resume an interrupted run.
//!
//! ## The resume contract
//!
//! `run_sweep` executes chunks strictly in plan order; within a chunk the
//! engine parallelizes across `--threads`, but the *IO stream* — rows in
//! grid order, one fsync per chunk, one manifest replace per chunk — is a
//! pure function of the spec. A run killed (or failed by an injected IO
//! fault) at any instant leaves the directory in one of three states, all
//! of which resume cleanly:
//!
//! 1. **between chunks** — manifest and shards agree; resume re-verifies
//!    recorded digests and continues with the first unrecorded chunk;
//! 2. **mid-shard** — the active shard holds a clean prefix or a torn
//!    tail; [`recover`] truncates to the last
//!    complete row and resume re-runs only the remaining tasks (rows are
//!    pure functions of their task, so the healed shard is byte-identical);
//! 3. **shard done, manifest not yet replaced** — the shard is complete
//!    and fsynced but unrecorded; resume recovers it whole, re-runs zero
//!    tasks, and records it.
//!
//! Completion (every chunk recorded) merges the shards — digests verified
//! again — into `merged.jsonl` via the same atomic-replace discipline.
//! The end-to-end invariant, property-tested in `tests/` and smoke-tested
//! in CI: *kill a sweep anywhere, resume it, and the merged bytes equal an
//! uninterrupted run's, for any `--threads`*. See `docs/sweeps.md`.

use std::path::{Path, PathBuf};

use pobp_engine::{run_batch, BatchReport, EngineConfig, EngineStats, IoGuard};
#[cfg(feature = "chaos")]
use pobp_engine::{Engine, FaultPlan};

use crate::manifest::{ChunkRecord, Manifest};
use crate::plan::{fnv1a, SweepSpec};
use crate::rows::format_row;
use crate::shard::{recover, shard_path, ShardState, ShardWriter};

/// How to run a sweep: the plan, the engine setup, and resume/limit knobs.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The sharded grid.
    pub spec: SweepSpec,
    /// Engine configuration used for every chunk.
    pub engine: EngineConfig,
    /// Continue an interrupted sweep instead of starting a fresh one.
    /// Fresh runs refuse a directory that already holds a manifest;
    /// resumes require one, with a matching spec.
    pub resume: bool,
    /// Stop after completing this many chunks in this invocation (`None` =
    /// run to the end). The directory stays resumable.
    pub max_chunks: Option<usize>,
    /// Injected-fault plan for the engine *and* the io-* sites in the
    /// shard/manifest writers (chaos builds only).
    #[cfg(feature = "chaos")]
    pub chaos: Option<std::sync::Arc<FaultPlan>>,
}

/// What a `run_sweep` invocation accomplished.
#[derive(Clone, Debug, Default)]
pub struct SweepOutcome {
    /// Chunks in the full plan.
    pub chunks_total: usize,
    /// Chunks already recorded when this invocation started.
    pub chunks_skipped: usize,
    /// Chunks completed by this invocation.
    pub chunks_completed: usize,
    /// Rows computed and written by this invocation.
    pub rows_written: u64,
    /// Complete rows recovered from a previous life's partial shard.
    pub rows_recovered: u64,
    /// Torn-tail bytes truncated during recovery.
    pub torn_bytes: u64,
    /// `merged.jsonl`, present once every chunk is recorded.
    pub merged: Option<PathBuf>,
    /// Engine accounting summed over the chunks this invocation ran.
    pub stats: EngineStats,
}

/// Runs (or resumes) the sweep in `dir`. On error the directory is always
/// left resumable: shards at worst carry a torn tail, the manifest is
/// always a complete document.
pub fn run_sweep(dir: &Path, cfg: &SweepConfig) -> Result<SweepOutcome, String> {
    if cfg.spec.is_empty() {
        return Err("empty grid: every one of --n/--k/--seeds needs at least one value".into());
    }
    if cfg.spec.chunk_cells == 0 {
        return Err("--chunk-cells must be at least 1".into());
    }
    let loaded = Manifest::load(dir)?;
    // Chunking is a property of the checkpoint, not of the request: the
    // shards already on disk were cut at the manifest's chunk size, so a
    // resume adopts it and only the grid itself has to match.
    let mut spec = cfg.spec.clone();
    if cfg.resume {
        if let Some(m) = &loaded {
            if let Some(cells) = checkpoint_chunk_cells(&m.spec) {
                spec.chunk_cells = cells;
            }
        }
    }
    let spec_string = spec.spec_string();
    let spec_digest = spec.digest();
    let chunks = spec.chunks();

    let mut manifest = match loaded {
        Some(m) if !cfg.resume => {
            return Err(format!(
                "{} already holds a sweep checkpoint ({} of {} chunks done); \
                 pass --resume to continue it, or point --out at a fresh directory",
                dir.display(),
                m.done.len(),
                m.chunks_total,
            ));
        }
        None if cfg.resume => {
            return Err(format!(
                "--resume: no manifest in {} (nothing to resume)",
                dir.display()
            ));
        }
        Some(m) => {
            if m.spec != spec_string || m.spec_digest != spec_digest {
                return Err(format!(
                    "--resume: the grid does not match the checkpoint\n  checkpoint: {}\n  \
                     requested:  {spec_string}",
                    m.spec,
                ));
            }
            if m.chunks_total != chunks.len() {
                return Err(format!(
                    "--resume: manifest says {} chunks, plan says {} (corrupt manifest?)",
                    m.chunks_total,
                    chunks.len(),
                ));
            }
            m
        }
        None => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let fresh = Manifest::fresh(spec_string.clone(), spec_digest, chunks.len());
            fresh
                .write(dir, &manifest_guard(cfg, spec_digest))
                .map_err(|e| format!("writing manifest: {e}"))?;
            fresh
        }
    };

    let m_guard = manifest_guard(cfg, spec_digest);
    let mut out = SweepOutcome { chunks_total: chunks.len(), ..SweepOutcome::default() };
    #[cfg(feature = "instrument")]
    let run_started = std::time::Instant::now();

    for chunk in &chunks {
        let tasks = chunk.tasks();
        let key = chunk.key_of(&tasks);
        let path = shard_path(dir, chunk.index);

        if let Some(rec) = manifest.record(chunk.index) {
            if rec.key != key {
                return Err(format!(
                    "--resume: chunk {} key mismatch (manifest {:#x}, plan {:#x}) — \
                     the checkpoint does not belong to this grid",
                    chunk.index, rec.key, key,
                ));
            }
            verify_shard(&path, rec)?;
            out.chunks_skipped += 1;
            continue;
        }

        if out.chunks_completed >= cfg.max_chunks.unwrap_or(usize::MAX) {
            continue; // budget for this invocation exhausted; stay resumable
        }

        // Heal whatever a previous life left: a clean prefix, a torn tail,
        // or a complete-but-unrecorded shard.
        let state = recover(&path).map_err(|e| format!("recovering {}: {e}", path.display()))?;
        let total = chunk.rows() as u64;
        if state.rows > total {
            return Err(format!(
                "{}: {} rows on disk but the chunk has only {total} — \
                 not this sweep's shard",
                path.display(),
                state.rows,
            ));
        }
        out.rows_recovered += state.rows;
        out.torn_bytes += state.torn_bytes;

        let coords = chunk.coords();
        let remainder = &tasks[state.rows as usize..];
        let mut writer = ShardWriter::open(dir, chunk.index, &state, shard_guard(cfg, key))
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        if !remainder.is_empty() {
            let batch = run_chunk(cfg, remainder);
            add_stats(&mut out.stats, &batch.stats);
            for (&(n, k, seed), report) in
                coords[state.rows as usize..].iter().zip(&batch.reports)
            {
                let row = format_row(n, k, seed, chunk.algo, chunk.machines, report);
                writer
                    .append_row(&row)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                out.rows_written += 1;
            }
        }
        let done: ShardState =
            writer.finish().map_err(|e| format!("fsyncing {}: {e}", path.display()))?;
        debug_assert_eq!(done.rows, total);

        manifest.done.push(ChunkRecord {
            index: chunk.index,
            key,
            rows: done.rows,
            bytes: done.bytes,
            digest: done.digest,
        });
        manifest
            .write(dir, &m_guard)
            .map_err(|e| format!("writing manifest: {e}"))?;
        out.chunks_completed += 1;
        pobp_core::obs_count!("sweep.chunks_completed");
        #[cfg(feature = "instrument")]
        write_heartbeat(dir, run_started, manifest.done.len(), chunks.len(), &out);
    }

    if manifest.done.len() == chunks.len() {
        out.merged = Some(merge(dir, &manifest, &m_guard)?);
    }
    Ok(out)
}

/// Overwrites `heartbeat.json` in the sweep directory with one progress
/// line: elapsed, chunks done/total, rows written this invocation, rows/s,
/// and a chunk-based ETA. Pure telemetry: written outside the IoGuard, not
/// digest-verified, ignored by resume/merge — crash-safety and the
/// byte-identity of shards/manifest/`merged.jsonl` do not depend on it,
/// and write failures are deliberately swallowed.
#[cfg(feature = "instrument")]
fn write_heartbeat(
    dir: &Path,
    started: std::time::Instant,
    chunks_done: usize,
    chunks_total: usize,
    out: &SweepOutcome,
) {
    use pobp_core::json::{obj, Json};
    let elapsed = started.elapsed().as_secs_f64();
    let rows_per_s = if elapsed > 0.0 { out.rows_written as f64 / elapsed } else { 0.0 };
    let remaining = chunks_total.saturating_sub(chunks_done);
    let eta_s = if out.chunks_completed > 0 {
        Json::Num(elapsed / out.chunks_completed as f64 * remaining as f64)
    } else {
        Json::Null
    };
    let line = obj([
        ("elapsed_ms", Json::Num((elapsed * 1000.0).round())),
        ("chunks_done", Json::Num(chunks_done as f64)),
        ("chunks_total", Json::Num(chunks_total as f64)),
        ("rows_written", Json::Num(out.rows_written as f64)),
        ("rows_per_s", Json::Num(rows_per_s)),
        ("eta_s", eta_s),
    ]);
    let _ = std::fs::write(dir.join("heartbeat.json"), format!("{line}\n"));
}

/// Re-checks a recorded chunk's shard against its manifest record — the
/// digest verification `--resume` promises before skipping a chunk.
fn verify_shard(path: &Path, rec: &ChunkRecord) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    if bytes.len() as u64 != rec.bytes || fnv1a(&bytes) != rec.digest {
        return Err(format!(
            "{}: shard does not match its manifest record ({} bytes vs {} recorded) — \
             the checkpoint directory was modified; delete it and re-run",
            path.display(),
            bytes.len(),
            rec.bytes,
        ));
    }
    Ok(())
}

/// Concatenates the shards, in chunk order and digest-verified, into
/// `merged.jsonl` (atomic replace). Byte-identical to what a streaming
/// sweep of the same spec prints.
fn merge(dir: &Path, manifest: &Manifest, guard: &IoGuard) -> Result<PathBuf, String> {
    let mut merged = Vec::new();
    for index in 0..manifest.chunks_total {
        let rec = manifest
            .record(index)
            .ok_or_else(|| format!("merge: chunk {index} missing from the manifest"))?;
        let path = shard_path(dir, index);
        verify_shard(&path, rec)?;
        let bytes =
            std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        merged.extend_from_slice(&bytes);
    }
    let out = dir.join("merged.jsonl");
    guard
        .atomic_replace(&out, &merged)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(out)
}

/// Runs one chunk's remaining tasks through the engine.
fn run_chunk(cfg: &SweepConfig, tasks: &[pobp_engine::SolveTask]) -> BatchReport {
    #[cfg(feature = "chaos")]
    if let Some(plan) = &cfg.chaos {
        return Engine::with_chaos(cfg.engine.clone(), FaultPlan::clone(plan)).run_batch(tasks);
    }
    run_batch(tasks, cfg.engine.clone())
}

/// The guard under the checkpoint manifest (and the final merge), keyed by
/// the spec digest.
fn manifest_guard(cfg: &SweepConfig, spec_digest: u64) -> IoGuard {
    guard_for(cfg, spec_digest ^ 0x6d61_6e69_6665_7374)
}

/// The guard under one chunk's shard writer, keyed by the chunk key.
fn shard_guard(cfg: &SweepConfig, chunk_key: u64) -> IoGuard {
    guard_for(cfg, chunk_key)
}

fn guard_for(cfg: &SweepConfig, key: u64) -> IoGuard {
    #[cfg(feature = "chaos")]
    if let Some(plan) = &cfg.chaos {
        return IoGuard::armed(std::sync::Arc::clone(plan), key);
    }
    let _ = (cfg, key);
    IoGuard::inert()
}

/// The `chunk_cells=N` tail of a recorded spec string (`SweepSpec::spec_string`).
fn checkpoint_chunk_cells(spec: &str) -> Option<usize> {
    spec.rsplit(';').next()?.strip_prefix("chunk_cells=")?.parse().ok()
}

/// Field-wise sum of engine accounting across chunks.
fn add_stats(acc: &mut EngineStats, s: &EngineStats) {
    acc.tasks += s.tasks;
    acc.run += s.run;
    acc.cached += s.cached;
    acc.degraded += s.degraded;
    acc.cert_failed += s.cert_failed;
    acc.panicked += s.panicked;
    acc.timed_out += s.timed_out;
    acc.cancelled += s.cancelled;
    acc.retried += s.retried;
    acc.ref_cache_hits += s.ref_cache_hits;
    acc.steal_attempts += s.steal_attempts;
    acc.steal_hits += s.steal_hits;
}
