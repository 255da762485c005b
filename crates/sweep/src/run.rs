//! The sweep runner: execute a [`SweepSpec`] chunk by chunk with
//! checkpointing, and resume an interrupted run.
//!
//! ## The resume contract
//!
//! `run_sweep` executes chunks strictly in plan order; within a chunk the
//! engine parallelizes across `--threads`, but the *IO stream* — rows in
//! grid order, one shard fsync per chunk, then one fsynced record appended
//! to the manifest log — is a pure function of the spec. A run killed (or
//! failed by an injected IO fault) at any instant leaves the directory in
//! one of three states, all of which resume cleanly:
//!
//! 1. **between chunks** — manifest and shards agree; resume re-verifies
//!    recorded digests and continues with the first unrecorded chunk;
//! 2. **mid-shard** — the active shard holds a clean prefix or a torn
//!    tail; [`recover`] truncates to the last
//!    complete row and resume re-runs only the remaining tasks (rows are
//!    pure functions of their task, so the healed shard is byte-identical);
//! 3. **shard done, record not yet appended** — the shard is complete and
//!    fsynced, but its manifest record is missing or torn (a final line
//!    without its newline, which loading drops and the resumed run cuts
//!    off); resume recovers the shard whole, re-runs zero tasks, and
//!    records it.
//!
//! Completion (every chunk recorded) merges the shards — digests verified
//! again — into `merged.jsonl` via the same atomic-replace discipline.
//! The end-to-end invariant, property-tested in `tests/` and smoke-tested
//! in CI: *kill a sweep anywhere, resume it, and the merged bytes equal an
//! uninterrupted run's, for any `--threads`*. See `docs/sweeps.md`.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use pobp_engine::{run_batch, EngineConfig, EngineStats, IoGuard};

use crate::manifest::{ChunkRecord, Manifest};
use crate::plan::{fnv1a, SweepSpec};
use crate::rows::format_row;
use crate::shard::{recover, shard_path, ShardState, ShardWriter};

/// How to run a sweep: the plan, the engine setup, and resume/limit knobs.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The sharded grid.
    pub spec: SweepSpec,
    /// Engine configuration used for every chunk. Its fault plan, if any,
    /// also arms the io-* sites in the shard and manifest writers.
    /// Its `progress` asks for one stderr line over the whole sweep (chunks
    /// and rows recorded, this run's row rate), redrawn as each chunk is
    /// recorded; the chunk batches run without the engine's own meter,
    /// which would restart at every chunk.
    pub engine: EngineConfig,
    /// Continue an interrupted sweep instead of starting a fresh one.
    /// Fresh runs refuse a directory that already holds a manifest;
    /// resumes require one, with a matching spec.
    pub resume: bool,
    /// Stop after completing this many chunks in this invocation (`None` =
    /// run to the end). The directory stays resumable.
    pub max_chunks: Option<usize>,
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
/// left resumable: shards and the manifest log at worst carry a torn tail,
/// and the manifest's header is always complete.
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
    let spec_digest = fnv1a(spec_string.as_bytes());
    let chunks = spec.chunks();
    let m_guard = manifest_guard(cfg, spec_digest);

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
            let fresh = Manifest::fresh(spec_string, spec_digest, chunks.len());
            fresh.write(dir, &m_guard).map_err(|e| format!("writing manifest: {e}"))?;
            fresh
        }
    };
    let mut log =
        Manifest::open_log(dir, &m_guard).map_err(|e| format!("opening manifest: {e}"))?;

    let mut out = SweepOutcome { chunks_total: chunks.len(), ..SweepOutcome::default() };
    let started = std::time::Instant::now();
    let engine = EngineConfig { progress: false, ..cfg.engine.clone() };
    let progress = |chunks_done: usize, rows_done: u64, rows_written: u64| {
        if cfg.engine.progress {
            let rate = rows_written as f64 / started.elapsed().as_secs_f64().max(1e-9);
            eprint!(
                "\rprogress: {chunks_done}/{} chunks | {rows_done}/{} rows | {rate:.1} rows/s   ",
                chunks.len(),
                spec.rows(),
            );
        }
    };
    let mut rows_done: u64 = manifest.done.iter().map(|r| r.rows).sum();
    progress(manifest.done.len(), rows_done, 0);

    for chunk in &chunks {
        let recorded = manifest.record(chunk.index);
        if recorded.is_none() && out.chunks_completed >= cfg.max_chunks.unwrap_or(usize::MAX) {
            // The budget for this invocation is spent; stay resumable.
            // Records are a plan-order prefix, so no later chunk is
            // recorded either, and none needs expanding.
            break;
        }
        let tasks = chunk.tasks();
        let key = chunk.key_of(&tasks);
        let path = shard_path(dir, chunk.index);

        if let Some(rec) = recorded {
            if rec.key != key {
                return Err(format!(
                    "--resume: chunk {} key mismatch (manifest {:#x}, plan {:#x}) — \
                     the checkpoint does not belong to this grid",
                    chunk.index, rec.key, key,
                ));
            }
            let bytes =
                std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            check_shard(&path, &bytes, rec)?;
            out.chunks_skipped += 1;
            continue;
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
            let batch = run_batch(remainder, engine.clone());
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

        let rec = ChunkRecord {
            index: chunk.index,
            key,
            rows: done.rows,
            bytes: done.bytes,
            digest: done.digest,
        };
        manifest
            .append(&mut log, rec, &m_guard)
            .map_err(|e| format!("writing manifest: {e}"))?;
        out.chunks_completed += 1;
        rows_done += done.rows;
        progress(manifest.done.len(), rows_done, out.rows_written);
        pobp_core::obs_count!("sweep.chunks_completed");
    }

    if cfg.engine.progress {
        eprintln!();
    }
    if manifest.done.len() == chunks.len() {
        out.merged = Some(merge(dir, &manifest, &m_guard)?);
    }
    Ok(out)
}

/// Checks a recorded chunk's shard bytes against its manifest record — the
/// digest verification `--resume` promises before skipping a chunk, and
/// the merge repeats.
fn check_shard(path: &Path, bytes: &[u8], rec: &ChunkRecord) -> Result<(), String> {
    if bytes.len() as u64 != rec.bytes || fnv1a(bytes) != rec.digest {
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
/// sweep of the same spec prints. Each shard is read once, straight into
/// the merged buffer, and checked there.
fn merge(dir: &Path, manifest: &Manifest, guard: &IoGuard) -> Result<PathBuf, String> {
    // Every record's length was checked against its shard earlier in this
    // run (skipped chunks) or measured while writing it, so this is exact.
    let mut merged = Vec::with_capacity(manifest.done.iter().map(|r| r.bytes as usize).sum());
    for index in 0..manifest.chunks_total {
        let rec = manifest
            .record(index)
            .ok_or_else(|| format!("merge: chunk {index} missing from the manifest"))?;
        let path = shard_path(dir, index);
        let start = merged.len();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut merged))
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        check_shard(&path, &merged[start..], rec)?;
    }
    let out = dir.join("merged.jsonl");
    guard
        .atomic_replace(&out, &merged)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(out)
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
    match &cfg.engine.chaos {
        Some(plan) => IoGuard::armed(std::sync::Arc::clone(plan), key),
        None => IoGuard::inert(),
    }
}

/// The `chunk_cells=N` tail of a recorded spec string (`SweepSpec::spec_string`).
fn checkpoint_chunk_cells(spec: &str) -> Option<usize> {
    spec.rsplit(';').next()?.strip_prefix("chunk_cells=")?.parse().ok()
}

/// Field-wise sum of engine accounting across chunks.
fn add_stats(acc: &mut EngineStats, s: &EngineStats) {
    acc.tasks += s.tasks;
    acc.run += s.run;
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
