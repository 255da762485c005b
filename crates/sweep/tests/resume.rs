//! The resume contract, deterministically: every crash state `run_sweep`
//! documents (between chunks, mid-shard, shard-done-unrecorded or with a
//! torn manifest record) resumes to
//! a merged file byte-identical to an uninterrupted run's, and the guard
//! rails (foreign directories, mismatched specs, tampered shards) fail
//! loudly instead of merging garbage.

use std::fs;
use std::path::{Path, PathBuf};

use pobp_core::json::Json;
use pobp_engine::{Algo, EngineConfig};
use pobp_sweep::{run_sweep, Manifest, SweepConfig, SweepSpec};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pobp-sweep-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec(chunk_cells: usize) -> SweepSpec {
    SweepSpec {
        ns: vec![6, 8],
        ks: vec![0, 1, 2],
        seeds: vec![0, 1],
        algo: Algo::Reduction,
        machines: 1,
        exact_ref: false,
        chunk_cells,
    }
}

fn cfg(spec: SweepSpec, threads: usize, resume: bool, max_chunks: Option<usize>) -> SweepConfig {
    SweepConfig {
        spec,
        engine: EngineConfig { threads, ..EngineConfig::default() },
        resume,
        max_chunks,
    }
}

/// A complete sweep of `spec` into a fresh directory; returns the merged
/// bytes (and removes the directory).
fn clean_merged(tag: &str, spec: SweepSpec, threads: usize) -> Vec<u8> {
    let dir = tmpdir(tag);
    let out = run_sweep(&dir, &cfg(spec, threads, false, None)).unwrap();
    let merged = fs::read(out.merged.expect("complete run merges")).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    merged
}

fn shard(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:05}.jsonl"))
}

#[test]
fn merged_bytes_are_invariant_under_threads_and_chunking() {
    let baseline = clean_merged("base", spec(1), 1);
    assert!(!baseline.is_empty());
    assert_eq!(
        baseline.iter().filter(|&&b| b == b'\n').count(),
        spec(1).rows(),
        "one line per grid row"
    );
    // Thread count is a pure performance knob…
    assert_eq!(clean_merged("t4", spec(1), 4), baseline);
    // …and so is the chunk size: it moves the shard boundaries (and the
    // spec digest), but never the merged bytes.
    for chunk_cells in [2, 3, 100] {
        assert_eq!(clean_merged("cc", spec(chunk_cells), 4), baseline, "chunk_cells={chunk_cells}");
    }
}

#[test]
fn budget_interrupted_runs_resume_to_identical_bytes() {
    let baseline = clean_merged("budget-base", spec(2), 1);
    let dir = tmpdir("budget");
    // One chunk per invocation, alternating thread counts: the on-disk
    // stream may be produced by any mix of lives.
    let first = run_sweep(&dir, &cfg(spec(2), 1, false, Some(1))).unwrap();
    assert_eq!(first.chunks_completed, 1);
    assert!(first.merged.is_none(), "interrupted run must not merge");
    let mut threads = 4;
    loop {
        let out = run_sweep(&dir, &cfg(spec(2), threads, true, Some(1))).unwrap();
        threads = if threads == 4 { 1 } else { 4 };
        if let Some(merged) = out.merged {
            assert_eq!(fs::read(merged).unwrap(), baseline);
            break;
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_shard_tails_are_healed_byte_identically() {
    // Reference directory: a complete run with the same chunking.
    let ref_dir = tmpdir("torn-ref");
    let out = run_sweep(&ref_dir, &cfg(spec(2), 1, false, None)).unwrap();
    let baseline = fs::read(out.merged.unwrap()).unwrap();
    let full_shard1 = fs::read(shard(&ref_dir, 1)).unwrap();

    // Crashed directory: chunk 0 recorded, then "the process died" midway
    // through shard 1 — a clean prefix of rows plus a torn half-row.
    let dir = tmpdir("torn");
    run_sweep(&dir, &cfg(spec(2), 1, false, Some(1))).unwrap();
    let cut = full_shard1.len() / 2;
    fs::write(shard(&dir, 1), &full_shard1[..cut]).unwrap();

    let resumed = run_sweep(&dir, &cfg(spec(2), 4, true, None)).unwrap();
    let torn = !full_shard1[..cut].ends_with(b"\n");
    assert_eq!(resumed.torn_bytes > 0, torn, "cut mid-row leaves a torn tail");
    assert!(resumed.rows_written > 0, "the lost remainder is recomputed");
    assert_eq!(fs::read(resumed.merged.unwrap()).unwrap(), baseline);
    fs::remove_dir_all(&ref_dir).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn complete_but_unrecorded_shards_are_adopted_without_rerunning() {
    // The third crash state: the shard was fully written and fsynced, the
    // process died before the manifest recorded it.
    let ref_dir = tmpdir("adopt-ref");
    let out = run_sweep(&ref_dir, &cfg(spec(2), 1, false, None)).unwrap();
    let baseline = fs::read(out.merged.unwrap()).unwrap();
    let full_shard1 = fs::read(shard(&ref_dir, 1)).unwrap();
    let total_chunks = out.chunks_total;

    let dir = tmpdir("adopt");
    run_sweep(&dir, &cfg(spec(2), 1, false, Some(1))).unwrap();
    fs::write(shard(&dir, 1), &full_shard1).unwrap();
    let resumed = run_sweep(&dir, &cfg(spec(2), 1, true, None)).unwrap();
    assert_eq!(resumed.chunks_skipped, 1);
    let shard1_rows = full_shard1.iter().filter(|&&b| b == b'\n').count() as u64;
    assert_eq!(resumed.rows_recovered, shard1_rows, "whole shard recovered, zero rows re-run");
    assert_eq!(
        resumed.chunks_completed,
        total_chunks - 1,
        "the adopted chunk still gets recorded"
    );
    assert_eq!(fs::read(resumed.merged.unwrap()).unwrap(), baseline);
    fs::remove_dir_all(&ref_dir).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn guard_rails_fail_loudly() {
    let dir = tmpdir("rails");
    run_sweep(&dir, &cfg(spec(2), 1, false, Some(1))).unwrap();

    // Fresh run into a checkpointed directory: refused, points at --resume.
    let err = run_sweep(&dir, &cfg(spec(2), 1, false, None)).unwrap_err();
    assert!(err.contains("--resume"), "{err}");

    // Resume with a different grid: refused with both specs shown.
    let mut wrong = spec(2);
    wrong.ns = vec![6, 8, 10];
    let err = run_sweep(&dir, &cfg(wrong, 1, true, None)).unwrap_err();
    assert!(err.contains("does not match"), "{err}");

    // Resume over a tampered recorded shard: digest verification trips.
    let mut bytes = fs::read(shard(&dir, 0)).unwrap();
    bytes[0] ^= 1;
    fs::write(shard(&dir, 0), &bytes).unwrap();
    let err = run_sweep(&dir, &cfg(spec(2), 1, true, None)).unwrap_err();
    assert!(err.contains("does not match its manifest record"), "{err}");
    bytes[0] ^= 1;
    fs::write(shard(&dir, 0), &bytes).unwrap();

    // An unrecorded shard with more rows than the chunk can hold is not
    // ours: refuse instead of "healing" it into the merge.
    let many: String = "{}\n".repeat(1000);
    fs::write(shard(&dir, 1), many).unwrap();
    let err = run_sweep(&dir, &cfg(spec(2), 1, true, None)).unwrap_err();
    assert!(err.contains("not this sweep's shard"), "{err}");
    fs::remove_dir_all(&dir).unwrap();

    // Resume into an empty directory: nothing to resume.
    let empty = tmpdir("rails-empty");
    let err = run_sweep(&empty, &cfg(spec(2), 1, true, None)).unwrap_err();
    assert!(err.contains("nothing to resume"), "{err}");

    // Degenerate specs are rejected before any IO.
    let mut s = spec(2);
    s.ks.clear();
    assert!(run_sweep(&empty, &cfg(s, 1, false, None)).unwrap_err().contains("empty grid"));
    let mut s = spec(2);
    s.chunk_cells = 0;
    assert!(run_sweep(&empty, &cfg(s, 1, false, None)).unwrap_err().contains("--chunk-cells"));
    let _ = fs::remove_dir_all(&empty);
}

/// `--chunk-cells` is a property of the checkpoint, not the request: the
/// shards on disk were already cut at the manifest's chunk size, so a
/// resume adopts it no matter what the caller asks for.
#[test]
fn resume_adopts_the_checkpoints_chunking() {
    let baseline = clean_merged("adopt-base", spec(1), 1);
    let dir = tmpdir("adopt");
    let first = run_sweep(&dir, &cfg(spec(1), 1, false, Some(2))).unwrap();
    assert!(first.merged.is_none());

    // Resume with a wildly different (even defaulted) chunk size.
    let resumed = run_sweep(&dir, &cfg(spec(100), 4, true, None)).unwrap();
    assert_eq!(resumed.chunks_total, first.chunks_total, "plan re-cut at the checkpoint's size");
    assert_eq!(resumed.chunks_skipped, 2);
    assert_eq!(fs::read(resumed.merged.unwrap()).unwrap(), baseline);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_on_disk_matches_the_documented_schema() {
    let dir = tmpdir("schema");
    run_sweep(&dir, &cfg(spec(2), 1, false, None)).unwrap();
    let m = Manifest::load(&dir).unwrap().expect("manifest exists");
    assert_eq!(m.chunks_total, spec(2).chunks().len());
    assert_eq!(m.done.len(), m.chunks_total);
    assert_eq!(m.spec, spec(2).spec_string());
    assert_eq!(m.spec_digest, spec(2).digest());
    // One header line, then one record line per chunk, each newline-ended.
    let text = fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(text.ends_with('\n'));
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 1 + m.chunks_total, "{text}");
    let header = &lines[0];
    assert_eq!(header.get("version").and_then(Json::as_u64), Some(2));
    assert_eq!(header.get("spec").and_then(Json::as_str), Some(m.spec.as_str()));
    assert_eq!(header.get("chunks_total").and_then(Json::as_u64), Some(m.chunks_total as u64));
    assert!(header.get("done").is_none(), "records are lines, not a header field");
    for (i, rec) in lines[1..].iter().enumerate() {
        assert_eq!(rec.get("index").and_then(Json::as_u64), Some(i as u64));
        // Keys/digests use the 0x-hex convention at full width.
        for field in ["key", "digest"] {
            let hex = rec.get(field).and_then(Json::as_str).unwrap();
            assert!(hex.starts_with("0x") && hex.len() == 18, "{field}: {hex}");
        }
        assert!(rec.get("rows").and_then(Json::as_u64).is_some());
        assert!(rec.get("bytes").and_then(Json::as_u64).is_some());
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// After its header the manifest is only ever appended to: every life of
/// a budget-limited sweep leaves a byte prefix of the uninterrupted run's
/// manifest, extending what the life before it left.
#[test]
fn the_manifest_only_grows_by_appends() {
    let clean_dir = tmpdir("append-clean");
    run_sweep(&clean_dir, &cfg(spec(1), 1, false, None)).unwrap();
    let clean = fs::read(clean_dir.join("manifest.json")).unwrap();
    fs::remove_dir_all(&clean_dir).unwrap();

    let dir = tmpdir("append");
    let mut before = Vec::new();
    let mut resume = false;
    loop {
        let out = run_sweep(&dir, &cfg(spec(1), 2, resume, Some(1))).unwrap();
        let now = fs::read(dir.join("manifest.json")).unwrap();
        assert!(clean.starts_with(&now), "a life left a manifest that is not a prefix");
        assert!(now.starts_with(&before) && now.len() > before.len(), "a life rewrote the log");
        before = now;
        resume = true;
        if out.merged.is_some() {
            break;
        }
    }
    assert_eq!(before, clean);
    fs::remove_dir_all(&dir).unwrap();
}

/// A crash mid-append leaves the manifest's last record without its
/// newline. Loading drops it; the chunk's shard was fsynced before the
/// append, so resume adopts the shard whole, re-runs nothing, and records
/// it again over the cut tail.
#[test]
fn a_torn_manifest_record_is_re_recorded_from_its_complete_shard() {
    let clean_dir = tmpdir("torn-rec-clean");
    let out = run_sweep(&clean_dir, &cfg(spec(1), 1, false, None)).unwrap();
    let baseline = fs::read(out.merged.unwrap()).unwrap();
    let clean_manifest = fs::read(clean_dir.join("manifest.json")).unwrap();
    fs::remove_dir_all(&clean_dir).unwrap();

    let dir = tmpdir("torn-rec");
    run_sweep(&dir, &cfg(spec(1), 1, false, Some(2))).unwrap();
    let path = dir.join("manifest.json");
    let full = fs::read(&path).unwrap();
    let last = full[..full.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
    let torn = &full[..last + (full.len() - last) / 2];
    fs::write(&path, torn).unwrap();
    assert_eq!(Manifest::load(&dir).unwrap().unwrap().done.len(), 1, "the torn record is dropped");

    let adopted = run_sweep(&dir, &cfg(spec(1), 4, true, Some(1))).unwrap();
    assert_eq!(adopted.chunks_skipped, 1);
    assert_eq!(adopted.chunks_completed, 1);
    assert_eq!(adopted.rows_recovered, spec(1).ks.len() as u64, "the whole shard is adopted");
    assert_eq!(adopted.rows_written, 0, "no row is re-run");
    let healed = fs::read(&path).unwrap();
    assert_eq!(healed, full, "the cut tail is gone and the record is whole again");

    let out = run_sweep(&dir, &cfg(spec(1), 1, true, None)).unwrap();
    assert_eq!(fs::read(out.merged.unwrap()).unwrap(), baseline);
    assert_eq!(fs::read(&path).unwrap(), clean_manifest, "no torn bytes remain");
    fs::remove_dir_all(&dir).unwrap();
}

/// A directory checkpointed by an older build (one `"version":1`
/// document) is refused, not mistaken for a fresh directory whose stale
/// shards would be adopted.
#[test]
fn a_version_1_checkpoint_is_refused() {
    let dir = tmpdir("v1");
    fs::create_dir_all(&dir).unwrap();
    let v1 = format!(
        "{{\"version\":1,\"spec\":\"{}\",\"spec_digest\":\"{:#018x}\",\"chunks_total\":4,\"done\":[]}}\n",
        spec(1).spec_string(),
        spec(1).digest(),
    );
    fs::write(dir.join("manifest.json"), v1).unwrap();
    for resume in [false, true] {
        let err = run_sweep(&dir, &cfg(spec(1), 1, resume, None)).unwrap_err();
        assert!(err.contains("version 1") && err.contains("fresh directory"), "{err}");
    }
    fs::remove_dir_all(&dir).unwrap();
}
