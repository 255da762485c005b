//! Shard files: one append-only `shard-NNNNN.jsonl` per chunk.
//!
//! A shard holds its chunk's rows in grid order, one JSON line each,
//! written through the fault-injectable [`IoGuard`] and fsynced once at
//! chunk end (before the manifest records the chunk). The writer keeps a
//! running FNV-1a digest over everything it has written, so completion
//! hands the manifest exact `(rows, bytes, digest)` accounting without
//! re-reading the file.
//!
//! Recovery ([`recover`]) is the torn-tail rule the serve journal and the
//! manifest log use: keep the longest prefix ending in a newline, drop the
//! rest. A row is *complete* iff its newline reached the file — every io-*
//! fault and every `kill -9` leaves either a clean prefix or a
//! newline-less tail, both of which recover to a row boundary. The resume runner then re-runs
//! only the tasks past that boundary; rows are pure functions of their
//! task, so the healed shard is byte-identical to an uninterrupted one.

use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use pobp_engine::IoGuard;

use crate::plan::{fnv1a, fnv1a_extend};

/// The shard file name for chunk `index`.
pub fn shard_name(index: usize) -> String {
    format!("shard-{index:05}.jsonl")
}

/// The shard path for chunk `index` inside `dir`.
pub fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(shard_name(index))
}

/// What [`recover`] found on disk for a shard.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardState {
    /// Complete rows on disk (newline-terminated lines).
    pub rows: u64,
    /// Byte length of the complete prefix.
    pub bytes: u64,
    /// FNV-1a digest of the complete prefix.
    pub digest: u64,
    /// Bytes dropped from a torn tail (0 for a clean file).
    pub torn_bytes: u64,
}

/// The torn-tail rule, shared by shards and the manifest log: truncates
/// `path` to its longest prefix ending in a newline, and returns that
/// prefix and the number of bytes cut. A missing file is an empty prefix
/// (nothing to truncate).
pub(crate) fn cut_torn_tail(path: &Path) -> io::Result<(Vec<u8>, u64)> {
    let mut file = match File::options().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    let keep = buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let torn = (buf.len() - keep) as u64;
    if torn > 0 {
        file.set_len(keep as u64)?;
        file.sync_all()?;
        buf.truncate(keep);
    }
    Ok((buf, torn))
}

/// Reads a shard file and truncates it to its longest complete-line
/// prefix, returning the prefix's accounting. A missing file is an empty
/// shard.
pub fn recover(path: &Path) -> io::Result<ShardState> {
    let (prefix, torn_bytes) = cut_torn_tail(path)?;
    Ok(ShardState {
        rows: prefix.iter().filter(|&&b| b == b'\n').count() as u64,
        bytes: prefix.len() as u64,
        digest: fnv1a(&prefix),
        torn_bytes,
    })
}

/// The append-side of one shard: a file handle, the guard, and running
/// `(rows, bytes, digest)` accounting.
#[derive(Debug)]
pub struct ShardWriter {
    file: File,
    guard: IoGuard,
    rows: u64,
    bytes: u64,
    digest: u64,
}

impl ShardWriter {
    /// Opens chunk `index`'s shard for appending, continuing from a
    /// recovered `state` (use a zeroed/empty state for a fresh shard; pass
    /// what [`recover`] returned to continue a partial one).
    pub fn open(dir: &Path, index: usize, state: &ShardState, guard: IoGuard) -> io::Result<Self> {
        let file = guard.open_append(&shard_path(dir, index))?;
        Ok(ShardWriter {
            file,
            guard,
            rows: state.rows,
            bytes: state.bytes,
            digest: state.digest,
        })
    }

    /// Appends one row (no trailing newline in `row`; the writer adds it)
    /// and folds it into the running digest. On error the file may hold a
    /// torn tail — the caller must abandon the writer and let a future
    /// [`recover`] heal it.
    pub fn append_row(&mut self, row: &str) -> io::Result<()> {
        self.guard.append_line(&mut self.file, row.as_bytes())?;
        self.digest = fnv1a_extend(self.digest, row.as_bytes());
        self.digest = fnv1a_extend(self.digest, b"\n");
        self.rows += 1;
        self.bytes += row.len() as u64 + 1;
        pobp_core::obs_count!("sweep.rows_written");
        Ok(())
    }

    /// Fsyncs the shard and returns its final accounting — call once, at
    /// chunk end, *before* recording the chunk in the manifest.
    pub fn finish(mut self) -> io::Result<ShardState> {
        self.guard.fsync(&mut self.file)?;
        Ok(ShardState { rows: self.rows, bytes: self.bytes, digest: self.digest, torn_bytes: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pobp-shard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_finish_accounting_matches_recover() {
        let dir = tmpdir("acct");
        let empty = ShardState { rows: 0, bytes: 0, digest: fnv1a(b""), torn_bytes: 0 };
        let mut w = ShardWriter::open(&dir, 3, &empty, IoGuard::inert()).unwrap();
        w.append_row("{\"n\":6,\"k\":0}").unwrap();
        w.append_row("{\"n\":6,\"k\":1}").unwrap();
        let done = w.finish().unwrap();
        assert_eq!(done.rows, 2);
        let on_disk = recover(&shard_path(&dir, 3)).unwrap();
        assert_eq!(on_disk, done, "running digest == recomputed digest");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_drops_a_torn_tail_and_resume_append_matches_clean() {
        let dir = tmpdir("torn");
        let p = shard_path(&dir, 0);
        // Clean reference: three rows in one life.
        let empty = ShardState { rows: 0, bytes: 0, digest: fnv1a(b""), torn_bytes: 0 };
        let rows = ["{\"a\":1}", "{\"b\":22}", "{\"c\":333}"];
        let clean_dir = tmpdir("torn-clean");
        let mut w = ShardWriter::open(&clean_dir, 0, &empty, IoGuard::inert()).unwrap();
        for r in rows {
            w.append_row(r).unwrap();
        }
        let clean = w.finish().unwrap();

        // Crashed life: one complete row plus a torn half of the second.
        fs::write(&p, b"{\"a\":1}\n{\"b\":2").unwrap();
        let state = recover(&p).unwrap();
        assert_eq!(state.rows, 1);
        assert_eq!(state.torn_bytes, 6);
        assert_eq!(fs::read(&p).unwrap(), b"{\"a\":1}\n", "tail truncated");
        // Resume: re-append rows[1..] on top of the recovered state.
        let mut w = ShardWriter::open(&dir, 0, &state, IoGuard::inert()).unwrap();
        for r in &rows[state.rows as usize..] {
            w.append_row(r).unwrap();
        }
        let healed = w.finish().unwrap();
        assert_eq!(healed, clean, "healed accounting == uninterrupted accounting");
        assert_eq!(
            fs::read(&p).unwrap(),
            fs::read(shard_path(&clean_dir, 0)).unwrap(),
            "healed bytes == uninterrupted bytes"
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn recover_on_a_missing_shard_is_an_empty_state() {
        let dir = tmpdir("missing");
        let s = recover(&shard_path(&dir, 9)).unwrap();
        assert_eq!(s.rows, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.torn_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
