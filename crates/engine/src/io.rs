//! Fault-injectable filesystem primitives.
//!
//! Every durable write in the system — the sweep shard files and checkpoint
//! manifest (`pobp-sweep`), the serve journal and snapshot (`pobp-serve`) —
//! goes through an [`IoGuard`] instead of calling `std::fs` directly. An
//! inert guard is a pass-through: past one `Option` test, every method is
//! the underlying `write_all`/`sync_all`/`rename` call. A guard **armed**
//! with a [`FaultPlan`] first consults the plan's IO sites
//! (`io-short-write`, `io-fsync`, `io-rename`, `io-torn-tail`,
//! `io-disk-full`) on every operation.
//!
//! Determinism: an armed guard carries a base content key and a per-guard
//! operation counter; operation `i` draws its fault decisions from
//! `(seed, site, base ^ splitmix64(i))`. The op stream of a writer is a
//! pure function of *what* it writes (not of thread scheduling), so a
//! chaos-seeded sweep injects the same IO faults at the same byte offsets
//! under any `--threads` — which is what lets the resume proptests replay a
//! failure and assert byte-identical recovery. See `docs/sweeps.md`.
//!
//! Fault semantics mirror what real filesystems do:
//!
//! * **disk-full** fails up front, persisting nothing;
//! * **short-write** persists a strict prefix, then fails (a partial
//!   `write(2)` return the caller did not loop on);
//! * **torn-tail** persists a line's bytes *without* the final newline,
//!   then fails — exactly the state a `kill -9` between `write` and the
//!   newline flush leaves behind, and the state the journal/shard readers
//!   must recover from;
//! * **fsync** fails before syncing: the data may sit in the page cache but
//!   the caller must assume it is not durable. The same site fails a
//!   directory sync ([`IoGuard::sync_dir`]), the last leg of an atomic
//!   replace: the rename has landed but may not survive power loss;
//! * **rename** fails the publish leg of an atomic replace: the synced tmp
//!   file exists, the destination is untouched.
//!
//! After any injected (or real) error the *caller* decides policy; the
//! guard never retries and never hides an error. Writers that cannot
//! re-establish a known-good file state after a failed append (the serve
//! journal) poison themselves rather than keep appending after a tear.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cache::splitmix64;
use crate::chaos::{FaultPlan, FaultSite};

/// A fault-injectable handle over durable-write primitives. Inert (a plain
/// pass-through to `std::fs`) unless armed with a chaos plan.
#[derive(Debug, Default)]
pub struct IoGuard {
    armed: Option<ArmedIo>,
}

#[derive(Debug)]
struct ArmedIo {
    plan: Arc<FaultPlan>,
    base: u64,
    ops: AtomicU64,
}

impl IoGuard {
    /// An inert guard: every operation is the plain `std::fs` call.
    pub fn inert() -> Self {
        IoGuard::default()
    }

    /// A guard armed with `plan`, drawing decisions keyed off `base` (the
    /// writer's content key — e.g. a sweep chunk key or the journal key).
    pub fn armed(plan: Arc<FaultPlan>, base: u64) -> Self {
        IoGuard { armed: Some(ArmedIo { plan, base, ops: AtomicU64::new(0) }) }
    }

    /// Draws the fault (if any) for the next operation. Exactly one draw
    /// per public op, so op indices track operations, not site probes.
    fn draw(&self, sites: &[FaultSite]) -> Option<FaultSite> {
        let a = self.armed.as_ref()?;
        let op = a.ops.fetch_add(1, Ordering::Relaxed);
        let key = a.base ^ splitmix64(op);
        sites.iter().copied().find(|&s| a.plan.fires(s, key))
    }

    /// Builds the injected-error value for `site` and counts it.
    fn injected(site: FaultSite) -> io::Error {
        match site {
            FaultSite::IoShortWrite => pobp_core::obs_count!("chaos.io.short_write"),
            FaultSite::IoFsync => pobp_core::obs_count!("chaos.io.fsync"),
            FaultSite::IoRename => pobp_core::obs_count!("chaos.io.rename"),
            FaultSite::IoTornTail => pobp_core::obs_count!("chaos.io.torn_tail"),
            FaultSite::IoDiskFull => pobp_core::obs_count!("chaos.io.disk_full"),
            _ => {}
        }
        io::Error::other(format!("chaos: injected io fault (site={})", site.name()))
    }

    /// Appends `line` plus a trailing newline to `file` in one write,
    /// without flushing. `line` must not itself contain a newline.
    ///
    /// Fault sites, in precedence order: `io-disk-full` (nothing written),
    /// `io-short-write` (half the line written), `io-torn-tail` (the whole
    /// line written but no newline).
    pub fn append_line(&self, file: &mut File, line: &[u8]) -> io::Result<()> {
        debug_assert!(!line.contains(&b'\n'), "append_line takes a single line");
        if let Some(site) =
            self.draw(&[FaultSite::IoDiskFull, FaultSite::IoShortWrite, FaultSite::IoTornTail])
        {
            match site {
                FaultSite::IoShortWrite => {
                    file.write_all(&line[..line.len() / 2])?;
                    let _ = file.flush();
                }
                FaultSite::IoTornTail => {
                    file.write_all(line)?;
                    let _ = file.flush();
                }
                _ => {}
            }
            return Err(Self::injected(site));
        }
        // One write for the line and its newline: short of a fault, a
        // reader polling the file never sees a line without its newline.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line);
        buf.push(b'\n');
        file.write_all(&buf)
    }

    /// Flushes `file` and fsyncs it to disk. The `io-fsync` site fails
    /// before syncing: the bytes may be in the page cache, but the caller
    /// must treat them as not durable.
    pub fn fsync(&self, file: &mut File) -> io::Result<()> {
        file.flush()?;
        if let Some(site) = self.draw(&[FaultSite::IoFsync]) {
            return Err(Self::injected(site));
        }
        file.sync_all()
    }

    /// Creates (truncating) `path` and writes `bytes` followed by an fsync.
    /// Subject to `io-disk-full`, `io-short-write`, and `io-fsync` (one
    /// draw; disk-full and short-write take precedence).
    pub fn write_file_bytes(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some(site) =
            self.draw(&[FaultSite::IoDiskFull, FaultSite::IoShortWrite, FaultSite::IoFsync])
        {
            match site {
                FaultSite::IoShortWrite => {
                    let mut f = File::create(path)?;
                    f.write_all(&bytes[..bytes.len() / 2])?;
                }
                FaultSite::IoFsync => {
                    let mut f = File::create(path)?;
                    f.write_all(bytes)?;
                }
                _ => {}
            }
            return Err(Self::injected(site));
        }
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    /// Renames `from` to `to` — the publish leg of an atomic replace. The
    /// `io-rename` site fails without touching either path.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(site) = self.draw(&[FaultSite::IoRename]) {
            return Err(Self::injected(site));
        }
        fs::rename(from, to)
    }

    /// Fsyncs the directory `dir`, making the renames and file creations
    /// inside it durable. Draws the `io-fsync` site, which fails before
    /// syncing: an entry renamed just before may be visible now and still
    /// vanish on power loss.
    pub fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if let Some(site) = self.draw(&[FaultSite::IoFsync]) {
            return Err(Self::injected(site));
        }
        File::open(dir)?.sync_all()
    }

    /// Atomically replaces `path` with `bytes`: write `path.tmp`, fsync,
    /// rename over `path`, fsync the directory. If the write or the rename
    /// fails, `path` still holds its previous contents (at worst a stale
    /// `.tmp` is left behind, which a later replace overwrites). If only
    /// the directory sync fails, the new contents are in place but may
    /// not survive power loss.
    pub fn atomic_replace(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        self.write_file_bytes(&tmp, bytes)?;
        self.rename(&tmp, path)?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        self.sync_dir(dir.unwrap_or(Path::new(".")))
    }

    /// Opens `path` for appending (creating it if absent), untouched by
    /// fault sites — open itself is not a modeled failure point.
    pub fn open_append(&self, path: &Path) -> io::Result<File> {
        OpenOptions::new().create(true).append(true).open(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join(format!("pobp-io-{tag}-{}-{:?}", std::process::id(), std::thread::current().id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn inert_guard_is_a_plain_writer() {
        let dir = tmpdir("inert");
        let g = IoGuard::inert();
        let p = dir.join("a.jsonl");
        let mut f = g.open_append(&p).unwrap();
        g.append_line(&mut f, b"{\"x\":1}").unwrap();
        g.append_line(&mut f, b"{\"x\":2}").unwrap();
        g.fsync(&mut f).unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "{\"x\":1}\n{\"x\":2}\n");
        g.atomic_replace(&p, b"fresh\n").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "fresh\n");
        let _ = fs::remove_dir_all(&dir);
    }

    mod chaos {
        use super::*;

        fn armed(site: FaultSite) -> IoGuard {
            let plan = Arc::new(FaultPlan::new(7).with_rate(site, 1.0));
            IoGuard::armed(plan, 0xabcd)
        }

        #[test]
        fn torn_tail_drops_only_the_newline() {
            let dir = tmpdir("torn");
            let g = armed(FaultSite::IoTornTail);
            let p = dir.join("a.jsonl");
            let mut f = g.open_append(&p).unwrap();
            let err = g.append_line(&mut f, b"{\"x\":1}").unwrap_err();
            assert!(err.to_string().contains("chaos: injected"));
            assert_eq!(fs::read_to_string(&p).unwrap(), "{\"x\":1}");
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn short_write_persists_a_strict_prefix() {
            let dir = tmpdir("short");
            let g = armed(FaultSite::IoShortWrite);
            let p = dir.join("a.jsonl");
            let mut f = g.open_append(&p).unwrap();
            g.append_line(&mut f, b"0123456789").unwrap_err();
            assert_eq!(fs::read_to_string(&p).unwrap(), "01234");
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn disk_full_persists_nothing() {
            let dir = tmpdir("full");
            let g = armed(FaultSite::IoDiskFull);
            let p = dir.join("a.jsonl");
            let mut f = g.open_append(&p).unwrap();
            g.append_line(&mut f, b"{\"x\":1}").unwrap_err();
            assert_eq!(fs::read_to_string(&p).unwrap(), "");
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn failed_rename_leaves_the_destination_untouched() {
            let dir = tmpdir("rename");
            let g = armed(FaultSite::IoRename);
            let p = dir.join("a.json");
            fs::write(&p, "old").unwrap();
            let err = g.atomic_replace(&p, b"new").unwrap_err();
            assert!(err.to_string().contains("io-rename"));
            assert_eq!(fs::read_to_string(&p).unwrap(), "old");
            // The synced tmp is allowed to linger; a retry overwrites it.
            assert_eq!(fs::read_to_string(p.with_extension("tmp")).unwrap(), "new");
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn failed_dir_sync_fails_the_replace_after_the_rename_landed() {
            // An atomic replace draws three ops: the tmp write, the rename
            // and the directory sync. Pick a key whose io-fsync draws spare
            // the tmp write's fsync (op 0) and hit the directory's (op 2).
            let plan = Arc::new(FaultPlan::new(7).with_rate(FaultSite::IoFsync, 0.5));
            let fires = |base: u64| {
                let probe = IoGuard::armed(Arc::clone(&plan), base);
                (0..3).map(|_| probe.draw(&[FaultSite::IoFsync]).is_some()).collect::<Vec<_>>()
            };
            let base = (0..)
                .find(|&b| matches!(fires(b)[..], [false, _, true]))
                .expect("some key fires only the directory sync");
            let dir = tmpdir("dirsync");
            let p = dir.join("a.json");
            fs::write(&p, "old").unwrap();
            let g = IoGuard::armed(Arc::clone(&plan), base);
            let err = g.atomic_replace(&p, b"new").unwrap_err();
            assert!(err.to_string().contains("io-fsync"));
            assert_eq!(fs::read_to_string(&p).unwrap(), "new", "the rename landed");
            assert!(!p.with_extension("tmp").exists());
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn op_stream_is_a_pure_function_of_the_key() {
            let plan = Arc::new(FaultPlan::new(3).with_rate(FaultSite::IoTornTail, 0.5));
            let draws = |g: &IoGuard| -> Vec<bool> {
                (0..64)
                    .map(|_| g.draw(&[FaultSite::IoTornTail]).is_some())
                    .collect()
            };
            let a = draws(&IoGuard::armed(Arc::clone(&plan), 42));
            let b = draws(&IoGuard::armed(Arc::clone(&plan), 42));
            assert_eq!(a, b, "same key, same op stream");
            let c = draws(&IoGuard::armed(Arc::clone(&plan), 43));
            assert_ne!(a, c, "another key draws another stream");
        }

        #[test]
        fn fsync_site_fails_the_flush() {
            let dir = tmpdir("fsync");
            let g = armed(FaultSite::IoFsync);
            let p = dir.join("a.jsonl");
            let mut f = g.open_append(&p).unwrap();
            // append_line draws disk-full/short-write/torn-tail only, so it
            // succeeds; the fsync op then fails.
            g.append_line(&mut f, b"{\"x\":1}").unwrap();
            let err = g.fsync(&mut f).unwrap_err();
            assert!(err.to_string().contains("io-fsync"));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
