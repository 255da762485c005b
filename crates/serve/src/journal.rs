//! Durability: the append-only event journal and its snapshot compaction.
//!
//! On disk a registry directory holds at most three files:
//!
//! * `journal.jsonl` — one JSON object per line, `{"seq": N, "ev": ...}`,
//!   appended and flushed **before** the daemon acknowledges the event's
//!   effect to any client. Sequence numbers are monotone across the whole
//!   directory lifetime (they never reset at compaction).
//! * `snapshot.json` — a full registry image plus the `seq` of the last
//!   event it covers. Written by compaction.
//! * `snapshot.json.tmp` — compaction scratch; atomically renamed over
//!   `snapshot.json`. A leftover `.tmp` is ignored at recovery.
//!
//! Compaction order is: write `.tmp`, fsync, rename over `snapshot.json`,
//! fsync the directory (so the rename survives power loss), then truncate
//! `journal.jsonl`. A `kill -9` between the rename and the
//! truncate leaves journal records with `seq` ≤ the snapshot's — recovery
//! skips those, so replay is idempotent. A `kill -9` mid-append leaves a
//! truncated final line without its newline — recovery drops it (that
//! event was never acknowledged, so nothing observable is lost). Both cases
//! are exercised by `tests/prop_journal.rs`. Any other line that does not
//! parse is damage no crash leaves, and recovery refuses it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use pobp_core::{obs_count, obs_event};
use pobp_engine::IoGuard;

use crate::json::{obj, Json};
use crate::registry::{Event, Registry};

/// Default number of journal appends between snapshot compactions.
pub const DEFAULT_COMPACT_EVERY: u64 = 256;

/// What recovery found on disk (surfaced in the daemon's startup line and
/// the `stats` op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal sequence number of the snapshot that seeded the registry
    /// (0 = no snapshot).
    pub snapshot_seq: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: u64,
    /// Records skipped because the snapshot already covered them
    /// (crash between compaction's rename and truncate).
    pub skipped: u64,
    /// Whether a torn final line (no newline, does not parse) was dropped
    /// (crash mid-append).
    pub dropped_tail: bool,
}

/// The open journal: owns the append handle and the compaction cadence.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    file: File,
    /// Sequence number of the last record written (or recovered).
    seq: u64,
    /// Appends since the last snapshot; drives compaction cadence.
    pending: u64,
    compact_every: u64,
    /// Total compactions performed by this handle.
    compactions: u64,
    /// Every durable write goes through the guard — inert unless
    /// `pobp serve --chaos` armed the io-* sites (docs/sweeps.md).
    guard: IoGuard,
    /// Set when an append failed mid-line: the file may carry a torn tail,
    /// and appending onto it would corrupt the next record. Further
    /// appends are refused until a successful compaction truncates the
    /// journal back to a clean state.
    poisoned: bool,
}

impl Journal {
    /// Opens (creating if needed) the registry directory, recovers the
    /// registry state from snapshot + journal, and returns the journal
    /// positioned to append. A damaged journal (see [`replay_dir`]) is an
    /// error, and the directory is left as it was found.
    pub fn open(
        dir: &Path,
        compact_every: u64,
    ) -> io::Result<(Journal, Registry, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let (registry, seq, report) = replay_dir(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(dir.join("journal.jsonl"))?;
        let pending = report.replayed;
        let compact_every = compact_every.max(1);
        obs_event!("serve.recover.replayed", report.replayed);
        let mut journal = Journal {
            dir: dir.to_path_buf(),
            file,
            seq,
            pending,
            compact_every,
            compactions: 0,
            guard: IoGuard::inert(),
            poisoned: false,
        };
        // A crash mid-append can leave the file without a final newline —
        // either a torn half-record, or a complete record whose newline
        // never landed. Appending onto such a file would corrupt the next
        // record. Snapshot now: that truncates the journal to a clean state
        // while preserving everything recovered.
        if report.dropped_tail || !ends_with_newline(&journal.file)? {
            journal.compact(&registry)?;
        }
        Ok((journal, registry, report))
    }

    /// Arms the io-* fault sites under every subsequent append/compaction
    /// (`pobp serve --chaos`; see docs/sweeps.md for the sites).
    pub fn set_chaos(&mut self, plan: std::sync::Arc<pobp_engine::FaultPlan>, key: u64) {
        self.guard = IoGuard::armed(plan, key);
    }

    /// Appends one event and flushes it to the OS before returning, so a
    /// subsequent `kill -9` cannot lose it. Returns the record's sequence
    /// number. On an IO failure the journal poisons itself — the file may
    /// hold a torn tail, and blindly appending more records onto it would
    /// break the one-torn-line recovery assumption — until a compaction
    /// re-establishes a clean file.
    pub fn append(&mut self, event: &Event) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(
                "journal poisoned by an earlier append failure (awaiting compaction)",
            ));
        }
        self.seq += 1;
        let mut record = event.to_json();
        if let Json::Obj(pairs) = &mut record {
            pairs.insert(0, ("seq".into(), Json::Num(self.seq as f64)));
        }
        let line = record.to_string();
        if let Err(e) = self
            .guard
            .append_line(&mut self.file, line.as_bytes())
            .and_then(|()| self.file.flush())
        {
            self.seq -= 1;
            self.poisoned = true;
            obs_count!("serve.journal.append_failures");
            return Err(e);
        }
        self.pending += 1;
        obs_count!("serve.journal.appends");
        Ok(self.seq)
    }

    /// Compacts if the append cadence says so. Returns whether a snapshot
    /// was written.
    pub fn maybe_compact(&mut self, registry: &Registry) -> io::Result<bool> {
        if self.pending < self.compact_every {
            return Ok(false);
        }
        self.compact(registry)?;
        Ok(true)
    }

    /// Unconditionally snapshots `registry` and truncates the journal.
    pub fn compact(&mut self, registry: &Registry) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.json.tmp");
        let snap = self.dir.join("snapshot.json");
        let mut bytes = registry.to_snapshot_json(self.seq).to_string().into_bytes();
        bytes.push(b'\n');
        self.guard.write_file_bytes(&tmp, &bytes)?;
        self.guard.rename(&tmp, &snap)?;
        self.guard.sync_dir(&self.dir)?;
        // Crash window: snapshot covers seq ≤ self.seq, journal still holds
        // those records. Recovery skips them, so this truncate is merely an
        // optimisation that can safely be lost.
        self.file.set_len(0)?;
        self.pending = 0;
        self.compactions += 1;
        // The journal file is empty again: any torn tail from a failed
        // append is gone, so appends are safe once more.
        self.poisoned = false;
        obs_count!("serve.journal.compactions");
        Ok(())
    }

    /// Sequence number of the last record written.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Total compactions performed by this handle.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Current size of the journal file in bytes (0 if unreadable).
    pub fn bytes(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }

    /// Whether an append failure has poisoned the journal (appends are
    /// refused until a compaction truncates it clean).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// Whether the (append-mode) journal file is empty or ends with `\n` —
/// i.e. safe to append a fresh line to.
fn ends_with_newline(file: &File) -> io::Result<bool> {
    use std::io::Seek;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(true);
    }
    let mut f = file.try_clone()?;
    f.seek(io::SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

/// Pure read-side recovery: reconstructs the registry a fresh daemon would
/// start from, without opening the directory for writing. The soak
/// harness's replay-identity invariant and the property tests use this
/// directly.
///
/// Only a final line without its newline can be a torn append: the writer
/// puts a record and its newline in one write, and a failed append poisons
/// the journal until a compaction truncates it. So such a line is dropped
/// when it does not parse (and replayed when it does). Any other line that
/// does not parse — bad JSON, no `seq`, an unknown event — is an
/// `InvalidData` error naming its line: skipping it would drop the
/// acknowledged records after it.
pub fn replay_dir(dir: &Path) -> io::Result<(Registry, u64, RecoveryReport)> {
    let mut report = RecoveryReport::default();
    let mut registry = Registry::new();
    let mut seq = 0u64;
    let snap_path = dir.join("snapshot.json");
    if let Ok(text) = fs::read_to_string(&snap_path) {
        let parsed = Json::parse(text.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {e}")))?;
        let (reg, snap_seq) = Registry::from_snapshot_json(&parsed)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {e}")))?;
        registry = reg;
        seq = snap_seq;
        report.snapshot_seq = snap_seq;
    }
    let journal_path = dir.join("journal.jsonl");
    let mut bytes = Vec::new();
    match File::open(&journal_path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let text = String::from_utf8_lossy(&bytes);
    let mut lines = (1..).zip(text.split('\n')).peekable();
    while let Some((line_no, line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (record_seq, event) = match parse_record(line) {
            Ok(parsed) => parsed,
            // The segment after the last newline: a torn final append,
            // never acknowledged.
            Err(_) if lines.peek().is_none() => {
                report.dropped_tail = true;
                break;
            }
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journal line {line_no}: {e}"),
                ));
            }
        };
        if record_seq <= report.snapshot_seq {
            report.skipped += 1;
            continue;
        }
        registry.apply(&event);
        seq = seq.max(record_seq);
        report.replayed += 1;
    }
    Ok((registry, seq, report))
}

/// One journal line: its sequence number and event.
fn parse_record(line: &str) -> Result<(u64, Event), String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let seq = v.get("seq").and_then(Json::as_u64).ok_or("record without a numeric seq")?;
    Ok((seq, Event::from_json(&v)?))
}

/// Serialises a recovery report for the `stats` op.
pub fn recovery_json(r: &RecoveryReport) -> Json {
    obj([
        ("snapshot_seq", Json::Num(r.snapshot_seq as f64)),
        ("replayed", Json::Num(r.replayed as f64)),
        ("skipped", Json::Num(r.skipped as f64)),
        ("dropped_tail", Json::Bool(r.dropped_tail)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use pobp_engine::Algo;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("pobp-serve-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn submit_event(reg: &mut Registry, seed: u64) -> Event {
        let id = reg.allocate_id();
        Event::Submit { id, spec: JobSpec::cell(Algo::Reduction, 6, 1, seed) }
    }

    fn ok_result() -> Json {
        obj([("status", Json::Str("ok".into()))])
    }

    #[test]
    fn append_then_reopen_recovers_identical_registry() {
        let dir = tmpdir("reopen");
        let mut live = Registry::new();
        {
            let (mut j, recovered, _) = Journal::open(&dir, 1000).unwrap();
            assert!(recovered.is_empty());
            for seed in 0..5 {
                let ev = submit_event(&mut live, seed);
                j.append(&ev).unwrap();
                live.apply(&ev);
            }
            let ev = Event::Finish { id: 2, result: ok_result() };
            j.append(&ev).unwrap();
            live.apply(&ev);
        }
        let (_, recovered, report) = Journal::open(&dir, 1000).unwrap();
        assert_eq!(recovered, live);
        assert_eq!(report.replayed, 6);
        assert!(!report.dropped_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_skips_covered_records() {
        let dir = tmpdir("compact");
        let mut live = Registry::new();
        let (mut j, _, _) = Journal::open(&dir, 3).unwrap();
        for seed in 0..7 {
            let ev = submit_event(&mut live, seed);
            j.append(&ev).unwrap();
            live.apply(&ev);
            j.maybe_compact(&live).unwrap();
        }
        assert!(j.compactions() >= 2);
        // Simulate the crash window: re-append a record with a seq the
        // snapshot already covers, as if truncate had been lost.
        let stale = obj([
            ("seq", Json::Num(1.0)),
            ("ev", Json::Str("cancel".into())),
            ("id", Json::Num(1.0)),
        ]);
        let mut f = OpenOptions::new().append(true).open(dir.join("journal.jsonl")).unwrap();
        writeln!(f, "{stale}").unwrap();
        drop(f);
        let (recovered, _, report) = replay_dir(&dir).unwrap();
        assert_eq!(recovered, live, "stale pre-snapshot record must be skipped");
        assert_eq!(report.skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_without_panic() {
        let dir = tmpdir("tail");
        let mut live = Registry::new();
        {
            let (mut j, _, _) = Journal::open(&dir, 1000).unwrap();
            for seed in 0..4 {
                let ev = submit_event(&mut live, seed);
                j.append(&ev).unwrap();
                live.apply(&ev);
            }
        }
        // Torn final append: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(dir.join("journal.jsonl")).unwrap();
        f.write_all(br#"{"seq":5,"ev":"submit","id":9,"spe"#).unwrap();
        drop(f);
        let (recovered, seq, report) = replay_dir(&dir).unwrap();
        assert_eq!(recovered, live);
        assert_eq!(seq, 4);
        assert!(report.dropped_tail);
        // Reopening auto-compacts past the torn tail, so fresh appends
        // land on a clean file instead of concatenating onto garbage.
        let (mut j, recovered2, report2) = Journal::open(&dir, 1000).unwrap();
        assert_eq!(recovered2, live);
        assert!(report2.dropped_tail);
        assert_eq!(j.compactions(), 1);
        let ev = submit_event(&mut live, 99);
        j.append(&ev).unwrap();
        live.apply(&ev);
        let (recovered3, _, _) = replay_dir(&dir).unwrap();
        assert_eq!(recovered3, live);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_complete_line_is_an_error_not_a_torn_tail() {
        let dir = tmpdir("damaged");
        {
            let mut live = Registry::new();
            let (mut j, _, _) = Journal::open(&dir, 1000).unwrap();
            for seed in 0..3 {
                j.append(&submit_event(&mut live, seed)).unwrap();
            }
        }
        let path = dir.join("journal.jsonl");
        let intact = fs::read_to_string(&path).unwrap();
        for (damaged_line, from, to) in [(2, "\"submit\"", "\"subm1t\""), (3, "{", "[")] {
            let mut lines: Vec<String> = intact.lines().map(String::from).collect();
            lines[damaged_line - 1] = lines[damaged_line - 1].replacen(from, to, 1);
            let damaged = lines.join("\n") + "\n";
            fs::write(&path, &damaged).unwrap();
            let err = Journal::open(&dir, 1000).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&format!("journal line {damaged_line}")), "{err}");
            // Nothing was compacted away: the acknowledged records after
            // the damage are still on disk for an operator to repair.
            assert_eq!(fs::read_to_string(&path).unwrap(), damaged);
            assert!(!dir.join("snapshot.json").exists());
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
