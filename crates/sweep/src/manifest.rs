//! The checkpoint manifest: `manifest.json` in the sweep output directory,
//! an append-only log of JSON lines.
//!
//! The manifest is the sweep's single source of durable truth. Its first
//! line is the header: the spec (canonical string + digest) and the chunk
//! count. A fresh sweep writes it once, by atomic replace (tmp → fsync →
//! rename → directory fsync, through [`IoGuard::atomic_replace`]). Each
//! later line records one **completed** chunk, in plan order: the chunk's
//! content key and the shard file's row count, byte length, and FNV-1a
//! digest. A record is appended with one write and fsynced
//! ([`Manifest::append`]) *only after* its shard file is fsynced, which
//! gives the resume invariant: every chunk the manifest lists is fully on
//! disk. Nothing rewrites the file after the header, so a chunk commit
//! costs one short append however large the spec or the sweep.
//!
//! A final line without its newline is a torn append (a crash or an
//! injected fault mid-write): [`Manifest::parse`] drops it, and a resumed
//! run cuts it off before its first append ([`Manifest::open_log`]). The
//! chunk it described is complete on disk, so resume adopts that shard
//! whole and records it again. Anything else out of shape is a hard error
//! naming the line: a complete line that does not parse, a record out of
//! plan order, or a version 1 document (the single-document format of
//! older builds, which this build refuses rather than migrates).
//!
//! 64-bit keys and digests are stored as hex **strings** (`"0x…"`), not
//! JSON numbers — the workspace's JSON numbers are `f64`, which holds only
//! 53 exact bits. See `docs/sweeps.md` for the schema.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use pobp_core::json::{obj, Json};
use pobp_engine::IoGuard;

use crate::shard::cut_torn_tail;

/// Schema version written by this build.
pub const MANIFEST_VERSION: u64 = 2;

/// The manifest file name inside the sweep directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Accounting for one completed chunk.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkRecord {
    /// The chunk's position in the plan.
    pub index: usize,
    /// The chunk's content key ([`ChunkPlan::key`](crate::plan::ChunkPlan)).
    pub key: u64,
    /// Complete rows in the shard file.
    pub rows: u64,
    /// Shard file length in bytes.
    pub bytes: u64,
    /// FNV-1a digest of the shard file's bytes.
    pub digest: u64,
}

impl ChunkRecord {
    /// The record's log line, without its newline.
    fn to_line(&self) -> String {
        obj([
            ("index", Json::Num(self.index as f64)),
            ("key", hex(self.key)),
            ("rows", Json::Num(self.rows as f64)),
            ("bytes", Json::Num(self.bytes as f64)),
            ("digest", hex(self.digest)),
        ])
        .to_string()
    }

    /// Parses one record line.
    fn parse(line: &str) -> Result<ChunkRecord, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let field = |name: &str| {
            doc.get(name).and_then(Json::as_u64).ok_or(format!("missing {name}"))
        };
        Ok(ChunkRecord {
            index: field("index")? as usize,
            key: hex_u64(doc.get("key"), "key")?,
            rows: field("rows")?,
            bytes: field("bytes")?,
            digest: hex_u64(doc.get("digest"), "digest")?,
        })
    }
}

/// The parsed (or to-be-written) checkpoint manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Schema version.
    pub version: u64,
    /// The canonical spec string ([`SweepSpec::spec_string`](crate::plan::SweepSpec)).
    pub spec: String,
    /// FNV-1a digest of `spec`.
    pub spec_digest: u64,
    /// Chunks in the full plan.
    pub chunks_total: usize,
    /// Completed chunks, in completion (= plan) order.
    pub done: Vec<ChunkRecord>,
}

impl Manifest {
    /// A fresh manifest for a new sweep.
    pub fn fresh(spec: String, spec_digest: u64, chunks_total: usize) -> Self {
        Manifest { version: MANIFEST_VERSION, spec, spec_digest, chunks_total, done: Vec::new() }
    }

    /// The completed chunk record for `index`, if any. Records are kept in
    /// plan order, so chunk `index` is the `index`-th record.
    pub fn record(&self, index: usize) -> Option<&ChunkRecord> {
        self.done.get(index).filter(|r| r.index == index)
    }

    /// Serializes to the whole log: the header line, then one line per
    /// record — the bytes an uninterrupted run leaves on disk.
    pub fn to_json(&self) -> String {
        let header = obj([
            ("version", Json::Num(self.version as f64)),
            ("spec", Json::Str(self.spec.clone())),
            ("spec_digest", hex(self.spec_digest)),
            ("chunks_total", Json::Num(self.chunks_total as f64)),
        ]);
        let mut out = format!("{header}\n");
        for r in &self.done {
            out.push_str(&r.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses a manifest log. A final line without its newline is a torn
    /// append and is dropped; every other defect is a structured error
    /// naming the line, never a panic — the input may be any bytes.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
        let mut lines = complete.split_terminator('\n');
        let header = lines.next().ok_or("manifest: no complete header line")?;
        let head = Json::parse(header).map_err(|e| format!("manifest line 1: {e}"))?;
        let version = head
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("manifest line 1: missing version")?;
        if version == 1 {
            return Err(format!(
                "manifest: version 1, the single-document checkpoint of an older build; \
                 this build reads version {MANIFEST_VERSION} only — re-run the sweep into \
                 a fresh directory"
            ));
        }
        if version != MANIFEST_VERSION {
            return Err(format!(
                "manifest: version {version} (this build reads {MANIFEST_VERSION})"
            ));
        }
        let spec = head
            .get("spec")
            .and_then(Json::as_str)
            .ok_or("manifest line 1: missing spec")?
            .to_string();
        let spec_digest = hex_u64(head.get("spec_digest"), "spec_digest")
            .map_err(|e| format!("manifest line 1: {e}"))?;
        let chunks_total = head
            .get("chunks_total")
            .and_then(Json::as_u64)
            .ok_or("manifest line 1: missing chunks_total")? as usize;
        let mut done = Vec::new();
        for (line_no, line) in (2..).zip(lines) {
            let rec = ChunkRecord::parse(line).map_err(|e| format!("manifest line {line_no}: {e}"))?;
            if rec.index != done.len() || rec.index >= chunks_total {
                return Err(format!(
                    "manifest line {line_no}: records chunk {}, but the next chunk in plan \
                     order is {} of {chunks_total}",
                    rec.index,
                    done.len(),
                ));
            }
            done.push(rec);
        }
        Ok(Manifest { version, spec, spec_digest, chunks_total, done })
    }

    /// The manifest path inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Loads and parses `dir`'s manifest; `Ok(None)` when the file does
    /// not exist, `Err` on unreadable or unparseable contents.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, String> {
        let path = Manifest::path(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        Manifest::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Atomically replaces `dir`'s manifest with this whole log (tmp →
    /// fsync → rename → directory fsync, through the fault-injectable
    /// `guard`). A sweep calls it once, to write a fresh manifest's header;
    /// records then go through [`append`](Manifest::append).
    pub fn write(&self, dir: &Path, guard: &IoGuard) -> io::Result<()> {
        guard.atomic_replace(&Manifest::path(dir), self.to_json().as_bytes())
    }

    /// Opens `dir`'s manifest for appending records, first cutting a torn
    /// final record back to the last newline (the rule
    /// [`recover`](crate::shard::recover) applies to shards).
    pub fn open_log(dir: &Path, guard: &IoGuard) -> io::Result<File> {
        let path = Manifest::path(dir);
        cut_torn_tail(&path)?;
        guard.open_append(&path)
    }

    /// Commits `rec`: appends its line to `log` (from
    /// [`open_log`](Manifest::open_log)) in one write, fsyncs it, then adds
    /// it to `done`. Record appends draw the guard's line-write and fsync
    /// fault sites. On error the log may end in a torn record, which the
    /// next [`load`](Manifest::load) drops.
    pub fn append(&mut self, log: &mut File, rec: ChunkRecord, guard: &IoGuard) -> io::Result<()> {
        debug_assert_eq!(rec.index, self.done.len(), "records are appended in plan order");
        guard.append_line(log, rec.to_line().as_bytes())?;
        guard.fsync(log)?;
        self.done.push(rec);
        Ok(())
    }
}

/// A `u64` as a `"0x…"` hex string of full width.
fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

/// Decodes a `"0x…"` hex-string field into a `u64`.
fn hex_u64(v: Option<&Json>, name: &str) -> Result<u64, String> {
    let s = v.and_then(Json::as_str).ok_or(format!("missing {name}"))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or(format!("{name} is not 0x-prefixed hex (got {s:?})"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("{name}: {e} (got {s:?})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            spec: "v1;ns=6;ks=0,1;seeds=0;alg=reduction;machines=1;exact_ref=false;chunk_cells=2"
                .into(),
            spec_digest: 0xdead_beef_0123_4567,
            chunks_total: 3,
            done: vec![
                ChunkRecord {
                    index: 0,
                    key: u64::MAX, // > 2^53: must survive the round-trip
                    rows: 12,
                    bytes: 1034,
                    digest: 0x8000_0000_0000_0001,
                },
                ChunkRecord { index: 1, key: 7, rows: 12, bytes: 998, digest: 42 },
            ],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("pobp-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn json_round_trips_including_full_width_keys() {
        let m = sample();
        let text = m.to_json();
        assert_eq!(text.lines().count(), 1 + m.done.len(), "a header, then one line per record");
        assert!(text.starts_with("{\"version\":2,\"spec\":"), "{text}");
        let parsed = Manifest::parse(&text).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.record(0).unwrap().key, u64::MAX);
        assert!(parsed.record(2).is_none());
    }

    #[test]
    fn a_torn_final_record_is_dropped() {
        let m = sample();
        let text = m.to_json();
        let last_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        // Every cut inside the last record, including the one that loses
        // only its newline, drops that record and keeps the rest.
        for cut in last_start..text.len() {
            let parsed = Manifest::parse(&text[..cut]).unwrap();
            assert_eq!(parsed.done, m.done[..1], "cut at {cut}");
        }
    }

    #[test]
    fn malformed_manifests_error_loudly() {
        assert!(Manifest::parse("").unwrap_err().contains("header"));
        assert!(Manifest::parse("{}\n").unwrap_err().contains("version"));
        let text = sample().to_json();
        let future = text.replace("\"version\":2", "\"version\":999");
        assert!(Manifest::parse(&future).unwrap_err().contains("999"));
        let bad_key = text.replace("0xffffffffffffffff", "ffff");
        let err = Manifest::parse(&bad_key).unwrap_err();
        assert!(err.contains("line 2") && err.contains("0x-prefixed"), "{err}");
        // A complete line that does not parse is not a torn tail.
        let garbled = text.replacen("{\"index\":1", "{\"index\":1,,", 1);
        assert!(Manifest::parse(&garbled).unwrap_err().contains("line 3"));
        // Records must come in plan order: no gap, no duplicate.
        let out_of_order = text.replacen("{\"index\":1", "{\"index\":2", 1);
        let err = Manifest::parse(&out_of_order).unwrap_err();
        assert!(err.contains("line 3") && err.contains("plan order"), "{err}");
        let duplicate = text.replacen("{\"index\":1", "{\"index\":0", 1);
        assert!(Manifest::parse(&duplicate).unwrap_err().contains("line 3"));
        // A record past the plan's end is not this sweep's.
        let mut long = sample();
        long.chunks_total = 1;
        assert!(Manifest::parse(&long.to_json()).unwrap_err().contains("line 3"));
    }

    #[test]
    fn a_version_1_document_is_refused() {
        let v1 = "{\"version\":1,\"spec\":\"v1;ns=6\",\"spec_digest\":\"0x0000000000000001\",\
                  \"chunks_total\":3,\"done\":[]}\n";
        let err = Manifest::parse(v1).unwrap_err();
        assert!(err.contains("version 1") && err.contains("fresh directory"), "{err}");
    }

    #[test]
    fn write_then_load_round_trips_on_disk() {
        let dir = tmpdir("log");
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let full = sample();
        let mut m = Manifest { done: Vec::new(), ..full.clone() };
        m.write(&dir, &IoGuard::inert()).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m.clone()));
        let mut log = Manifest::open_log(&dir, &IoGuard::inert()).unwrap();
        for rec in &full.done {
            m.append(&mut log, rec.clone(), &IoGuard::inert()).unwrap();
        }
        assert_eq!(m, full);
        assert_eq!(std::fs::read_to_string(Manifest::path(&dir)).unwrap(), full.to_json());

        // A torn record is cut before the next append lands.
        let path = Manifest::path(&dir);
        let mut text = full.to_json();
        text.push_str("{\"index\":2,\"key\":");
        std::fs::write(&path, &text).unwrap();
        let mut m = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(m, full);
        let mut log = Manifest::open_log(&dir, &IoGuard::inert()).unwrap();
        let rec = ChunkRecord { index: 2, key: 9, rows: 1, bytes: 2, digest: 3 };
        m.append(&mut log, rec, &IoGuard::inert()).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), m.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
