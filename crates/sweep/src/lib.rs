//! # pobp-sweep — crash-safe, sharded, resumable grid sweeps
//!
//! `pobp sweep` streaming to stdout loses every completed row when the
//! process dies — fatal at mega-sweep scale, where interruption is the
//! common case. This crate is the durable sweep pipeline behind
//! `pobp sweep --out DIR` (see `docs/sweeps.md`):
//!
//! * [`plan`] — shards an `(n, k, seed)` grid into content-addressed
//!   chunks of whole `(n, seed)` cells (chunk keys fold the engine's
//!   [`task_key`](pobp_engine::task_key)s, spec strings are canonical and
//!   digested);
//! * [`rows`] — the one row formatter shared with the stdout path, so
//!   sharded and streaming sweeps emit byte-identical rows;
//! * [`shard`] — per-chunk `shard-NNNNN.jsonl` writers with running
//!   digests, plus the torn-tail recovery rule;
//! * [`manifest`] — the `manifest.json` checkpoint: an append-only log
//!   whose header is written once and which gains one fsynced record line
//!   per completed chunk;
//! * [`run`] — the orchestrator: fresh/resume validation, chunk-by-chunk
//!   execution, digest-verified skipping, tail healing, and the final
//!   digest-verified merge into `merged.jsonl`.
//!
//! Every durable write goes through the engine's fault-injectable
//! [`IoGuard`](pobp_engine::IoGuard); an armed seeded fault plan can fail
//! any write, fsync (file or directory), or rename deterministically, and
//! the property tests in `tests/` drive kill-at-every-point → resume →
//! byte-identical-merge, across engine thread counts.
//!
//! While `--obs` arms the obs aggregate the runner emits the `sweep.*`
//! counters (`sweep.rows_written`, `sweep.chunks_completed`) alongside the
//! `chaos.io.*` injection counters; see `docs/observability.md`. A watcher
//! follows a running sweep through `--progress`, or by counting
//! `manifest.json`'s record lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod plan;
pub mod rows;
pub mod run;
pub mod shard;

pub use manifest::{ChunkRecord, Manifest};
pub use plan::{ChunkPlan, SweepSpec};
pub use rows::format_row;
pub use run::{run_sweep, SweepConfig, SweepOutcome};
pub use shard::{recover, ShardState, ShardWriter};
