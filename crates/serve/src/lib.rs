//! `pobp-serve`: the persistent scheduling service — a line-protocol
//! daemon with a durable job registry on top of [`pobp_engine`].
//!
//! The batch engine answers "solve these cells, now, in this process". This
//! crate answers the operational questions around it: accepting named solve
//! jobs over a socket, queueing them under admission control, surviving
//! `kill -9` without losing an acknowledged job or a finished result, and
//! re-serving equal-keyed results instead of recomputing them. See
//! `docs/serve.md` for the protocol, the lifecycle diagram, and the
//! durability contract.
//!
//! Layering (each module only calls downward):
//!
//! * [`json`] — re-export of [`pobp_core::json`], the workspace's minimal
//!   total JSON parser/writer (it moved down to core so `pobp-sweep`'s
//!   checkpoint manifests share it).
//! * [`job`] — [`JobSpec`]/[`JobStatus`]: the job model and content key.
//! * [`registry`] — the event-sourced id → record map.
//! * [`journal`] — append-only persistence + snapshot compaction.
//! * [`service`] — admission, the priority queue, workers, per-job engines.
//! * [`proto`] — request lines → [`service`] calls → response lines.
//! * [`server`] / [`client`] — the TCP front end and its client.
//! * [`soak`] — the randomized invariant-checking harness
//!   (`pobp-client soak`).
//! * `telemetry` (`instrument` builds) — the live-telemetry glue: sampler
//!   options, the Prometheus scrape listener, flight dumps
//!   (docs/observability.md).

pub mod client;
pub mod job;
pub mod journal;
pub use pobp_core::json;
pub mod proto;
pub mod registry;
pub mod server;
pub mod service;
pub mod soak;
#[cfg(feature = "instrument")]
pub mod telemetry;

pub use client::Client;
pub use job::{JobSpec, JobStatus};
pub use journal::{replay_dir, Journal, RecoveryReport};
pub use registry::{Event, JobRecord, Registry};
pub use server::run_server;
pub use service::{CancelOutcome, Service, ServiceConfig, SubmitOutcome};
pub use soak::{run_soak, SoakConfig, SoakReport};
#[cfg(feature = "instrument")]
pub use telemetry::{spawn_metrics_listener, TelemetryOptions};
