#![warn(missing_docs)]

//! `hetsched serve`: the campaign machinery as a long-running service.
//!
//! The crate turns the one-shot batch tool into a daemon: a hand-rolled
//! HTTP/1.1 server on [`std::net::TcpListener`] (the workspace is
//! offline/vendored, so no hyper) in front of a [`SchedulerService`]
//! that runs [`hetsched_core::Campaign`]s concurrently on a shared
//! worker pool. The transport, routing, and application layers are
//! deliberately separate modules so a real HTTP stack can replace
//! [`http`]/[`server`] later without touching [`service`]:
//!
//! - [`http`] — request/response framing only;
//! - [`router`] — path → [`router::Route`] mapping only;
//! - [`handlers`] — routes to service calls, errors to statuses;
//! - [`service`] — job registry, worker pool, fingerprint cache;
//! - [`wire`] — the versioned JSON bodies served over HTTP;
//! - [`client`] — a minimal blocking client for tests and CI probes.
//!
//! # Endpoints
//!
//! | Method   | Path                   | Body                                          |
//! |----------|------------------------|-----------------------------------------------|
//! | `POST`   | `/v1/jobs`             | [`wire::JobRequest`] → [`wire::JobCreated`]   |
//! | `GET`    | `/v1/jobs/{id}`        | [`wire::JobStatusBody`] (live progress)       |
//! | `GET`    | `/v1/jobs/{id}/report` | [`wire::JobReportBody`]; 404 + status earlier |
//! | `DELETE` | `/v1/jobs/{id}`        | cancels via `CancelToken`, returns status     |
//! | `GET`    | `/metrics`             | Prometheus text, aggregated across jobs       |
//! | `POST`   | `/v1/streams`          | [`wire::StreamRequest`] → [`wire::StreamCreated`] |
//! | `POST`   | `/v1/streams/{id}/tasks` | [`wire::StreamFeedRequest`] → [`wire::StreamStatusBody`] |
//! | `GET`    | `/v1/streams/{id}`     | [`wire::StreamStatusBody`] (committed totals) |
//! | `GET`    | `/v1/streams/{id}/timeline` | [`wire::StreamTimelineBody`] (full schedule) |
//!
//! Streams are the rolling-horizon online path: `POST /v1/streams` opens
//! (or resumes) a stream keyed by a client-chosen id, each
//! `POST /v1/streams/{id}/tasks` appends one arrival window and
//! synchronously commits every horizon the fed window covers, and the
//! status/timeline routes expose the committed schedule. Every feed and
//! commit is journalled to `stream-<id>.manifest.jsonl` under the state
//! directory, so a restarted daemon replays the manifest and resumes the
//! stream mid-flight, bit-identically (see
//! [`hetsched_core::StreamRunner`]).
//!
//! Jobs are cached keyed by the spec fingerprint (the same FNV-1a
//! fingerprint the manifest header carries), so a repeated identical
//! `POST /v1/jobs` returns the queued, running or finished job at once;
//! a job that failed or was cancelled gives way to a new one. The
//! daemon keeps the 256 most recently used settled jobs and the 8 most
//! recently used streams in memory, never dropping a queued or running
//! job or a stream a request holds. Per-job and per-stream manifests
//! under the state directory carry the rest: a job or stream dropped
//! from memory behaves exactly as after a daemon restart, and
//! resubmitting it replays its manifest through the ordinary resume
//! path.

pub mod client;
pub mod handlers;
pub mod http;
pub mod router;
pub mod server;
pub mod service;
pub mod wire;

pub use server::Server;
pub use service::{SchedulerService, ServeConfig};
