//! `soctam-serve` — the multi-tenant optimization daemon.
//!
//! A long-running HTTP/1.1 service exposing the same schema-driven tool
//! registry the `soctam` CLI is generated from
//! ([`soctam_registry::standard_registry`]); a tool invoked over HTTP
//! returns the byte-identical report the CLI prints. Std-only by
//! workspace policy: hand-rolled HTTP framing and JSON, no third-party
//! dependencies.
//!
//! Endpoints:
//!
//! | route | purpose |
//! |-------|---------|
//! | `GET /v1/tools` | the registry schema (names, summaries, typed params) |
//! | `POST /v1/tools/<name>` | run a tool: `{"soc": "d695", "params": {...}, "deadline_ms": 500}` |
//! | `POST /v1/jobs` | enqueue a tool run: `{"tool": "optimize", "request": {...}}` → 202 + job ID |
//! | `GET /v1/jobs` | summary of every known job |
//! | `GET /v1/jobs/<id>` | job status, progress checkpoint and (once terminal) the result |
//! | `DELETE /v1/jobs/<id>` | cooperative cancel: degrades a running job to best-so-far |
//! | `GET /metrics` | server, job, cache and pool counters as JSON |
//! | `GET /healthz` | liveness and in-flight gauge |
//! | `POST /admin/shutdown` | graceful stop (drains the queue, degrades running jobs) |
//!
//! Multi-tenant means shared, bounded resources: one worker [`Pool`]
//! (total parallelism = `--jobs`, whatever the request mix), one warm
//! [`EvalCache`] keyed by context-mixed fingerprints (cross-request
//! hits are safe across different SOCs and budgets), `--max-inflight`
//! admission control with structured `429` rejections carrying
//! `Retry-After`, and per-request `deadline_ms` budgets that degrade to
//! best-so-far results instead of failing.
//!
//! Resilience: the async job subsystem has a bounded FIFO, cooperative
//! cancellation tokens and an optional write-ahead [`journal`] —
//! acknowledged terminal outcomes survive `kill -9`, and interrupted
//! jobs re-run to bit-identical results on restart (the whole pipeline
//! is deterministic). [`client::request_with_retry`] gives clients
//! deterministic seeded backoff against 429/503 pacing.
//!
//! [`Pool`]: soctam::Pool
//! [`EvalCache`]: soctam::EvalCache

pub mod client;
pub mod http;
mod job;
pub mod journal;
mod server;

pub use server::{RecoverMode, ServeError, Server, ServerConfig};
