//! `soctam-exec` — the execution runtime underneath the SOC test
//! architecture optimizer.
//!
//! Everything in this crate is `std`-only: the workspace must build and
//! test with `--offline` and no registry cache, so the usual suspects
//! (`rayon`, `rand`, `rustc-hash`) are reimplemented here at the scale
//! this project needs.
//!
//! * [`pool`] — a work-stealing thread pool whose [`Pool::par_map`]
//!   guarantees **deterministic, thread-count-independent results**:
//!   output slot `i` always holds `f(item_i)`, and reductions happen in
//!   index order on the calling thread.
//! * [`rng`] — SplitMix64 + xoshiro256** seedable PRNG with
//!   [`Rng::derive`] for per-work-item independent streams.
//! * [`hash`] — an FxHash-style hasher used for cache keys and
//!   fingerprints.
//! * [`cache`] — a sharded memoization cache for expensive evaluations.
//! * [`metrics`] — atomic counters and phase timers surfaced by the CLI
//!   `--stats` flag.
//! * [`progress`] — shared progress state for long optimizer sweeps,
//!   polled by the CLI `--progress` stderr ticker.
//! * [`check`] — a miniature property-test harness used by the test
//!   suites (the `proptest` cargo feature raises the case counts; it
//!   adds no dependencies).
//! * [`fault`] — a deterministic failpoint registry
//!   (`SOCTAM_FAILPOINTS`) used to prove that every error path in the
//!   pipeline actually works.
//! * [`cancel`] — a sticky, cloneable [`CancelToken`] that lets job
//!   managers and signal handlers degrade running optimizations to
//!   their best-so-far result instead of dropping work.
//! * [`signal`] — a SIGTERM/SIGINT latch polled by the daemon so
//!   container stops drain like `/admin/shutdown`.

// The memo cache and the failpoint registry are hash maps keyed by
// fingerprint and site name: lookups only, and the one listing
// (`fault::configured_sites`) sorts its keys, so hash order never
// reaches a caller.
#![allow(clippy::disallowed_types)]

pub mod cache;
pub mod cancel;
pub mod check;
pub mod fault;
pub mod hash;
pub mod metrics;
// `pool` and `signal` hold the workspace's only unsafe code; every
// other module and crate is denied it (see `[lints]` in Cargo.toml).
// The pool spawns scoped worker threads over borrowed closures, which
// needs two lifetime-erasure sites, each with a SAFETY: argument.
#[allow(unsafe_code)]
pub mod pool;
pub mod progress;
pub mod rng;
// Registering a POSIX signal handler requires the libc `signal` FFI
// call; the handler body is a single atomic store (async-signal-safe)
// and each unsafe block carries a SAFETY argument.
#[allow(unsafe_code)]
pub mod signal;

pub use cache::{FpKey, MemoCache};
pub use cancel::CancelToken;
pub use fault::{FaultAction, FaultError, ScopedFault};
pub use hash::{fx_fingerprint128, fx_hash_one, Fingerprinter, FxBuildHasher, FxHasher};
pub use metrics::{Metrics, MetricsSnapshot};
pub use pool::Pool;
pub use progress::Progress;
pub use rng::Rng;
