//! Minimal POSIX termination-signal latch for daemon processes.
//!
//! Containers stop services with SIGTERM (and interactive users with
//! SIGINT); a daemon that only shuts down via its HTTP endpoint loses
//! in-flight work on every `docker stop`. This module installs
//! async-signal-safe handlers that do nothing but set a process-global
//! atomic flag; the daemon's accept loop polls
//! [`terminate_requested`] and runs the exact same drain path as
//! `POST /admin/shutdown`.
//!
//! The handler body is a single relaxed store to a `static AtomicBool`
//! — the only kind of work that is async-signal-safe — so it can never
//! deadlock or allocate inside the interrupted thread.
//!
//! On non-Unix targets [`install_terminate_handlers`] is a no-op and
//! the flag can only be raised programmatically (useful in tests via
//! [`raise_terminate`]).

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-global "a termination signal arrived" latch.
static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod unix {
    use std::sync::atomic::Ordering;

    /// `SIGINT` — interactive interrupt (Ctrl-C).
    const SIGINT: i32 = 2;
    /// `SIGTERM` — polite termination request (`kill`, container stop).
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`. The handler is passed as a raw function
        /// pointer (usize-compatible on every supported Unix ABI).
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The installed handler: one atomic store, nothing else. Relaxed
    /// is enough — the poll site only needs eventual visibility, and a
    /// signal handler must not take locks or allocate.
    extern "C" fn on_terminate(_signum: i32) {
        super::TERMINATE.store(true, Ordering::Relaxed);
    }

    pub(super) fn install() {
        // SAFETY: `signal(2)` with a non-NULL handler is safe to call
        // from any thread; `on_terminate` is an `extern "C" fn(i32)`
        // whose body is a single atomic store, which is on the
        // async-signal-safe list. Casting the fn pointer through usize
        // matches the platform's sighandler_t representation.
        let handler = on_terminate as *const () as usize;
        // SAFETY: see above; the two calls are independent.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Installs SIGINT/SIGTERM handlers that latch [`terminate_requested`].
///
/// Idempotent; call once from `main` before entering the accept loop.
/// No-op on non-Unix targets.
pub fn install_terminate_handlers() {
    #[cfg(unix)]
    unix::install();
}

/// True once a termination signal (or [`raise_terminate`]) arrived.
pub fn terminate_requested() -> bool {
    TERMINATE.load(Ordering::Relaxed)
}

/// Raises the termination latch programmatically (tests, non-Unix).
pub fn raise_terminate() {
    TERMINATE.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_raises_programmatically() {
        // Process-global state: this test only asserts the latch is
        // observable after raising, never that it starts clear (another
        // test or a real signal may have raised it already).
        install_terminate_handlers();
        raise_terminate();
        assert!(terminate_requested());
    }
}
