//@ crate: patterns
//@ path: src/det02.rs
//! disallowed_methods: wall clock and thread identity.

/// Seeds from the clock and the worker id: nondeterministic twice over.
pub fn bad_seed() -> u64 {
    let t = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let id = std::thread::current().id();
    let _ = (t, id);
    0
}
