//@ crate: tam
//@ path: src/danger.rs
//! unsafe_code: `unsafe` outside the sanctioned modules.

/// Reads the first element without a bounds check.
pub fn first(xs: &[u64]) -> u64 {
    // SAFETY: even with a comment, unsafe is not allowed here.
    unsafe { *xs.get_unchecked(0) }
}
