//@ crate: exec
//@ path: src/pool.rs
//! undocumented_unsafe_blocks: the pool still needs a SAFETY: comment.

/// Reads through a raw pointer.
pub fn documented(p: &u32) -> u32 {
    // SAFETY: the caller keeps `p` alive for the duration of the call.
    unsafe { std::ptr::read(p) }
}

/// Same read, no justification.
pub fn undocumented(p: &u32) -> u32 {
    unsafe { std::ptr::read(p) }
}
