//@ crate: tam
//@ path: src/waivers.rs
//! WAIVER-01: stale, malformed and unknown-lint waivers.

// soctam-analyze: allow(DET-03) -- stale: nothing below uses a float
/// Does nothing float-related.
pub fn quiet() {}

// soctam-analyze: allow(DET-03)
/// Missing the `-- reason` clause.
pub fn missing_reason() {}

// soctam-analyze: allow(NOPE-99) -- no lint has this id
/// Unknown lint id.
pub fn unknown() {}
