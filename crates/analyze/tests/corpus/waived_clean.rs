//@ crate: tam
//@ path: src/waived.rs
//! A correctly waived ARITH-01 finding: no unwaived findings at all.

/// Narrows a rail index; rail counts are bounded by the core count.
pub fn rail_id(k: usize) -> u32 {
    // soctam-analyze: allow(ARITH-01) -- k is a rail count, bounded by the core count
    k as u32
}
