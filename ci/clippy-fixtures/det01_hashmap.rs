//@ crate: compaction
//@ path: src/det01.rs
//! disallowed_types: map iteration in a deterministic crate.
use std::collections::HashMap;

/// Counts duplicates; map iteration order leaks into the output.
pub fn tally(xs: &[u32]) -> Vec<(u32, u32)> {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for &x in xs {
        *counts.entry(x).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn maps_in_tests_are_fine() {
        let _ = std::collections::HashMap::<u32, u32>::new();
    }
}
