//@ crate: tam
//@ path: src/rawstr.rs
//! Pins the lexer against phantom comments: the raw strings below
//! contain `//` and `/*`, which a comment-scanner bug would treat as
//! comment openers, swallowing the `f64` declaration that must
//! still produce DET-03.

/// A raw string whose body contains `//`.
pub fn doc_url() -> &'static str {
    r#"see https://example.com//docs"#
}

/// A raw string with a longer delimiter and an unbalanced `/*`.
pub fn tricky() -> &'static str {
    r##"quote "#end"# and /* half a block"##
}

use std::collections::BTreeMap;

/// DET-03 must still fire after the raw strings above.
pub fn leak() -> Vec<u32> {
    let m: BTreeMap<u32, f64> = BTreeMap::new();
    m.into_keys().collect()
}
