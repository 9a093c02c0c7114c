//! Property test: the JSON parser survives hostile inputs.
//!
//! Deterministic byte-level fuzzing (fixed seeds, splitmix64 stream — no
//! RNG dependency) of valid documents: random mutations must never
//! panic, and every document the parser accepts must render to text
//! that parses back to the same value.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam_registry::{standard_registry, Json};

/// splitmix64 — the same generator the optimizer uses for deterministic
/// shuffles; good enough for byte fuzzing, zero dependencies.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bytes that steer mutations into the grammar's corners: number
/// syntax, string escapes and structure.
const GRAMMAR: &[u8] = b"0123456789.eE+-\"\\u/[]{}:, \nntf";

/// Valid seed documents: hand-written corners plus the registry's own
/// schema (the largest document the daemon serves).
fn corpus() -> Vec<String> {
    vec![
        r#"{"soc":"d695","params":{"patterns":100,"width":8,"backend":"tr-architect"}}"#.to_owned(),
        r#"[0,-0,1,-12,0.5,-0.25e-3,1E+2,1.5e308,123456789012345678901234567890,null,true]"#
            .to_owned(),
        r#"{"s":"a\"b\\c\/d\b\f\n\r\t\u0001\u00e9\ud83d\ude00","nested":[[[{"k":[]}]]],"e":{}}"#
            .to_owned(),
        standard_registry().schema().render(),
    ]
}

/// Parses `text`; an accepted document must survive render → parse.
fn check(text: &str) {
    if let Ok(value) = Json::parse(text) {
        let rendered = value.render();
        let reparsed = Json::parse(&rendered)
            .unwrap_or_else(|e| panic!("rendered `{rendered}` of `{text}` fails to parse: {e}"));
        assert_eq!(reparsed, value, "`{text}` renders to `{rendered}`");
    }
}

#[test]
fn seed_documents_round_trip() {
    for doc in corpus() {
        let value = Json::parse(&doc).expect("seed document is valid");
        assert_eq!(Json::parse(&value.render()), Ok(value));
    }
}

#[test]
fn random_mutations_never_panic_and_accepted_documents_round_trip() {
    for (i, doc) in corpus().iter().enumerate() {
        let bytes = doc.as_bytes();
        let mut state = 0x0B5E_55ED ^ (i as u64);
        for _ in 0..2_000 {
            let mut mutated = bytes.to_vec();
            let edits = 1 + (splitmix(&mut state) % 4) as usize;
            for _ in 0..edits {
                let pos = (splitmix(&mut state) as usize) % (mutated.len() + 1);
                let grammar = GRAMMAR[(splitmix(&mut state) as usize) % GRAMMAR.len()];
                match splitmix(&mut state) % 4 {
                    0 => mutated.insert(pos, grammar),
                    1 if pos < mutated.len() => mutated[pos] = grammar,
                    2 if pos < mutated.len() => {
                        mutated.remove(pos);
                    }
                    _ if pos < mutated.len() => mutated[pos] = (splitmix(&mut state) & 0xff) as u8,
                    _ => mutated.push(grammar),
                }
            }
            // Lossy conversion keeps invalid UTF-8 in play as U+FFFD.
            check(&String::from_utf8_lossy(&mutated));
        }
    }
}

#[test]
fn truncations_never_panic() {
    for doc in corpus() {
        for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
            check(&doc[..end]);
        }
    }
}
