//! Property test: journal replay survives a damaged file.
//!
//! Deterministic byte-level fuzzing (fixed seed, splitmix64 stream — no
//! RNG dependency) of a real three-record journal whose payloads carry
//! multi-byte UTF-8: every truncation and a seeded run of byte flips
//! must open without an error or a panic, replay only records that
//! were written, and leave a file whose torn tail is gone on the next
//! open.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use soctam_registry::Json;
use soctam_serve::journal::{Journal, Replay};

/// splitmix64 — the same generator the optimizer uses for deterministic
/// shuffles; good enough for byte fuzzing, zero dependencies.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "soctam-journal-fuzz-{name}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Three records with 2-, 3- and 4-byte characters in their strings.
fn originals() -> Vec<Json> {
    vec![
        Json::obj(vec![
            ("rec", Json::str("submitted")),
            ("soc", Json::str("Δ-d695")),
        ]),
        Json::obj(vec![
            ("rec", Json::str("started")),
            ("note", Json::str("日本語 émigré")),
        ]),
        Json::obj(vec![
            ("rec", Json::str("done")),
            ("tag", Json::str("🦀 T_soc")),
        ]),
    ]
}

/// The on-disk bytes of a journal holding `records`.
fn journal_bytes(path: &Path, records: &[Json]) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    {
        let (journal, _) = Journal::open(path).expect("fresh journal opens");
        for record in records {
            journal.append(record, true).expect("append");
        }
    }
    std::fs::read(path).expect("read journal")
}

/// Writes `damaged`, opens it twice and checks the replay contract;
/// returns the first replay.
fn open_damaged(path: &Path, damaged: &[u8], originals: &[Json], what: &str) -> Replay {
    std::fs::write(path, damaged).expect("write damaged journal");
    let (journal, replay) =
        Journal::open(path).unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
    drop(journal);
    for record in &replay.records {
        assert!(
            originals.contains(record),
            "{what}: replayed a record that was never written: {record:?}"
        );
    }
    let (_, again) = Journal::open(path).unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    assert!(
        !again.torn_tail,
        "{what}: torn tail survived the first open"
    );
    assert_eq!(
        again.records, replay.records,
        "{what}: reopen changed the replay"
    );
    replay
}

#[test]
fn every_truncation_replays_a_prefix_of_the_records() {
    let path = temp_path("truncate");
    let originals = originals();
    let bytes = journal_bytes(&path, &originals);
    assert!(!bytes.is_ascii(), "payloads must carry multi-byte UTF-8");
    for end in 0..=bytes.len() {
        let what = format!("truncated at byte {end}");
        let replay = open_damaged(&path, &bytes[..end], &originals, &what);
        let complete = bytes[..end].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(replay.records, originals[..complete], "{what}");
        assert_eq!(replay.corrupt, 0, "{what}");
        assert_eq!(
            replay.torn_tail,
            bytes[..end].last().is_some_and(|&b| b != b'\n'),
            "{what}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn seeded_byte_flips_never_fail_the_open() {
    let path = temp_path("flip");
    let originals = originals();
    let bytes = journal_bytes(&path, &originals);
    let mut state = 0x0BAD_5EED ^ bytes.len() as u64;
    for round in 0..400 {
        let mut damaged = bytes.clone();
        let flips = 1 + (splitmix(&mut state) % 4) as usize;
        for _ in 0..flips {
            let pos = (splitmix(&mut state) as usize) % damaged.len();
            damaged[pos] = (splitmix(&mut state) & 0xff) as u8;
        }
        open_damaged(&path, &damaged, &originals, &format!("flip round {round}"));
    }
    let _ = std::fs::remove_file(&path);
}
