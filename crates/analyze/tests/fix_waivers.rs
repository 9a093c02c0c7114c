//! `--fix-stale-waivers` behavior: cut points are token-precise (a
//! string literal *containing* the waiver tag is never touched), and
//! the fix is idempotent — running it twice over the same tree leaves
//! every file byte-identical after the first pass.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use soctam_analyze::{engine, fix_stale_waivers, Options};

/// Builds a minimal single-member workspace under a fresh temp dir.
fn scratch_workspace(tag: &str, lib_rs: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("soctam-fix-waivers-{tag}"));
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/demo/src");
    fs::create_dir_all(&src).expect("mkdir");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/demo\"]\n",
    )
    .expect("root manifest");
    fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\n",
    )
    .expect("member manifest");
    fs::write(src.join("lib.rs"), lib_rs).expect("lib.rs");
    root
}

fn check(root: &Path) -> soctam_analyze::CheckReport {
    engine::run(
        root,
        &Options {
            jobs: 1,
            cache_dir: None,
        },
    )
    .expect("engine run")
}

#[test]
fn fixing_stale_waivers_twice_is_a_byte_level_noop() {
    // Three waivers: a stale one on its own line, a stale trailing one,
    // and a decoy — the waiver tag inside a string literal, which a
    // text-search fixer would garble.
    let root = scratch_workspace(
        "idempotent",
        "//! Demo crate.\n\
         \n\
         // soctam-analyze: allow(ARITH-01) -- stale: nothing fires here\n\
         pub fn quiet() -> u32 {\n\
             7 // soctam-analyze: allow(DET-03) -- stale trailing waiver\n\
         }\n\
         \n\
         /// Mentions the tag in a string, which must survive untouched.\n\
         pub fn decoy() -> &'static str {\n\
             \"// soctam-analyze: allow(ARITH-01) -- not a waiver\"\n\
         }\n",
    );
    let lib = root.join("crates/demo/src/lib.rs");

    let report = check(&root);
    assert_eq!(
        report.analysis.stale.len(),
        2,
        "both real waivers are stale"
    );

    let removed = fix_stale_waivers(&root, &report).expect("first fix");
    assert_eq!(removed, 2);
    let after_first = fs::read_to_string(&lib).expect("read back");
    assert!(
        !after_first.contains("// soctam-analyze: allow(DET-03)"),
        "trailing waiver removed"
    );
    assert!(
        after_first.contains("\"// soctam-analyze: allow(ARITH-01) -- not a waiver\""),
        "string-literal decoy untouched"
    );
    assert!(
        after_first.contains("\n7\n"),
        "code before the trailing waiver kept"
    );

    // Second run: nothing stale remains, fix must not rewrite anything.
    let report = check(&root);
    assert!(report.analysis.stale.is_empty());
    let removed = fix_stale_waivers(&root, &report).expect("second fix");
    assert_eq!(removed, 0);
    let after_second = fs::read_to_string(&lib).expect("read back");
    assert_eq!(
        after_first, after_second,
        "second run is a byte-level no-op"
    );

    let _ = fs::remove_dir_all(&root);
}
