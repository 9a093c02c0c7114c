//! `--fix-stale-waivers` behavior: cut points are token-precise (a
//! string literal *containing* the waiver tag is never touched), and
//! the fix is idempotent — running it twice over the same tree leaves
//! every file byte-identical after the first pass. The same temp-dir
//! workspaces pin `check`'s failure modes: I/O errors name their path,
//! and a tree with no `.rs` file is an error, not a clean report.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use soctam_analyze::{fix_stale_waivers, run_check};

/// A fresh, empty temp dir for one test.
fn scratch_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("soctam-fix-waivers-{tag}"));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("mkdir");
    root
}

/// Builds a minimal single-member workspace under a fresh temp dir.
fn scratch_workspace(tag: &str, lib_rs: &str) -> PathBuf {
    let root = scratch_root(tag);
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
    run_check(root).expect("check run")
}

/// Runs the `soctam-analyze` binary; returns (exit code, stdout, stderr).
fn analyze_bin(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_soctam-analyze"))
        .args(args)
        .output()
        .expect("analyzer binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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

#[test]
fn io_errors_name_the_path_they_failed_on() {
    // A root with no Cargo.toml at all.
    let missing = scratch_root("no-manifest");
    let err = run_check(&missing).expect_err("no manifest");
    let manifest = missing.join("Cargo.toml");
    assert!(
        err.to_string().contains(&manifest.display().to_string()),
        "{err}"
    );
    let (code, _, stderr) = analyze_bin(&["check", "--root", missing.to_str().expect("utf-8")]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains(&manifest.display().to_string()), "{stderr}");

    // A member glob whose base directory does not exist.
    let root = scratch_root("missing-glob");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"nowhere/*\"]\n",
    )
    .expect("root manifest");
    let err = run_check(&root).expect_err("missing glob base");
    assert!(
        err.to_string()
            .contains(&root.join("nowhere").display().to_string()),
        "{err}"
    );

    let _ = fs::remove_dir_all(&missing);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_workspace_with_no_rs_files_is_an_error_not_clean() {
    let root = scratch_root("empty");
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("root manifest");
    let err = run_check(&root).expect_err("empty scan");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("no .rs files"), "{err}");
    let (code, stdout, stderr) = analyze_bin(&["check", "--root", root.to_str().expect("utf-8")]);
    assert_eq!(code, Some(2), "stdout: {stdout}");
    assert!(stdout.is_empty(), "no report for an empty scan: {stdout}");
    assert!(stderr.contains("no .rs files"), "{stderr}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn retired_cache_and_fan_out_flags_are_usage_errors() {
    let (code, help, _) = analyze_bin(&["--help"]);
    assert_eq!(code, Some(0));
    for flag in ["--jobs", "--cache-dir", "--no-cache"] {
        assert!(!help.contains(flag), "--help still lists {flag}");
    }
    for args in [
        &["check", "--jobs", "1"][..],
        &["check", "--cache-dir", "x"],
        &["check", "--no-cache"],
    ] {
        let (code, _, stderr) = analyze_bin(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.contains("unknown argument"), "{stderr}");
    }
}
