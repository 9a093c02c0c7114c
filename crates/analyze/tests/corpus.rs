//! Corpus harness: every fixture under `tests/corpus/` is analyzed in
//! isolation and must produce exactly the findings listed in its
//! companion `.findings` file.
//!
//! Fixtures declare their simulated location with two directives:
//!
//! ```text
//! //@ crate: tam
//! //@ path: src/foo.rs
//! ```
//!
//! Expected-findings files hold one `LINT-ID LINE` pair per line;
//! `#` comments and blank lines are ignored.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use soctam_analyze::{analyze, SourceFile};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn directive(source: &str, key: &str) -> String {
    let tag = format!("//@ {key}:");
    source
        .lines()
        .find_map(|l| l.strip_prefix(tag.as_str()))
        .unwrap_or_else(|| panic!("fixture missing `{tag}` directive"))
        .trim()
        .to_string()
}

fn parse_expected(text: &str) -> Vec<(String, usize)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (lint, line) = l.split_once(' ').expect("expected `LINT-ID LINE`");
            (lint.to_string(), line.trim().parse().expect("line number"))
        })
        .collect()
}

#[test]
fn corpus_fixtures_produce_expected_findings() {
    let mut fixtures: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 9,
        "corpus should cover every lint, found {} fixtures",
        fixtures.len()
    );

    for path in fixtures {
        let source = fs::read_to_string(&path).expect("fixture readable");
        let crate_dir = directive(&source, "crate");
        let rel_path = directive(&source, "path");
        let file = SourceFile {
            display_path: format!("crates/{crate_dir}/{rel_path}"),
            crate_dir,
            rel_path,
            source,
        };
        let analysis = analyze(std::slice::from_ref(&file));
        let got: Vec<(String, usize)> = analysis
            .findings
            .iter()
            .map(|f| (f.lint.to_string(), f.line))
            .collect();
        let expected =
            fs::read_to_string(path.with_extension("findings")).expect("companion .findings file");
        assert_eq!(
            got,
            parse_expected(&expected),
            "findings mismatch for {} (got: {:#?})",
            path.display(),
            analysis.findings
        );
    }
}

#[test]
fn waived_fixture_records_the_justification() {
    let path = corpus_dir().join("waived_clean.rs");
    let source = fs::read_to_string(&path).expect("fixture readable");
    let file = SourceFile {
        display_path: "crates/tam/src/waived.rs".to_string(),
        crate_dir: directive(&source, "crate"),
        rel_path: directive(&source, "path"),
        source,
    };
    let analysis = analyze(std::slice::from_ref(&file));
    assert!(analysis.findings.is_empty());
    assert_eq!(analysis.waived.len(), 1);
    assert_eq!(analysis.waived[0].lint, "ARITH-01");
    assert_eq!(
        analysis.waived[0].waiver_reason.as_deref(),
        Some("k is a rail count, bounded by the core count")
    );
}

#[test]
fn det10_fixture_reports_the_full_call_path() {
    let path = corpus_dir().join("det10_taint.rs");
    let source = fs::read_to_string(&path).expect("fixture readable");
    let file = SourceFile {
        display_path: "crates/serve/src/det10.rs".to_string(),
        crate_dir: directive(&source, "crate"),
        rel_path: directive(&source, "path"),
        source,
    };
    let analysis = analyze(std::slice::from_ref(&file));
    let det10 = analysis
        .findings
        .iter()
        .find(|f| f.lint == "DET-10")
        .expect("DET-10 finding");
    let funcs: Vec<&str> = det10.path.iter().map(|s| s.func.as_str()).collect();
    assert_eq!(
        funcs,
        ["fingerprint_job", "jitter", "now_ms", "stamp"],
        "source→sink evidence must walk the whole chain"
    );
    assert!(
        det10.path.len() >= 3,
        "the taint must cross at least two function boundaries"
    );
    assert_eq!(
        det10.path.last().expect("steps").line,
        12,
        "last step sits on the source"
    );
}
