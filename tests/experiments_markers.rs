//! Every generated section of `EXPERIMENTS.md` names a command the tool
//! registry accepts. The markers are only parsed here, never run; CI runs
//! `soctam report EXPERIMENTS.md` and fails on any diff.

use std::fs;
use std::path::Path;

#[test]
fn every_experiments_marker_parses_against_the_registry() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let text = fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let sections = soctam_cli::report::check(&text, "EXPERIMENTS.md")
        .unwrap_or_else(|err| panic!("{}", err.message));
    // The paper's Tables 2 and 3, at both pattern counts, are generated.
    for soc in ["p34392", "p93791"] {
        for patterns in ["10000", "100000"] {
            let marker = format!("<!-- soctam: table {soc} --patterns {patterns} -->");
            assert!(text.contains(&marker), "missing `{marker}`");
        }
    }
    assert!(sections >= 4, "only {sections} generated sections");
}
