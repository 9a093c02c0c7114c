//! The `soctam-analyze` binary: `check` runs the analysis, `lints`
//! prints the registry.
//!
//! Exit codes (referenced by `ci/fault_smoke.sh`'s convention note):
//! `0` clean tree, `1` at least one unwaived finding, `2` usage or I/O
//! error, or a workspace with no `.rs` file to scan.
//!
//! Deliberately no wall-clock timing in here — the analyzer is subject
//! to its own DET lints; CI measures the budget with `time` instead.

use std::path::PathBuf;
use std::process::ExitCode;

use soctam_analyze::{fix_stale_waivers, render, run_check, Format, LINTS};

const USAGE: &str = "\
soctam-analyze — std-only interprocedural determinism & invariant analysis

USAGE:
    soctam-analyze check [--root DIR] [--format text|json] [--fix-stale-waivers]
    soctam-analyze lints
    soctam-analyze --help

Exit codes: 0 = clean, 1 = unwaived findings, 2 = usage/I/O error or
no .rs file found.
";

/// `--fix-stale-waivers` iterates to a fixpoint (removing a waiver can
/// expose another stale one on the line below); this caps the loop.
const MAX_FIX_ROUNDS: usize = 8;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("soctam-analyze: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut cmd = None;
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut fix = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" | "lints" if cmd.is_none() => cmd = Some(arg.as_str()),
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a value".to_string())?,
                );
            }
            "--format" => {
                format = match it
                    .next()
                    .ok_or_else(|| "--format needs a value".to_string())?
                    .as_str()
                {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--fix-stale-waivers" => fix = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    match cmd {
        Some("lints") => {
            for lint in LINTS {
                println!(
                    "{:<10} {:<8} {}\n{:>10} scope: {}",
                    lint.id,
                    lint.severity.name(),
                    lint.summary,
                    "",
                    lint.scope
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("check") => {
            let mut report = run_check(&root).map_err(|e| e.to_string())?;
            if fix {
                for _ in 0..MAX_FIX_ROUNDS {
                    if report.analysis.stale.is_empty() {
                        break;
                    }
                    let removed = fix_stale_waivers(&root, &report).map_err(|e| e.to_string())?;
                    eprintln!("soctam-analyze: removed {removed} stale waiver(s)");
                    report = run_check(&root).map_err(|e| e.to_string())?;
                    if removed == 0 {
                        break;
                    }
                }
            }
            print!("{}", render(&report, format));
            if report.analysis.findings.is_empty() {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(1))
            }
        }
        _ => Err("missing subcommand (try --help)".to_string()),
    }
}
