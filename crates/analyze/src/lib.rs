//! `soctam-analyze` — a std-only, dependency-free static analysis
//! engine over the soctam workspace.
//!
//! The reproduction's headline guarantee — bit-identical
//! `T_soc = T_soc_in + T_soc_si` for any `--jobs`, any cache state and
//! any failpoint-inactive run — is enforced dynamically by golden and
//! property tests. This crate enforces it *statically*, at CI time. A
//! hand-rolled lexer (`lexer`) and recursive-descent parser (`ast`)
//! turn every `.rs` file into per-file facts (`facts`); an
//! over-approximate call graph (`graph`) links them; interprocedural
//! passes (`passes`) and token-level lints (`lints::LINTS`) flag
//! determinism and arithmetic hazards before they can reach an
//! evaluator run:
//!
//! | lint | hazard |
//! |------|--------|
//! | DET-03 | floats in cost/time math |
//! | DET-10 | nondeterministic source reaches a fingerprint/reduction/golden/journal sink through the call graph |
//! | ARITH-01 | truncating casts / unchecked `+`,`*` on test times |
//! | ARITH-02 | unchecked arithmetic on a quantity-returning call, interprocedurally |
//! | LOCK-01 | inconsistent lock acquisition order in `exec` |
//! | LOCK-02 | lock-order cycle through calls made while a lock is held |
//! | WAIVER-01 | stale/malformed waiver comments |
//!
//! Checks that the toolchain ships live there instead: `HashMap`,
//! `HashSet` and `RandomState` are clippy `disallowed_types`, the wall
//! clock and `thread::current` are `disallowed_methods` (both in the
//! root `clippy.toml`), and `unsafe` outside `exec::{pool, signal}` or
//! without a `SAFETY:` comment is `unsafe_code` plus
//! `clippy::undocumented_unsafe_blocks` from `[workspace.lints]`.
//!
//! A genuine exception carries a written waiver:
//!
//! ```text
//! // soctam-analyze: allow(ARITH-01) -- k is a rail count, bounded by the core count
//! ```
//!
//! `check` is one serial pass: [`workspace::collect_workspace`] reads
//! every `.rs` file, then [`analyze`] lexes, parses and lints them in
//! path order, so the report is a pure function of the tree. Run
//! `cargo run -p soctam-analyze -- check` (exit 0 only on a clean
//! tree), or `-- check --format json` for the `soctam-analyze/3`
//! machine-readable report. See DESIGN.md §13.

pub mod ast;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod passes;
pub mod report;
pub mod workspace;

use std::io;
use std::path::Path;

pub use lints::{analyze, Analysis, Finding, LintInfo, PathStep, Severity, SourceFile, LINTS};
pub use report::{render, Format};

/// Result of a full workspace check.
#[derive(Debug)]
pub struct CheckReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The findings, waivers and stale-waiver list.
    pub analysis: Analysis,
}

/// Runs the full pass over the workspace rooted at `root`.
///
/// # Errors
///
/// Propagates I/O failures from the workspace walk (each naming the
/// path it failed on), and reports a walk that found no `.rs` file as
/// [`io::ErrorKind::NotFound`]: an empty scan proves nothing clean.
pub fn run_check(root: &Path) -> io::Result<CheckReport> {
    let files = workspace::collect_workspace(root)?;
    if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{}: no .rs files found in the workspace members",
                root.display()
            ),
        ));
    }
    Ok(CheckReport {
        files_scanned: files.len(),
        analysis: analyze(&files),
    })
}

/// Removes the stale waiver comments listed in `report` from the files
/// on disk. Returns the number of waivers removed.
///
/// Cut points come from the lexer's comment-token spans, not from text
/// search, so a string literal that *contains* the waiver tag is never
/// truncated. A waiver that is the only content of its line removes
/// the whole line; a trailing waiver is trimmed back to the code
/// before it. Files are rewritten only when something changed, so a
/// second run over an already-fixed tree is a byte-level no-op.
///
/// # Errors
///
/// Propagates I/O failures reading or rewriting a file.
pub fn fix_stale_waivers(root: &Path, report: &CheckReport) -> io::Result<usize> {
    use std::collections::BTreeMap;
    let mut by_file: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for stale in &report.analysis.stale {
        by_file.entry(&stale.file).or_default().push(stale.line);
    }
    let mut removed = 0usize;
    for (file, lines) in by_file {
        let path = root.join(file);
        let source = std::fs::read_to_string(&path).map_err(|e| workspace::at(&path, e))?;
        // Byte offset where the waiver comment token starts, per line.
        let mut cut_at: BTreeMap<usize, usize> = BTreeMap::new();
        for tok in lexer::lex(&source) {
            if tok.kind == lexer::TokKind::LineComment
                && tok
                    .text
                    .trim_start_matches('/')
                    .trim_start()
                    .starts_with(lints::WAIVER_TAG)
            {
                cut_at.insert(tok.line, tok.lo);
            }
        }
        let mut text = String::with_capacity(source.len());
        let mut line_start = 0usize;
        for (idx, raw) in source.split_inclusive('\n').enumerate() {
            match cut_at.get(&(idx + 1)) {
                Some(&lo) if lines.contains(&(idx + 1)) => {
                    let kept = raw[..lo - line_start].trim_end();
                    removed += 1;
                    if !kept.is_empty() {
                        text.push_str(kept);
                        if raw.ends_with('\n') {
                            text.push('\n');
                        }
                    }
                }
                _ => text.push_str(raw),
            }
            line_start += raw.len();
        }
        if text != source {
            std::fs::write(&path, text).map_err(|e| workspace::at(&path, e))?;
        }
    }
    Ok(removed)
}
