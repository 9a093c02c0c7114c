//! Text and machine-readable (`soctam-analyze/3`) report rendering.
//!
//! Every interprocedural finding carries a `"path"` array of
//! `{fn, file, line}` hops (source → sink call-path evidence). v3 drops
//! v2's top-level `"cache"` hit/miss object along with the parse cache
//! it counted; the rest of the schema is unchanged.

use std::fmt::Write as _;

use crate::lints::{lint_info, Analysis, Finding, Severity, LINTS};
use crate::CheckReport;

/// Output format selected by `--format`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Human-readable, one finding per line (call paths indented).
    Text,
    /// The `soctam-analyze/3` JSON schema (the `soctam-bench/1`
    /// precedent: a top-level `schema` tag plus flat arrays).
    Json,
}

/// Renders the check report in the requested format.
#[must_use]
pub fn render(report: &CheckReport, format: Format) -> String {
    match format {
        Format::Text => render_text(report),
        Format::Json => render_json(report),
    }
}

fn render_text(report: &CheckReport) -> String {
    let analysis = &report.analysis;
    let mut out = String::new();
    for f in &analysis.findings {
        let sev = lint_info(f.lint).map_or("error", |l| l.severity.name());
        let _ = writeln!(out, "{sev}[{}] {}:{} {}", f.lint, f.file, f.line, f.message);
        for step in &f.path {
            let _ = writeln!(out, "    via {} ({}:{})", step.func, step.file, step.line);
        }
    }
    let errors = count(analysis, Severity::Error);
    let warnings = count(analysis, Severity::Warning);
    let _ = writeln!(
        out,
        "soctam-analyze: {} files scanned, {errors} errors, \
         {warnings} warnings, {} waived",
        report.files_scanned,
        analysis.waived.len()
    );
    out
}

fn count(analysis: &Analysis, sev: Severity) -> usize {
    analysis
        .findings
        .iter()
        .filter(|f| lint_info(f.lint).is_some_and(|l| l.severity == sev))
        .count()
}

fn render_json(report: &CheckReport) -> String {
    let analysis = &report.analysis;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"soctam-analyze/3\",\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    out.push_str("  \"lints\": [\n");
    for (i, l) in LINTS.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": {}, \"severity\": {}, \"summary\": {}}}",
            json_str(l.id),
            json_str(l.severity.name()),
            json_str(l.summary)
        );
        out.push_str(if i + 1 < LINTS.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    json_findings(&mut out, "findings", &analysis.findings);
    out.push_str(",\n");
    json_findings(&mut out, "waived", &analysis.waived);
    out.push_str(",\n");
    let _ = write!(
        out,
        "  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"waived\": {}}}\n}}",
        count(analysis, Severity::Error),
        count(analysis, Severity::Warning),
        analysis.waived.len()
    );
    out.push('\n');
    out
}

fn json_findings(out: &mut String, key: &str, findings: &[Finding]) {
    let _ = write!(out, "  \"{key}\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let sev = lint_info(f.lint).map_or("error", |l| l.severity.name());
        let _ = write!(
            out,
            "    {{\"lint\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"message\": {}",
            json_str(f.lint),
            json_str(sev),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        );
        if !f.path.is_empty() {
            out.push_str(", \"path\": [");
            for (j, step) in f.path.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"fn\": {}, \"file\": {}, \"line\": {}}}",
                    json_str(&step.func),
                    json_str(&step.file),
                    step.line
                );
            }
            out.push(']');
        }
        if let Some(reason) = &f.waiver_reason {
            let _ = write!(out, ", \"waiver_reason\": {}", json_str(reason));
        }
        out.push('}');
    }
    if findings.is_empty() {
        out.push(']');
    } else {
        out.push_str("\n  ]");
    }
}

/// Minimal JSON string escaping (the only non-trivial piece of the
/// schema; everything else is numbers and fixed keys).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::{Finding, PathStep};

    fn sample() -> CheckReport {
        CheckReport {
            files_scanned: 10,
            analysis: Analysis {
                findings: vec![
                    Finding {
                        lint: "DET-03",
                        file: "crates/x/src/a.rs".into(),
                        line: 3,
                        message: "a \"quoted\" hazard".into(),
                        waiver_reason: None,
                        path: Vec::new(),
                    },
                    Finding {
                        lint: "DET-10",
                        file: "crates/x/src/a.rs".into(),
                        line: 9,
                        message: "source reaches sink".into(),
                        waiver_reason: None,
                        path: vec![
                            PathStep {
                                func: "sinky".into(),
                                file: "crates/x/src/a.rs".into(),
                                line: 9,
                            },
                            PathStep {
                                func: "srcy".into(),
                                file: "crates/x/src/b.rs".into(),
                                line: 4,
                            },
                        ],
                    },
                ],
                waived: Vec::new(),
                stale: Vec::new(),
            },
        }
    }

    #[test]
    fn json_has_schema_tag_and_escapes() {
        let json = render(&sample(), Format::Json);
        assert!(json.contains("\"schema\": \"soctam-analyze/3\""));
        assert!(json.contains("a \\\"quoted\\\" hazard"));
        assert!(json.contains("\"files_scanned\": 10"));
        assert!(!json.contains("\"cache\""));
        assert!(json.contains(
            "\"path\": [{\"fn\": \"sinky\", \"file\": \"crates/x/src/a.rs\", \"line\": 9}, \
             {\"fn\": \"srcy\", \"file\": \"crates/x/src/b.rs\", \"line\": 4}]"
        ));
    }

    #[test]
    fn text_counts_errors_and_prints_paths() {
        let text = render(&sample(), Format::Text);
        assert!(text.contains("2 errors"));
        assert!(text.contains("DET-03"));
        assert!(text.contains("    via srcy (crates/x/src/b.rs:4)"));
        assert!(text.contains("soctam-analyze: 10 files scanned, 2 errors, 0 warnings, 0 waived"));
    }
}
