//! `soctam report <FILE>`: regenerates the tool-output sections of a
//! Markdown document in place.
//!
//! A section is a marker comment naming a `soctam` command, directly
//! followed by a `text` fence that holds that command's verbatim output:
//!
//! ````text
//! <!-- soctam: table d695 --patterns 500 --widths 8,16 -->
//! ```text
//! (output of `soctam table d695 --patterns 500 --widths 8,16`)
//! ```
//! ````
//!
//! `report` first checks every marker against the registry schemas, then
//! runs each command through the same path as the command line and
//! replaces the fence bodies. Any error leaves the file untouched, and a
//! second run on a fresh document rewrites nothing, so a checked-in
//! document is verified by `soctam report FILE && git diff --exit-code`.

use crate::{execute, parse, CliError, Invocation};

/// One-line summary for the top-level usage text.
pub(crate) const SUMMARY: &str =
    "regenerate the `<!-- soctam: ... -->` sections of a Markdown file";

const MARKER_OPEN: &str = "<!-- soctam:";
const MARKER_CLOSE: &str = "-->";
const FENCE_OPEN: &str = "```text";
const FENCE_CLOSE: &str = "```";

/// A checked marker and the fence it owns.
struct Section {
    /// 1-based line of the marker, for error messages.
    line: usize,
    /// The command line after `soctam`.
    args: Vec<String>,
    invocation: Invocation,
    /// 0-based line indices of the fence body.
    body: std::ops::Range<usize>,
}

/// The `report` subcommand: `args` is everything after `report`.
pub(crate) fn run(args: &[String]) -> Result<String, CliError> {
    let [path] = args else {
        return Err(CliError::usage(format!(
            "`report` takes exactly one FILE argument\n\nUSAGE:\n    soctam report <FILE>    {SUMMARY}\n"
        )));
    };
    if path == "--help" || path == "-h" {
        return Err(CliError {
            message: format!("soctam report — {SUMMARY}\n\nUSAGE:\n    soctam report <FILE>\n"),
            code: 0,
        });
    }
    let text = std::fs::read_to_string(path).map_err(|e| CliError {
        message: format!("cannot read `{path}`: {e}"),
        code: 1,
    })?;
    let (rendered, sections, rewritten) = render(&text, path)?;
    if rewritten > 0 {
        std::fs::write(path, rendered).map_err(|e| CliError {
            message: format!("cannot write `{path}`: {e}"),
            code: 1,
        })?;
    }
    Ok(format!(
        "{path}: {sections} sections, {rewritten} rewritten\n"
    ))
}

/// Checks every marker of `text` against the registry schemas without
/// running anything; returns the number of sections. `origin` names the
/// document in error messages.
///
/// # Errors
///
/// [`CliError`] naming the marker's line: an unterminated marker, a
/// missing or unclosed fence, a nested `report`, an unknown tool, SOC or
/// flag, or a flag whose output depends on the wall clock.
pub fn check(text: &str, origin: &str) -> Result<usize, CliError> {
    let lines: Vec<&str> = text.split('\n').collect();
    Ok(sections(&lines, origin)?.len())
}

/// Runs every section of `text` and returns the regenerated document,
/// the number of sections and how many of them changed.
fn render(text: &str, origin: &str) -> Result<(String, usize, usize), CliError> {
    let lines: Vec<&str> = text.split('\n').collect();
    let sections = sections(&lines, origin)?;
    let count = sections.len();
    let mut outputs = Vec::with_capacity(count);
    for section in sections {
        let output =
            execute(section.invocation).map_err(|e| at(origin, section.line, &section.args, e))?;
        outputs.push((section.body, output));
    }
    let mut out: Vec<&str> = Vec::with_capacity(lines.len());
    let mut next = 0;
    let mut rewritten = 0;
    for (body, output) in &outputs {
        out.extend_from_slice(&lines[next..body.start]);
        let fresh: Vec<&str> = match output.strip_suffix('\n').unwrap_or(output) {
            "" => Vec::new(),
            trimmed => trimmed.split('\n').collect(),
        };
        if fresh[..] != lines[body.clone()] {
            rewritten += 1;
        }
        out.extend(fresh);
        next = body.end;
    }
    out.extend_from_slice(&lines[next..]);
    Ok((out.join("\n"), count, rewritten))
}

/// Finds and checks every section of the document.
fn sections(lines: &[&str], origin: &str) -> Result<Vec<Section>, CliError> {
    let mut found = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let Some(rest) = lines[i].trim().strip_prefix(MARKER_OPEN) else {
            i += 1;
            continue;
        };
        let line = i + 1;
        let fail = |message: String| CliError {
            message: format!("{origin}:{line}: {message}"),
            code: 2,
        };
        let Some(command) = rest.strip_suffix(MARKER_CLOSE) else {
            return Err(fail(format!(
                "marker is not closed by `{MARKER_CLOSE}` on the same line"
            )));
        };
        let args: Vec<String> = command.split_whitespace().map(str::to_owned).collect();
        if args.first().map(String::as_str) == Some("report") {
            return Err(fail(String::from("a `report` section cannot run `report`")));
        }
        let invocation = parse(&args).map_err(|e| at(origin, line, &args, e))?;
        for flag in ["stats", "deadline-ms"] {
            if invocation.params.was_explicit(flag) {
                return Err(fail(format!(
                    "`--{flag}` depends on the wall clock, so its output cannot be checked"
                )));
            }
        }
        if lines.get(i + 1).map(|l| l.trim_end()) != Some(FENCE_OPEN) {
            return Err(fail(format!(
                "marker is not directly followed by a `{FENCE_OPEN}` fence"
            )));
        }
        let start = i + 2;
        let Some(len) = lines[start..]
            .iter()
            .position(|l| l.trim_end() == FENCE_CLOSE)
        else {
            return Err(fail(String::from(
                "the fence under this marker is never closed",
            )));
        };
        found.push(Section {
            line,
            args,
            invocation,
            body: start..start + len,
        });
        i = start + len + 1;
    }
    Ok(found)
}

/// Prefixes a command's error with the marker that named it. Command
/// help (exit 0) is not output a section can hold, so it becomes a
/// usage error.
fn at(origin: &str, line: usize, args: &[String], err: CliError) -> CliError {
    CliError {
        message: format!(
            "{origin}:{line}: `soctam {}`: {}",
            args.join(" "),
            err.message.trim_end()
        ),
        code: if err.code == 0 { 2 } else { err.code },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "table d695 --patterns 150 --widths 8 --parts 1,2";
    const COMPACT: &str = "compact d695 --patterns 200 --partitions 2";

    fn output(command: &str) -> String {
        let args: Vec<String> = command.split_whitespace().map(str::to_owned).collect();
        crate::run(&args).expect("runs")
    }

    /// A document with a stale body under each marker.
    fn stale_doc() -> String {
        format!(
            "# Tiny\n\nProse.\n\n<!-- soctam: {TABLE} -->\n```text\nstale\n```\n\n\
             More prose.\n<!-- soctam: {COMPACT} -->\n```text\n```\n"
        )
    }

    fn fresh_doc() -> String {
        format!(
            "# Tiny\n\nProse.\n\n<!-- soctam: {TABLE} -->\n```text\n{}```\n\n\
             More prose.\n<!-- soctam: {COMPACT} -->\n```text\n{}```\n",
            output(TABLE),
            output(COMPACT)
        )
    }

    fn temp_file(name: &str, text: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("soctam_report_{name}_{}.md", std::process::id()));
        std::fs::write(&path, text).expect("temp dir is writable");
        path.to_string_lossy().into_owned()
    }

    fn report(path: &str) -> Result<String, CliError> {
        crate::run(&[String::from("report"), path.to_owned()])
    }

    #[test]
    fn stale_sections_are_regenerated_and_prose_is_kept() {
        let (rendered, sections, rewritten) = render(&stale_doc(), "doc").expect("renders");
        assert_eq!((sections, rewritten), (2, 2));
        assert_eq!(rendered, fresh_doc());
    }

    #[test]
    fn fresh_document_round_trips_unchanged() {
        let fresh = fresh_doc();
        let path = temp_file("fresh", &fresh);
        let summary = report(&path).expect("runs");
        assert!(
            summary.ends_with(": 2 sections, 0 rewritten\n"),
            "{summary}"
        );
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), fresh);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn one_cell_edit_is_rewritten() {
        let fresh = fresh_doc();
        let table = output(TABLE);
        let last_row = table.lines().last().expect("a data row");
        let mut cells: Vec<&str> = last_row.split_whitespace().collect();
        let edited_cell = format!("{}1", cells[1]);
        cells[1] = &edited_cell;
        let edited_row = cells.join(" ");
        let edited = fresh.replacen(last_row, &edited_row, 1);
        assert_ne!(edited, fresh);
        let path = temp_file("edit", &edited);
        let summary = report(&path).expect("runs");
        assert!(
            summary.ends_with(": 2 sections, 1 rewritten\n"),
            "{summary}"
        );
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), fresh);
        let _ = std::fs::remove_file(&path);
    }

    /// Every malformed document fails with the marker's line and code,
    /// and the file is left exactly as it was.
    #[test]
    fn bad_markers_are_structured_errors_and_leave_the_file_untouched() {
        let cases: [(&str, String, i32, &str); 7] = [
            (
                "unknown-tool",
                format!("<!-- soctam: {COMPACT} -->\n```text\n```\n\n<!-- soctam: frobnicate d695 -->\n```text\n```\n"),
                2,
                ":5: `soctam frobnicate d695`: unknown command",
            ),
            (
                "bad-flag",
                String::from("x\n<!-- soctam: table d695 --bogus 1 -->\n```text\n```\n"),
                2,
                ":2: `soctam table d695 --bogus 1`: unknown option",
            ),
            (
                "bad-soc",
                String::from("<!-- soctam: info /nonexistent/x.soc -->\n```text\n```\n"),
                1,
                ":1: `soctam info /nonexistent/x.soc`: cannot read",
            ),
            (
                "no-fence",
                String::from("a\nb\n<!-- soctam: info d695 -->\n\n```text\n```\n"),
                2,
                ":3: marker is not directly followed",
            ),
            (
                "unclosed",
                String::from("<!-- soctam: info d695 -->\n```text\nd695\n"),
                2,
                ":1: the fence under this marker is never closed",
            ),
            (
                "nested",
                String::from("<!-- soctam: report other.md -->\n```text\n```\n"),
                2,
                ":1: a `report` section cannot run `report`",
            ),
            (
                "clock",
                String::from("<!-- soctam: compact d695 --stats -->\n```text\n```\n"),
                2,
                ":1: `--stats` depends on the wall clock",
            ),
        ];
        for (name, text, code, needle) in cases {
            let path = temp_file(name, &text);
            let err = report(&path).expect_err(name);
            assert_eq!(err.code, code, "{name}: {}", err.message);
            assert!(
                err.message.starts_with(&path) && err.message.contains(needle),
                "{name}: {}",
                err.message
            );
            assert_eq!(
                std::fs::read_to_string(&path).expect("readable"),
                text,
                "{name}: file must be untouched"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn report_takes_exactly_one_path() {
        assert_eq!(crate::run(&[String::from("report")]).unwrap_err().code, 2);
        let err = report("/nonexistent/doc.md").unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot read"), "{}", err.message);
    }
}
