//! The lint registry and the analysis engine.
//!
//! Every lint has a stable ID, a severity and a crate scope tuned to
//! this workspace's real hazards (see `LINTS`). Findings are produced
//! per file and then matched against *waivers* — structured comments of
//! the form
//!
//! ```text
//! // soctam-analyze: allow(ARITH-01) -- <written justification>
//! // soctam-analyze: allow-file(DET-03) -- <written justification>
//! ```
//!
//! A line waiver silences findings on its own line or the line directly
//! below (comment-above-code style); a file waiver silences one lint
//! for the whole file. A waiver that silences nothing is itself a
//! finding (**WAIVER-01**), so the waiver list cannot rot.

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};

/// Finding severity. Both fail the run; `Warning` marks hygiene lints
/// (stale waivers) as opposed to determinism/soundness hazards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Determinism / soundness hazard.
    Error,
    /// Hygiene problem (e.g. a stale waiver).
    Warning,
}

impl Severity {
    /// Lower-case name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// A registered lint.
#[derive(Clone, Copy, Debug)]
pub struct LintInfo {
    /// Stable ID (`DET-03`, ...). Never renumbered; retired IDs are not
    /// reused.
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// One-line summary for `soctam-analyze lints` and the docs.
    pub summary: &'static str,
    /// Human description of where it applies.
    pub scope: &'static str,
}

/// The lint registry. Adding a lint means adding a row here plus a
/// `match` arm in [`analyze`] — see DESIGN.md §13.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "DET-03",
        severity: Severity::Error,
        summary: "float types or literals in cost/time math (paper arithmetic \
                  is integral u64)",
        scope: "src/ of tam, wrapper, tester",
    },
    LintInfo {
        id: "ARITH-01",
        severity: Severity::Error,
        summary: "bare narrowing `as` cast, or unchecked +/* on a test-time \
                  quantity (use the saturating helpers)",
        scope: "src/ of tam, wrapper",
    },
    LintInfo {
        id: "LOCK-01",
        severity: Severity::Error,
        summary: "inconsistent pairwise Mutex/RwLock acquisition order across \
                  functions",
        scope: "src/ of exec",
    },
    LintInfo {
        id: "DET-10",
        severity: Severity::Error,
        summary: "determinism taint: a wall-clock/thread/env/hash-iteration \
                  source reaches a fingerprint, ordered-reduction, golden or \
                  journal sink through the call graph (path reported)",
        scope: "src/ of every crate except bench (exec/src/metrics.rs is the \
                sanctioned wall-clock module); waivable at sink or source site",
    },
    LintInfo {
        id: "LOCK-02",
        severity: Severity::Error,
        summary: "lock-order cycle with at least one acquisition held across \
                  a call into another function (generalizes LOCK-01)",
        scope: "src/ of exec, serve",
    },
    LintInfo {
        id: "ARITH-02",
        severity: Severity::Error,
        summary: "unchecked +/*/narrowing-as on the result of a call that \
                  resolves to a pattern-count/width/test-time function",
        scope: "src/ of tam, wrapper, patterns",
    },
    LintInfo {
        id: "WAIVER-01",
        severity: Severity::Warning,
        summary: "stale, malformed or unknown-lint waiver comment",
        scope: "every scanned file",
    },
];

/// Looks up a lint by ID.
#[must_use]
pub fn lint_info(id: &str) -> Option<&'static LintInfo> {
    LINTS.iter().find(|l| l.id == id)
}

/// One hop of an interprocedural finding's call-path evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// `Type::name`-qualified function at this hop.
    pub func: String,
    /// Workspace-relative path of the function's file.
    pub file: String,
    /// 1-based line: the call site to the next hop, or (last step) the
    /// source/acquisition expression itself.
    pub line: usize,
}

/// One analysis finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Registry ID of the lint that fired.
    pub lint: &'static str,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation.
    pub message: String,
    /// For waived findings: the waiver's written justification.
    pub waiver_reason: Option<String>,
    /// Call-path evidence for interprocedural lints (DET-10, LOCK-02,
    /// ARITH-02); empty for token-level lints.
    pub path: Vec<PathStep>,
}

/// A source file handed to the engine.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Directory name of the owning crate (`tam`, `exec`, ...; the
    /// workspace root package is `repro`).
    pub crate_dir: String,
    /// Path relative to the crate directory (`src/lib.rs`, `tests/x.rs`).
    pub rel_path: String,
    /// Path relative to the workspace root, used in reports.
    pub display_path: String,
    /// File contents.
    pub source: String,
}

/// A stale or malformed waiver, reported as WAIVER-01 and removable by
/// `--fix-stale-waivers`.
#[derive(Clone, Debug)]
pub struct StaleWaiver {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// Why it is stale ("never fired", "malformed", "unknown lint").
    pub why: String,
}

/// The result of one engine run.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Unwaived findings (includes WAIVER-01 entries for stale waivers).
    pub findings: Vec<Finding>,
    /// Findings silenced by a waiver, with the justification attached.
    pub waived: Vec<Finding>,
    /// Stale waivers, for `--fix-stale-waivers`.
    pub stale: Vec<StaleWaiver>,
}

/// DET-03 / ARITH-01 scope: the crates holding the paper's cost/time
/// arithmetic.
const TIME_MATH_CRATES: &[&str] = &["tam", "wrapper", "tester"];
const CAST_CRATES: &[&str] = &["tam", "wrapper"];

/// Identifiers treated as test-time quantities by ARITH-01's
/// unchecked-operator heuristic (ARITH-02 extends this to function
/// names — see `facts::is_quantity_fn`).
pub(crate) fn is_time_quantity(ident: &str) -> bool {
    matches!(
        ident,
        "t_in" | "t_si" | "t_total" | "t_soc" | "time" | "cycles" | "makespan"
    ) || ident.ends_with("_time")
        || ident.ends_with("_cycles")
        || ident.starts_with("time_")
}

/// The waiver-comment tag (parsing lives in `facts::parse_waivers`).
pub(crate) const WAIVER_TAG: &str = "soctam-analyze:";

/// Computes token-index ranges belonging to `#[cfg(test)]` / `#[test]`
/// items, so lints can skip test code.
pub(crate) fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut k = 0usize;
    while k < code.len() {
        if !is_test_attr(toks, &code, k) {
            k += 1;
            continue;
        }
        let attr_start = code[k];
        // Skip this attribute and any further attributes / the item
        // header up to the first `{` (item body) or `;` (bodyless item).
        let mut j = skip_attr(toks, &code, k);
        let mut depth_paren = 0i32;
        let mut body_end = None;
        while let Some(&ti) = code.get(j) {
            match toks[ti].text.as_str() {
                "#" if depth_paren == 0 => {
                    j = skip_attr(toks, &code, j);
                    continue;
                }
                "(" | "[" => depth_paren += 1,
                ")" | "]" => depth_paren -= 1,
                "{" if depth_paren == 0 => {
                    let mut depth = 1i32;
                    let mut m = j + 1;
                    while let Some(&mi) = code.get(m) {
                        match toks[mi].text.as_str() {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    body_end = Some(*code.get(m).unwrap_or(&(toks.len() - 1)));
                    k = m;
                    break;
                }
                ";" if depth_paren == 0 => {
                    body_end = Some(ti);
                    k = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        match body_end {
            Some(end) => ranges.push((attr_start, end)),
            None => ranges.push((attr_start, toks.len().saturating_sub(1))),
        }
        k += 1;
    }
    ranges
}

/// Is the code-token at position `k` (an index into `code`) the start of
/// a `#[cfg(test)]` or `#[test]` attribute?
fn is_test_attr(toks: &[Tok], code: &[usize], k: usize) -> bool {
    let txt = |off: usize| code.get(k + off).map(|&i| toks[i].text.as_str());
    if txt(0) != Some("#") || txt(1) != Some("[") {
        return false;
    }
    match txt(2) {
        Some("test") => txt(3) == Some("]"),
        Some("cfg") => {
            // Scan the attr for a bare `test` ident.
            let mut j = k + 3;
            let mut depth = 0i32;
            while let Some(&ti) = code.get(j) {
                match toks[ti].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    }
                    "test" => return true,
                    _ => {}
                }
                j += 1;
            }
            false
        }
        _ => false,
    }
}

/// Skips an attribute starting at code position `k` (`#` token);
/// returns the code position just past its closing `]`.
fn skip_attr(toks: &[Tok], code: &[usize], k: usize) -> usize {
    let mut j = k + 1; // at `[`
    let mut depth = 0i32;
    while let Some(&ti) = code.get(j) {
        match toks[ti].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Per-file context shared by the lint passes.
struct FileCtx<'a> {
    file: &'a SourceFile,
    toks: &'a [Tok],
    /// `toks[i]` lies inside a test item.
    in_test: Vec<bool>,
    /// `toks[i]` lies inside a `use` declaration.
    in_use: Vec<bool>,
    is_src: bool,
}

impl<'a> FileCtx<'a> {
    fn new(file: &'a SourceFile, toks: &'a [Tok]) -> Self {
        let mut in_test = vec![false; toks.len()];
        for (start, end) in test_ranges(toks) {
            for flag in in_test.iter_mut().take(end + 1).skip(start) {
                *flag = true;
            }
        }
        let mut in_use = vec![false; toks.len()];
        let mut inside = false;
        for (i, tok) in toks.iter().enumerate() {
            if tok.is_comment() {
                continue;
            }
            if !inside && tok.kind == TokKind::Ident && tok.text == "use" {
                inside = true;
            }
            in_use[i] = inside;
            if inside && tok.text == ";" {
                inside = false;
            }
        }
        let is_src = file.rel_path.starts_with("src/")
            || file.rel_path == "src/lib.rs"
            || file.rel_path == "src/main.rs";
        FileCtx {
            file,
            toks,
            in_test,
            in_use,
            is_src,
        }
    }

    /// Non-test, non-`use` identifier positions.
    fn lintable(&self, i: usize) -> bool {
        !self.in_test[i] && !self.in_use[i]
    }

    fn finding(&self, lint: &'static str, line: usize, message: String) -> Finding {
        Finding {
            lint,
            file: self.file.display_path.clone(),
            line,
            message,
            waiver_reason: None,
            path: Vec::new(),
        }
    }
}

/// Runs every single-file (token-level) lint over one file.
pub(crate) fn local_findings(file: &SourceFile, toks: &[Tok]) -> Vec<Finding> {
    let ctx = FileCtx::new(file, toks);
    let mut raw = Vec::new();
    det03(&ctx, &mut raw);
    arith01(&ctx, &mut raw);
    raw
}

/// One lock acquisition extracted by LOCK-01.
#[derive(Clone, Debug)]
pub(crate) struct LockAcq {
    pub file: String,
    pub line: usize,
    pub func: String,
    pub label: String,
}

/// Runs every applicable lint over `files` and resolves waivers.
///
/// Builds each file's facts in order, then runs `analyze_facts` over
/// them; `check`, the corpus tests and the self-check all come through
/// here.
#[must_use]
pub fn analyze(files: &[SourceFile]) -> Analysis {
    let facts: Vec<crate::facts::FileFacts> = files.iter().map(crate::facts::build).collect();
    analyze_facts(&facts)
}

/// The engine core: local findings from the facts, the global
/// (interprocedural) passes over the call graph, deduplication, waiver
/// resolution and waiver-staleness accounting.
pub(crate) fn analyze_facts(facts: &[crate::facts::FileFacts]) -> Analysis {
    use crate::facts::Event;
    let mut out = Analysis::default();

    let mut raw: Vec<Finding> = facts
        .iter()
        .flat_map(|file| file.findings.iter().cloned())
        .collect();

    // LOCK-01: same-function pairwise inversions, from the per-function
    // event streams.
    let mut lock_seqs: Vec<Vec<LockAcq>> = Vec::new();
    for file in facts {
        if file.crate_dir != "exec" || !file.is_src {
            continue;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let seq: Vec<LockAcq> = f
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Acq { label, line } => Some(LockAcq {
                        file: file.display_path.clone(),
                        line: *line,
                        func: f.name.clone(),
                        label: label.clone(),
                    }),
                    Event::Call { .. } => None,
                })
                .collect();
            if !seq.is_empty() {
                lock_seqs.push(seq);
            }
        }
    }
    raw.extend(lock01(&lock_seqs));

    // Interprocedural passes over the call graph.
    let graph = crate::graph::build(facts);
    raw.extend(crate::passes::det10(facts, &graph));
    raw.extend(crate::passes::lock02(facts, &graph));
    raw.extend(crate::passes::arith02(facts, &graph));

    // Dedupe to one finding per (lint, file, line). DET-10 additionally
    // keeps one finding per distinct *source file*, so a source-site
    // waiver for one source cannot shadow an unwaived source elsewhere.
    fn src_file(f: &Finding) -> &str {
        f.path.last().map(|s| s.file.as_str()).unwrap_or("")
    }
    raw.sort_by(|a, b| {
        (a.lint, &a.file, a.line)
            .cmp(&(b.lint, &b.file, b.line))
            .then_with(|| src_file(a).cmp(src_file(b)))
            .then_with(|| a.message.cmp(&b.message))
    });
    raw.dedup_by(|a, b| {
        a.lint == b.lint
            && a.file == b.file
            && a.line == b.line
            && (a.lint != "DET-10" || src_file(a) == src_file(b))
    });

    // ARITH-02 defers to an ARITH-01 finding on the same line (one
    // waiver, one hazard).
    let arith01_sites: std::collections::BTreeSet<(String, usize)> = raw
        .iter()
        .filter(|f| f.lint == "ARITH-01")
        .map(|f| (f.file.clone(), f.line))
        .collect();
    raw.retain(|f| f.lint != "ARITH-02" || !arith01_sites.contains(&(f.file.clone(), f.line)));

    // Waiver matching. DET-10 findings may be waived at the sink site
    // *or* at the source site (the last call-path step): one reasoned
    // waiver next to a sanctioned nondeterminism source covers every
    // sink it taints.
    let file_idx: BTreeMap<&str, usize> = facts
        .iter()
        .enumerate()
        .map(|(i, f)| (f.display_path.as_str(), i))
        .collect();
    let mut used: Vec<Vec<bool>> = facts.iter().map(|f| vec![false; f.waivers.len()]).collect();
    let match_in = |fi: usize, lint: &str, line: usize| -> Option<usize> {
        facts[fi].waivers.iter().position(|w| {
            w.reason.is_some()
                && w.lint == lint
                && (w.file_scope || w.line == line || w.line + 1 == line)
        })
    };
    for mut finding in raw {
        let mut hit = file_idx
            .get(finding.file.as_str())
            .and_then(|&fi| match_in(fi, finding.lint, finding.line).map(|w| (fi, w)));
        if hit.is_none() && finding.lint == "DET-10" {
            if let Some(last) = finding.path.last() {
                hit = file_idx
                    .get(last.file.as_str())
                    .and_then(|&fi| match_in(fi, finding.lint, last.line).map(|w| (fi, w)));
            }
        }
        match hit {
            Some((fi, w)) => {
                used[fi][w] = true;
                finding
                    .waiver_reason
                    .clone_from(&facts[fi].waivers[w].reason);
                out.waived.push(finding);
            }
            None => out.findings.push(finding),
        }
    }

    // WAIVER-01: stale / malformed / unknown-lint waivers.
    for (fi, file) in facts.iter().enumerate() {
        for (wi, w) in file.waivers.iter().enumerate() {
            let why = if w.lint.is_empty() || w.reason.is_none() {
                Some(format!(
                    "malformed waiver: expected `// {WAIVER_TAG} allow(LINT-ID) -- reason`"
                ))
            } else if lint_info(&w.lint).is_none() {
                Some(format!("waiver names unknown lint `{}`", w.lint))
            } else if !used[fi][wi] {
                Some(format!(
                    "stale waiver: {} no longer fires here (remove it or run --fix-stale-waivers)",
                    w.lint
                ))
            } else {
                None
            };
            if let Some(why) = why {
                out.findings.push(Finding {
                    lint: "WAIVER-01",
                    file: file.display_path.clone(),
                    line: w.line,
                    message: why.clone(),
                    waiver_reason: None,
                    path: Vec::new(),
                });
                out.stale.push(StaleWaiver {
                    file: file.display_path.clone(),
                    line: w.line,
                    why,
                });
            }
        }
    }

    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out.waived
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out
}

fn det03(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.is_src || !TIME_MATH_CRATES.contains(&ctx.file.crate_dir.as_str()) {
        return;
    }
    for (i, tok) in ctx.toks.iter().enumerate() {
        if !ctx.lintable(i) {
            continue;
        }
        let hit = match tok.kind {
            TokKind::Ident => tok.text == "f32" || tok.text == "f64",
            TokKind::Float => true,
            _ => false,
        };
        if hit {
            out.push(ctx.finding(
                "DET-03",
                tok.line,
                format!(
                    "float `{}` in cost/time-math crate `{}`: all paper \
                     arithmetic is integral u64",
                    tok.text, ctx.file.crate_dir
                ),
            ));
        }
    }
}

fn arith01(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.is_src || !CAST_CRATES.contains(&ctx.file.crate_dir.as_str()) {
        return;
    }
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "i64", "isize"];
    let code: Vec<usize> = (0..ctx.toks.len())
        .filter(|&i| !ctx.toks[i].is_comment())
        .collect();
    for (p, &i) in code.iter().enumerate() {
        if !ctx.lintable(i) {
            continue;
        }
        let tok = &ctx.toks[i];
        // (a) bare truncating casts.
        if tok.kind == TokKind::Ident && tok.text == "as" {
            if let Some(&j) = code.get(p + 1) {
                let target = &ctx.toks[j];
                if target.kind == TokKind::Ident && NARROW.contains(&target.text.as_str()) {
                    out.push(ctx.finding(
                        "ARITH-01",
                        tok.line,
                        format!(
                            "bare `as {}` cast silently truncates — use \
                             try_from or waive with a range argument",
                            target.text
                        ),
                    ));
                }
            }
        }
        // (b) unchecked +/* on test-time quantities.
        if tok.kind == TokKind::Punct && (tok.text == "+" || tok.text == "*") {
            // Binary position: the previous code token must terminate an
            // operand (rules out unary deref/reference and `&*`).
            let prev_ok = p > 0
                && matches!(
                    (
                        ctx.toks[code[p - 1]].kind,
                        ctx.toks[code[p - 1]].text.as_str()
                    ),
                    (TokKind::Ident, _) | (TokKind::Int, _) | (_, ")") | (_, "]")
                );
            // `+=`-style compound assignment also counts; `+` followed by
            // `=` is the compound form (`==` can't follow a complete
            // operand + `+`).
            if !prev_ok {
                continue;
            }
            let prev_ident = (ctx.toks[code[p - 1]].kind == TokKind::Ident)
                .then(|| ctx.toks[code[p - 1]].text.as_str());
            // Right operand: skip a compound `=` and any `&`/`(`.
            let mut q = p + 1;
            while code.get(q).is_some_and(|&j| {
                matches!(ctx.toks[j].text.as_str(), "=" | "&" | "(" | "*" | "mut")
            }) {
                q += 1;
            }
            let next_ident = code.get(q).and_then(|&j| {
                (ctx.toks[j].kind == TokKind::Ident).then(|| ctx.toks[j].text.as_str())
            });
            let operand = [prev_ident, next_ident]
                .into_iter()
                .flatten()
                .find(|id| is_time_quantity(id));
            if let Some(id) = operand {
                out.push(ctx.finding(
                    "ARITH-01",
                    tok.line,
                    format!(
                        "unchecked `{}` on test-time quantity `{id}` — use \
                         saturating_add/saturating_mul (PR 3 convention)",
                        tok.text
                    ),
                ));
            }
        }
    }
}

/// If the code token at position `p` (an index into `code`) is a lock
/// acquisition, returns its normalized label. Shared by LOCK-01 (via
/// the facts event stream) and the facts builder.
pub(crate) fn lock_label(toks: &[Tok], code: &[usize], p: usize) -> Option<String> {
    let tok = &toks[code[p]];
    let next_is = |off: usize, s: &str| code.get(p + off).is_some_and(|&j| toks[j].text == s);
    if tok.kind == TokKind::Ident
        && (tok.text == "lock_recover" || tok.text == "lock_shard")
        && next_is(1, "(")
    {
        // Helper call: label is the argument path.
        let mut parts = Vec::new();
        let mut j = p + 2;
        let mut depth = 1i32;
        while let Some(&ti) = code.get(j) {
            match toks[ti].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "&" | "mut" => {}
                "[" => {
                    // Normalize index expressions.
                    let mut d = 1i32;
                    j += 1;
                    while let Some(&ui) = code.get(j) {
                        match toks[ui].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    parts.push("[_]".to_string());
                }
                t => parts.push(t.to_string()),
            }
            j += 1;
        }
        return Some(parts.concat());
    }
    if tok.kind == TokKind::Ident && tok.text == "lock_registry" && next_is(1, "(") {
        return Some("fault::registry".to_string());
    }
    // Method form: `<receiver>.lock()` / `.read()` / `.write()`.
    if tok.kind == TokKind::Punct && tok.text == "." {
        let method = code.get(p + 1).map(|&j| &toks[j]);
        let is_acq = method.is_some_and(|m| {
            m.kind == TokKind::Ident && matches!(m.text.as_str(), "lock" | "read" | "write")
        });
        if is_acq && next_is(2, "(") && next_is(3, ")") {
            // Walk backwards over the receiver chain.
            let mut parts: Vec<String> = Vec::new();
            let mut j = p;
            while j > 0 {
                let prev = &toks[code[j - 1]];
                match (prev.kind, prev.text.as_str()) {
                    (TokKind::Ident, t) => {
                        parts.push(t.to_string());
                        j -= 1;
                    }
                    (TokKind::Punct, "." | ":") => {
                        parts.push(prev.text.clone());
                        j -= 1;
                    }
                    (TokKind::Punct, "]") => {
                        // Normalize `[expr]` and continue left.
                        let mut d = 1i32;
                        j -= 1;
                        while j > 0 {
                            let t = &toks[code[j - 1]];
                            match t.text.as_str() {
                                "]" => d += 1,
                                "[" => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j -= 1;
                        }
                        j -= 1;
                        parts.push("[_]".to_string());
                    }
                    _ => break,
                }
            }
            if parts.is_empty() {
                return None;
            }
            parts.reverse();
            return Some(parts.concat());
        }
    }
    None
}

/// Flags inconsistent pairwise lock orderings across all sequences.
fn lock01(seqs: &[Vec<LockAcq>]) -> Vec<Finding> {
    // (first, second) -> earliest witnessing acquisition of `second`.
    let mut pairs: BTreeMap<(String, String), LockAcq> = BTreeMap::new();
    for seq in seqs {
        for a in 0..seq.len() {
            for b in (a + 1)..seq.len() {
                if seq[a].label == seq[b].label {
                    continue;
                }
                pairs
                    .entry((seq[a].label.clone(), seq[b].label.clone()))
                    .or_insert_with(|| seq[b].clone());
            }
        }
    }
    let mut out = Vec::new();
    for ((a, b), site) in &pairs {
        if a < b {
            if let Some(rev) = pairs.get(&(b.clone(), a.clone())) {
                out.push(Finding {
                    lint: "LOCK-01",
                    file: site.file.clone(),
                    line: site.line,
                    message: format!(
                        "lock order inversion: `{a}` is acquired before `{b}` \
                         in fn `{}` ({}:{}), but `{b}` before `{a}` in fn `{}` \
                         ({}:{})",
                        site.func, site.file, site.line, rev.func, rev.file, rev.line
                    ),
                    waiver_reason: None,
                    path: Vec::new(),
                });
            }
        }
    }
    out
}
