//! Workspace discovery: expands the root `Cargo.toml` member globs and
//! enumerates every `.rs` file of every member (plus the root package),
//! without any TOML dependency — the two keys we need (`members`,
//! `name`) are parsed with a few string operations.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lints::SourceFile;

/// Directories scanned inside each member.
const SUBDIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// The analyzer's own lint-fixture corpus: intentionally full of
/// violations, never scanned as part of the workspace.
const CORPUS_DIR: &str = "tests/corpus";

/// Expands the workspace: returns one [`SourceFile`] per `.rs` file,
/// sorted by display path for deterministic reports.
///
/// # Errors
///
/// Propagates I/O errors, each prefixed with the path it failed on,
/// and reports an unparseable root `Cargo.toml` as
/// [`io::ErrorKind::InvalidData`].
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = fs::read_to_string(&manifest_path).map_err(|e| at(&manifest_path, e))?;
    let mut member_dirs = expand_members(root, &manifest)?;
    // The root package (integration tests + examples) rides along.
    if manifest.contains("[package]") {
        member_dirs.push(root.to_path_buf());
    }
    member_dirs.sort();
    member_dirs.dedup();

    let mut files = Vec::new();
    for dir in &member_dirs {
        let crate_dir = if dir == root {
            "repro".to_string()
        } else {
            dir.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        };
        for sub in SUBDIRS {
            let base = dir.join(sub);
            if !base.is_dir() {
                continue;
            }
            let mut found = Vec::new();
            walk_rs(&base, &mut found)?;
            for path in found {
                let rel_path = path
                    .strip_prefix(dir)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                if rel_path.starts_with(CORPUS_DIR) {
                    continue;
                }
                let display_path = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let source = fs::read_to_string(&path).map_err(|e| at(&path, e))?;
                files.push(SourceFile {
                    crate_dir: crate_dir.clone(),
                    rel_path,
                    display_path,
                    source,
                });
            }
        }
    }
    files.sort_by(|a, b| a.display_path.cmp(&b.display_path));
    Ok(files)
}

/// Parses `members = ["crates/*", ...]` from the `[workspace]` section
/// and expands each entry (literal paths and `prefix/*` globs).
fn expand_members(root: &Path, manifest: &str) -> io::Result<Vec<PathBuf>> {
    let Some(start) = manifest.find("members") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "root Cargo.toml has no workspace members list",
        ));
    };
    let rest = &manifest[start..];
    let open = rest
        .find('[')
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unterminated members list"))?;
    let close = rest
        .find(']')
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unterminated members list"))?;
    let mut dirs = Vec::new();
    for entry in rest[open + 1..close].split(',') {
        let entry = entry.trim().trim_matches('"');
        if entry.is_empty() {
            continue;
        }
        if let Some(prefix) = entry.strip_suffix("/*") {
            let base = root.join(prefix);
            for child in fs::read_dir(&base).map_err(|e| at(&base, e))? {
                let child = child.map_err(|e| at(&base, e))?.path();
                if child.join("Cargo.toml").is_file() {
                    dirs.push(child);
                }
            }
        } else {
            let dir = root.join(entry);
            if dir.join("Cargo.toml").is_file() {
                dirs.push(dir);
            }
        }
    }
    Ok(dirs)
}

/// Recursively collects `.rs` files under `dir`.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .and_then(|rd| rd.map(|e| e.map(|e| e.path())).collect())
        .map_err(|e| at(dir, e))?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Prefixes an I/O error with the path it failed on, keeping its kind.
pub(crate) fn at(path: &Path, err: io::Error) -> io::Error {
    io::Error::new(err.kind(), format!("{}: {err}", path.display()))
}
