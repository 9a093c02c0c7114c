//! Every member crate takes its lint levels from `[workspace.lints]` in
//! the root Cargo.toml, except `soctam-exec`: its own table lowers
//! `unsafe_code` from forbid to deny so `pool` and `signal` can allow it.

use std::fs;
use std::path::Path;

#[test]
fn every_member_inherits_the_workspace_lints() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut checked = 0;
    for entry in fs::read_dir(crates).expect("crates dir") {
        let dir = entry.expect("dir entry").path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = dir.file_name().expect("dir name").to_string_lossy();
        let table = if name == "exec" {
            "[lints.rust]\nunsafe_code = \"deny\"\n"
        } else {
            "[lints]\nworkspace = true\n"
        };
        assert!(manifest.contains(table), "crates/{name}: no {table:?}");
        checked += 1;
    }
    assert!(checked >= 14, "only {checked} member manifests found");
}
