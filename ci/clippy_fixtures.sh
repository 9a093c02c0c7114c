#!/usr/bin/env bash
# Proves that the lint levels in the root Cargo.toml, the member
# manifests and clippy.toml still catch what each fixture under
# ci/clippy-fixtures/ demonstrates.
#
# Each fixture names the crate it pretends to live in (`//@ crate:`) and
# its path there (`//@ path:`). It is compiled with clippy-driver under
# that crate's `[lints]` levels, read from its Cargo.toml or, for
# `workspace = true`, from `[workspace.lints]` in the root Cargo.toml.
# `clippy.toml` is read from the repo root, and `-D warnings` is added
# as in CI. A fixture at `src/<m>.rs` is mounted as module `<m>` with
# the attributes that the crate's real `src/lib.rs` puts on `mod <m>`.
#
# The run must fail, and the (lint, line) pairs it reports must equal
# the fixture's `.findings` file, one `LINT LINE` per line.
#
# Usage: ci/clippy_fixtures.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Prints `--<level>=<prefix><name>` for each `name = "level"` line of
# the `[$2]` section of manifest $1.
table_flags() {
    awk -v want="[$2]" -v prefix="$3" '
        /^\[/ { on = ($0 == want); next }
        on && /^[a-z_]+ *= *"(allow|warn|deny|forbid)"/ {
            split($0, kv, "\"")
            name = $1
            print "--" kv[2] "=" prefix name
        }' "$1"
}

# The rustc lint flags cargo would pass for crate $1.
lint_flags() {
    local manifest="$root/crates/$1/Cargo.toml"
    if grep -q '^\[lints\.rust\]' "$manifest"; then
        table_flags "$manifest" lints.rust ""
        table_flags "$manifest" lints.clippy "clippy::"
    else
        table_flags "$root/Cargo.toml" workspace.lints.rust ""
        table_flags "$root/Cargo.toml" workspace.lints.clippy "clippy::"
    fi
}

# The `#[...]` lines directly above `mod $2;` in crate $1's lib.rs.
mod_attrs() {
    awk -v m="$2" '
        /^[[:space:]]*#\[/ { buf = buf $0 "\n"; next }
        $0 ~ "^(pub )?mod " m ";" { printf "%s", buf; exit }
        { buf = "" }' "$root/crates/$1/src/lib.rs"
}

# Sorted `LINT LINE` pairs from rustc's JSON diagnostics on stdin: the
# lint code and the line of the top-level primary span.
diagnostics() {
    grep '"code":{"code":"' |
        sed -n 's/.*"code":{"code":"\([^"]*\)","explanation":[^}]*},"level":"[^"]*","spans":\[{"file_name":"[^"]*","byte_start":[0-9]*,"byte_end":[0-9]*,"line_start":\([0-9]*\),.*/\1 \2/p' |
        sort -u
}

status=0
for fixture in "$root"/ci/clippy-fixtures/*.rs; do
    name=$(basename "$fixture" .rs)
    crate=$(sed -n 's|^//@ crate: *||p' "$fixture")
    path=$(sed -n 's|^//@ path: *||p' "$fixture")
    module=$(basename "$path" .rs)
    mapfile -t flags < <(lint_flags "$crate")

    wrapper="$tmp/$name.rs"
    {
        echo "//! Mounts the $name fixture as crates/$crate/$path."
        mod_attrs "$crate" "$module"
        echo "#[path = \"$fixture\"]"
        echo "pub mod $module;"
    } >"$wrapper"

    if CLIPPY_CONF_DIR="$root" clippy-driver --edition 2021 --crate-type lib \
        --crate-name "$name" --emit=metadata --out-dir "$tmp" \
        --error-format=json "${flags[@]}" -D warnings "$wrapper" 2>"$tmp/$name.json"; then
        echo "FAIL $name: compiled cleanly under crates/$crate's lint levels" >&2
        status=1
        continue
    fi
    got=$(diagnostics <"$tmp/$name.json")
    want=$(grep -v '^#' "${fixture%.rs}.findings" | grep -v '^[[:space:]]*$' | sort -u)
    if [ "$got" != "$want" ]; then
        echo "FAIL $name (crates/$crate/$path):" >&2
        diff <(echo "$want") <(echo "$got") | sed -n 's/^</  expected/p; s/^>/  got     /p' >&2 || true
        status=1
    else
        echo "ok   $name: $(echo "$got" | tr '\n' ' ')"
    fi
done
exit "$status"
