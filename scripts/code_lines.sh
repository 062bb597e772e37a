#!/usr/bin/env bash
# code_lines.sh — the tree's code-line count, per crate and in total.
#
# A code line is a non-blank line that is not a `//` comment (doc
# comments included), before its file's first `#[cfg(test)]` at any
# indentation, in a `.rs` file under crates/*/src or crates/shims/*/src.
# This is the count ROADMAP.md's line figures use.
#
#   scripts/code_lines.sh          # one "<lines> <crate dir>" row per crate, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src crates/shims/*/src; do
  [ -d "$src" ] || continue
  n=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { tail = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tail = 1 }
    tail { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }')
  printf '%6d %s\n' "$n" "${src%/src}"
  total=$((total + n))
done
printf '%6d total\n' "$total"
