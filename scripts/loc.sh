#!/usr/bin/env bash
# Non-test Rust lines per crate: for every .rs file, its lines minus every
# `#[cfg(test)]` test module (a `#[cfg(test)]` line directly followed by a
# `mod` item: both lines and the whole block, followed by brace depth with
# string and char literals blanked; an out-of-line `mod tests;` drops just
# the two lines). Code after a nested test module counts. A `#[cfg(test)]`
# on a field, statement or function is product code and is counted. A
# crate's own `tests/` directory (integration tests and their fixtures,
# `crates/<name>/tests/...`) is test code and is not counted either; the
# top-level `tests` member is counted only when named (`-v tests/tests`).
# This is the count simplicity PRs quote before/after.
#   scripts/loc.sh            # one row per crate under crates/, plus a total
#   scripts/loc.sh -v DIR...  # one row per file under the given directories
set -euo pipefail
cd "$(dirname "$0")/.."

per_file=0
if [ "${1:-}" = "-v" ]; then
    per_file=1
    shift
fi
[ "$#" -gt 0 ] || set -- crates/*/

find "$@" -name '*.rs' -not -path '*/target/*' -not -regex 'crates/[^/]*/tests/.*' | sort | while read -r f; do
    echo "$(awk 'function braces(s) {
                     gsub(/"([^"\\]|\\.)*"/, "", s)
                     gsub(/\47([^\47\\]|\\.)\47/, "", s)
                     return gsub(/\{/, "", s) - gsub(/\}/, "", s)
                 }
                 depth > 0 { depth += braces($0); next }
                 gate && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / {
                     n--; gate = 0; depth = braces($0); next
                 }
                 { gate = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/; n++ }
                 END { print n + 0 }' "$f") $f"
done | awk -v per_file="$per_file" '
    {
        key = $2
        if (!per_file) { split($2, p, "/"); key = p[1] "/" p[2] }
        if (!(key in lines)) order[++n] = key
        lines[key] += $1
        total += $1
    }
    END {
        for (i = 1; i <= n; i++) printf "%7d  %s\n", lines[order[i]], order[i]
        printf "%7d  total\n", total
    }'
