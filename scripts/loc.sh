#!/bin/sh
# Non-test source lines per crate: for every crates/*/src/**/*.rs (the
# crates/compat stand-ins excluded), the lines before the first line that
# starts with `#[cfg(test)]`. Prints the per-crate table and the total;
# `--check` also fails when the total exceeds scripts/loc_ceiling.txt.
set -eu
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    [ "$crate" = compat ] && continue
    lines=$(find "$dir" -name '*.rs' -exec awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' {} +)
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
if [ "${1:-}" = --check ]; then
    ceiling=$(cat scripts/loc_ceiling.txt)
    if [ "$total" -gt "$ceiling" ]; then
        echo "non-test lines $total exceed the ceiling $ceiling (scripts/loc_ceiling.txt)" >&2
        exit 1
    fi
fi
