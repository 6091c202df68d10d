#!/bin/sh
# Non-test source lines per crate: for every crates/*/src/**/*.rs (the
# crates/compat stand-ins and files named tests.rs excluded), the lines
# before the first `#[cfg(test)]` whose next line opens a `mod` — a
# `#[cfg(test)]` on any other item (a test-only `use`, say) is one more
# line, not the end of the file. Prints the per-crate table and the total;
# `--check` also fails when the total exceeds scripts/loc_ceiling.txt.
set -eu
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    [ "$crate" = compat ] && continue
    lines=$(find "$dir" -name '*.rs' ! -name tests.rs -exec awk '
        FNR == 1 { n += held; held = 0; test = 0 }
        test { next }
        held { held = 0; if ($0 ~ /^(pub )?mod /) { test = 1; next } n++ }
        /^#\[cfg\(test\)\]/ { held = 1; next }
        { n++ }
        END { print n + held }' {} +)
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
