#!/bin/sh
# One digest per simulator-side `adaptbf` invocation of a checkout:
#
#   scripts/cli_snapshot.sh <tree>
#
# Builds only the tree's `adaptbf` binary (release, into <tree>/target),
# then runs every sim command — `scenarios`, and `run`, `compare`,
# `analyze`, `sweep`, `ledger`, `record` + `replay` over every built-in the
# tree lists (at --scale 0.0625) and every examples/scenarios/*.json — and
# prints `<sha256 of stdout, 16 hex>  <invocation>` per line. Everything
# here is deterministic, so two trees that behave the same print the same
# list: diff a parent's output against a change's. Traces are written to a
# scratch directory and named the same on every tree.
set -eu
[ $# -eq 1 ] || { sed -n '2,4p' "$0" >&2; exit 2; }
tree=$(cd "$1" && pwd)
cargo build --release --quiet --offline --manifest-path "$tree/Cargo.toml" -p adaptbf-cli
bin=$tree/target/release/adaptbf
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

digest() { # <file> <label>
    printf '%s  %s\n' "$(sha256sum <"$1" | cut -c1-16)" "$2"
}
snap() { # <label> <args...>: digest one invocation's stdout
    what=$1
    shift
    "$bin" "$@" >stdout || { echo "failed: adaptbf $*" >&2; exit 1; }
    digest stdout "$what"
}
commands() { # <target label> <target args...>: every sim command over it
    target=$1
    shift
    for command in run compare analyze sweep ledger; do
        snap "$command $target" "$command" "$@"
    done
    snap "record $target" record "$@" --out snap.trace
    snap "replay $target" replay snap.trace
    digest snap.trace "trace $target"
}

snap scenarios scenarios
for name in $("$bin" scenarios | awk '/^  / { print $1 }'); do
    commands "$name --scale 0.0625" "$name" --scale 0.0625
done
for file in "$tree"/examples/scenarios/*.json; do
    commands "--scenario-file ${file#"$tree"/}" --scenario-file "$file"
done
