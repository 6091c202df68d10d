#!/bin/sh
# Alternating A/B of one benchmark workload between two checkouts:
#
#   scripts/ab.sh <parent-tree> <change-tree> <workload> [pairs]
#
# Builds each tree's benchmark package once into <tree>/.bench_build (the
# directory the driver uses, git-ignored; nothing under benchmark/ is
# written), then runs `pairs` (default 10) pairs of fresh `--child rep`
# processes at seed $AB_SEED (default 7), alternating which side goes
# first. On a sim_* workload both sides are pinned to one CPU (the last
# of this shell's affinity mask) when `taskset` can do that; the live_*
# workloads run unpinned, as threaded as the benchmark runs them.
# Prints, per metric, each side's median [quartiles] and three
# ratios change/parent — of the medians, of each pair (median [quartiles]:
# the two runs of a pair are seconds apart, so host drift cancels) and of
# the two sides' best runs — with the change's wins/ties out of the pairs,
# then each side's report digest. Exits 1 when a side's digest varies, or
# the two sides' digests differ on a sim_* workload. Raw (uncalibrated)
# numbers: the harness's calibrated medians still need a full
# `--seconds 16` run.
#
# AB_PIN_MALLOC=1 runs both sides with MALLOC_MMAP_THRESHOLD_=131072,
# which fixes glibc's otherwise dynamic mmap (and trim) threshold: a
# peak_rss_mib difference that holds both with and without it is the
# code's, one that only shows without it is the allocator's.
set -eu
[ $# -ge 3 ] || { sed -n '2,5p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${AB_SEED:-7}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for tree in "$parent" "$change"; do
    CARGO_TARGET_DIR="$tree/.bench_build" cargo build --release --quiet --offline \
        --manifest-path "$tree/benchmark/Cargo.toml"
done

if [ "${AB_PIN_MALLOC:-0}" = 1 ]; then
    export MALLOC_MMAP_THRESHOLD_=131072
fi
pin=
case $workload in
sim_*)
    cpu=$(taskset -cp $$ 2>/dev/null | sed 's/.*[-, ]//') || cpu=
    if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
        pin="taskset -c $cpu"
    fi
    ;;
esac
rep() { # <side> <tree> <pair>
    (cd "$2" && $pin .bench_build/release/adaptbf-benchmark --child rep \
        --workload "$workload" --seed "$seed") >"$out/$1.$3"
}
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        rep parent "$parent" "$i"; rep change "$change" "$i"
    else
        rep change "$change" "$i"; rep parent "$parent" "$i"
    fi
    i=$((i + 1))
done

field() { # <side> <name>: one value per pair, in pair order
    i=1
    while [ "$i" -le "$pairs" ]; do
        awk -v n="$2" '$2 == n { print $3 }' "$out/$1.$i"
        i=$((i + 1))
    done
}
quartiles() { # values on stdin -> "median [q1..q3]", nearest rank
    sort -g | awk '{ v[NR] = $1 } END {
        q1 = v[int((NR + 3) / 4)]; q3 = v[int((3 * NR + 3) / 4)]
        med = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
        printf "%.6g [%.6g..%.6g]", med, q1, q3 }'
}

printf '%s, seed %s, %s pairs (parent %s, change %s)%s\n' \
    "$workload" "$seed" "$pairs" "$parent" "$change" \
    "${MALLOC_MMAP_THRESHOLD_:+, MALLOC_MMAP_THRESHOLD_=$MALLOC_MMAP_THRESHOLD_}"
for metric in rpcs_per_s:higher wall_s:lower cpu_us_per_rpc:lower peak_rss_mib:lower; do
    name=${metric%:*}
    field parent "$name" >"$out/p"
    field change "$name" >"$out/c"
    [ -s "$out/p" ] || continue
    p=$(quartiles <"$out/p")
    c=$(quartiles <"$out/c")
    printf '  %-16s parent %s  change %s\n' "$name" "$p" "$c"
    printf '  %-16s x%.3f of medians, x%s per pair, ' '' \
        "$(echo "${c%% *} ${p%% *}" | awk '{ print $1 / $2 }')" \
        "$(paste "$out/p" "$out/c" | awk '{ print $2 / $1 }' | quartiles)"
    paste "$out/p" "$out/c" | awk -v better="${metric#*:}" '
        { if ($1 == $2) ties++; else if ((better == "higher") == ($2 > $1)) wins++
          if (NR == 1 || ((better == "higher") == ($1 > bp))) bp = $1
          if (NR == 1 || ((better == "higher") == ($2 > bc))) bc = $2 }
        END { printf "x%.3f of best runs; wins %d ties %d of %d\n", bc / bp, wins, ties, NR }'
done

status=0
for side in parent change; do
    field "$side" digest | sort -u >"$out/digest.$side"
    printf '  digest %s: %s\n' "$side" "$(tr '\n' ' ' <"$out/digest.$side")"
    [ "$(wc -l <"$out/digest.$side")" -le 1 ] || status=1
done
case $workload in
sim_*) cmp -s "$out/digest.parent" "$out/digest.change" || status=1 ;;
esac
[ "$status" -eq 0 ] || echo "DIGESTS DIFFER" >&2
exit "$status"
