#!/usr/bin/env bash
# Repeatability of the benchmark on this machine, by the test the driver
# applies: every workload ten times in each of two sets, A and B, of the
# same code, run i of either set on seed first-seed + i. The sets alternate
# (A, B, A, B, ...) so that a slow spell of the machine lands on both.
# Prints the --compare table of the two sets as markdown; exits non-zero
# unless every median of B is within the metric's bound of A's, in either
# direction, and every spread but setup_s's is within the bound too.
#
# usage (from anywhere):  benchmark/check_repeat.sh [first-seed]
# Takes about 35 minutes. Writes only under benchmark/.repeat/.
set -euo pipefail
cd "$(dirname "$0")"

seed=${1:-2018}
workloads="repro-medium monitor-medium fulltable-large attacks-medium"

cargo build --quiet --release
bin=${CARGO_TARGET_DIR:-target}/release/bgpworms-benchmark

out=.repeat
rm -rf "$out"
mkdir -p "$out"
for round in 0 1 2 3 4 5 6 7 8 9; do
    for set in A B; do
        for workload in $workloads; do
            # No --seconds: the binary's default is BENCHMARK.json's run_seconds.
            "$bin" --workload "$workload" --seed $((seed + round)) \
                --trace 0 --out "$out/$set.jsonl" \
                >/dev/null 2>"$out/last.stderr" ||
                { cat "$out/last.stderr" >&2; exit 1; }
        done
    done
done

echo "Two sets of ten runs per workload, seeds $seed..$((seed + 9)),"
echo "on $(nproc) hardware threads ($(uname -m)), load average at the end $(cut -d' ' -f1 /proc/loadavg)."
echo
"$bin" --compare "$out/A.jsonl" "$out/B.jsonl"
