#!/bin/sh
# bench.sh — record the benchmark ledger through perfbench (see
# perfbench/README.md): each workload for seeds 1-3, tracing off and on.
# BENCH_<date>.json gets paper-figs and lint-prov, SLO_<date>.json
# ptad-sweep: the date, commit, Go version and perfbench command, and
# per run its workload, seed, trace setting and result line, verbatim.
#
# Nothing is written unless every run exits 0 with "correct":true
# (perfbench exits 0 even when an output check fails) and the traced
# paper-figs median trace.wall_s is at most 1.25x the untraced wall_s.
#
# Usage: scripts/bench.sh   (about 9 minutes on a 2-CPU machine)

set -eu
cd "$(dirname "$0")/.."
[ $# -eq 0 ] || { echo "usage: scripts/bench.sh" >&2; exit 2; }

day=$(date +%Y-%m-%d)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# ledger FILE WORKLOAD... runs the workloads into $tmp/FILE; each result
# line also goes to $tmp/<workload>.<trace> for the gate.
ledger() {
    file=$1
    shift
    for w in "$@"; do
        for trace in 0 1; do
            for seed in 1 2 3; do
                echo "bench: $w seed $seed trace $trace" >&2
                if ! bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds 28 --trace "$trace" >"$tmp/out" ||
                    ! tail -n 1 "$tmp/out" | grep -q '^{"correct":true'; then
                    cat "$tmp/out" >&2
                    echo "bench: FAIL: $w seed $seed trace $trace" >&2
                    exit 1
                fi
                tail -n 1 "$tmp/out" | tee -a "$tmp/$w.$trace" |
                    sed "s/^/    {\"workload\": \"$w\", \"seed\": $seed, \"trace\": $trace, \"result\": /; s/\$/},/" >>"$tmp/$file.runs"
            done
        done
    done
    printf '{\n  "date": "%s",\n  "commit": "%s",\n  "go": "%s",\n  "command": "%s",\n  "runs": [\n' "$day" "$(git rev-parse HEAD)" \
        "$(go env GOVERSION)" "bash perfbench/run.sh --workload <workload> --seed <seed> --seconds 28 --trace <trace>" >"$tmp/$file"
    sed '$ s/,$//' "$tmp/$file.runs" >>"$tmp/$file"
    printf '  ]\n}\n' >>"$tmp/$file"
}

ledger BENCH.json paper-figs lint-prov
ledger SLO.json ptad-sweep

# median FILE KEY prints the middle of the three KEY values in FILE.
median() { sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" "$1" | sort -n | sed -n 2p; }
awk -v t="$(median "$tmp/paper-figs.1" trace.wall_s)" -v u="$(median "$tmp/paper-figs.0" wall_s)" 'BEGIN {
    printf "bench gate: paper-figs traced/untraced wall x%.3f (median %s s / %s s)\n", t / u, t, u
    if (t / u > 1.25) { print "bench gate: FAIL: tracing costs more than 1.25x"; exit 1 }
}'

mv "$tmp/BENCH.json" "BENCH_$day.json"
mv "$tmp/SLO.json" "SLO_$day.json"
echo "wrote BENCH_$day.json SLO_$day.json"
