#!/bin/sh
# bench.sh — run the end-to-end figure benchmarks (one full figure
# regeneration per iteration) and record the results as a dated JSON
# file, BENCH_<date>.json, in the repo root.
#
# Each benchmark reports, besides wall time, the figure's aggregate
# solver metrics: total work units (the deterministic time proxy),
# the peak points-to-set size, and the number of TIMEOUT runs. The
# work/peakpt/timeouts numbers are bit-deterministic — only ns_op
# varies across machines and runs, which is what makes the JSON
# comparable across commits.
#
# The Provenance/off and Provenance/on pair additionally records the
# derivation-witness recorder's solver overhead. Both propagate through
# the same word-level kernels, so the deterministic gate is that they
# report the same work and that "on" witnesses a non-zero number of
# facts; Provenance/off should also stay within noise of historical Fig
# runs (the disabled recorder costs a nil check per edge push and per
# word of new bits).
#
# The CutShortcut/{insens,cs,2objH} trio records the cut-shortcut
# analysis's cost against its two reference points over all nine
# benchmarks: cs work must sit near the insensitive floor (the edits
# are the only overhead) and far below 2objH's budget-capped total.
#
# The Fig5 and Fig5Traced pair is the tracing overhead gate: with the
# observability layer on (stage spans + sampled solver snapshots) the
# deterministic work/peakpt/timeouts metrics must be IDENTICAL to the
# untraced run (observers are read-only), the untraced run's work must
# match the most recent committed BENCH_*.json (tracing support cost
# the disabled path nothing), and traced wall time must stay within
# noise. Set BENCH_GATE=off to record numbers without enforcing.
#
# The Taint row regenerates Figure 9 (the taint client over the
# kernel-grafted suite) and records its deterministic work, timeout,
# report and false-positive totals alongside wall time.
#
# Usage: scripts/bench.sh [count]   (default: 3 runs per figure)

set -eu
cd "$(dirname "$0")/.."

count=${1:-3}
out="BENCH_$(date +%Y-%m-%d).json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# Baseline Fig5 work from the newest recorded bench file (possibly
# about to be overwritten), captured before the run.
prev_work=""
prev=$(ls BENCH_*.json 2>/dev/null | sort | tail -n1 || true)
if [ -n "$prev" ]; then
    prev_work=$(grep -o '"Fig5": \[[^]]*\]' "$prev" | grep -o '"work": [0-9]*' | head -n1 | grep -o '[0-9]*' || true)
fi

go test -bench='Fig|Provenance|CutShortcut|Taint' -benchtime=1x -count="$count" -run '^$' . | tee "$raw"

if [ "${BENCH_GATE:-on}" != "off" ]; then
    awk '
    /^BenchmarkProvenance\/(on|off)([-\t ]|$)/ {
        mode = ($1 ~ /^BenchmarkProvenance\/on/) ? "on" : "off"
        seen[mode] = 1
        w = ""; wit = ""
        for (i = 3; i < NF; i += 2) {
            if ($(i+1) == "work") w = $i
            if ($(i+1) == "witnessed") wit = $i
        }
        if (ref == "") ref = w
        if (w != ref) {
            printf "bench gate: FAIL: Provenance/%s work %s differs from %s\n", mode, w, ref; bad = 1
        }
        if (mode == "on" && wit + 0 == 0) {
            print "bench gate: FAIL: Provenance/on witnessed no facts"; bad = 1
        }
        if (mode == "on") witnessed = wit
    }
    END {
        if (!seen["on"] || !seen["off"]) {
            print "bench gate: FAIL: Provenance/on or Provenance/off rows missing from output"; exit 1
        }
        if (bad) exit 1
        printf "bench gate: OK: provenance on/off work identical (%s), %s facts witnessed\n", ref, witnessed
    }' "$raw"

    awk -v prev_work="$prev_work" '
    /^BenchmarkFig5(Traced)?([-\t ]|$)/ {
        name = $1
        sub(/^Benchmark/, "", name)
        sub(/-[0-9]+$/, "", name)
        if (!(name in minns) || $3 < minns[name]) minns[name] = $3
        for (i = 3; i < NF; i += 2) if ($(i+1) == "work") work[name] = $i
    }
    END {
        if (!("Fig5" in minns) || !("Fig5Traced" in minns)) {
            print "bench gate: FAIL: Fig5/Fig5Traced rows missing from output"; exit 1
        }
        if (work["Fig5"] != work["Fig5Traced"]) {
            printf "bench gate: FAIL: tracing changed solver work (%s vs %s)\n", work["Fig5"], work["Fig5Traced"]; exit 1
        }
        if (prev_work != "" && work["Fig5"] != prev_work) {
            printf "bench gate: FAIL: Fig5 work %s drifted from recorded baseline %s\n", work["Fig5"], prev_work; exit 1
        }
        ratio = minns["Fig5Traced"] / minns["Fig5"]
        # %.0f, not %d: ns/op exceeds 32-bit int in some awks (mawk).
        printf "bench gate: OK: work identical (%s), sampled tracing wall overhead x%.3f (min ns/op %.0f -> %.0f)\n", \
            work["Fig5"], ratio, minns["Fig5"], minns["Fig5Traced"]
        if (ratio > 1.25) {
            print "bench gate: FAIL: traced run more than 1.25x slower than untraced"; exit 1
        }
    }' "$raw"
fi

awk -v date="$(date +%Y-%m-%d)" -v count="$count" -v gover="$(go env GOVERSION)" '
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    entry = "{\"iters\": " $2
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_", unit)
        gsub(/%/, "_pct", unit)
        entry = entry ", \"" unit "\": " $i
    }
    entry = entry "}"
    if (!(name in runs)) order[++n] = name
    runs[name] = runs[name] (runs[name] == "" ? "" : ", ") entry
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"count\": %s,\n  \"benchmarks\": {\n", date, gover, count
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": [%s]%s\n", name, runs[name], (i < n ? "," : "")
    }
    printf "  }\n}\n"
}' "$raw" >"$out"

echo "wrote $out"
