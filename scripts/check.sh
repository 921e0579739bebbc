#!/bin/sh
# check.sh — the full CI gate, runnable anywhere with a Go toolchain.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# introvet (cmd/introvet) is the repo's determinism linter: it gates
# map ranges, wall-clock reads and randomness in the solver packages.
# Stdlib-only, so it is mandatory everywhere.
go run ./cmd/introvet
# Optional deeper linters: run whichever is installed, skip otherwise
# (the GitHub Actions workflow installs pinned staticcheck and
# govulncheck; go vet + introvet are the mandatory floor).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
elif command -v golangci-lint >/dev/null 2>&1; then
    golangci-lint run ./...
fi
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
fi
go build ./...
go test ./...
# perfbench/ is a module of its own, so the ./... patterns above skip
# it; vet and test it here so an API change that breaks the benchmark
# fails the gate, not only the bench pipeline.
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)
# scripts/bench.sh holds the tracing wall-time gate but runs only by
# hand (make bench), so check at least that it parses.
sh -n scripts/bench.sh
go test -race ./internal/analysis ./internal/pta ./internal/cutshortcut ./internal/checkers ./internal/service ./internal/obs ./internal/ir ./internal/taint
# One capped jython 2objH solve at the figure budget: the only solver
# benchmark that reaches the node explosion of the TIMEOUT rows. Run
# once so it keeps compiling and its retained-MiB stays visible in CI.
go test -run '^$' -bench SolveCapped -benchtime 1x ./internal/pta
# A jython memory hit through ptad's handler, after warming insens for
# the nine suite programs: its time and allocations per hit, and the
# retained-MiB of the warmed service.
go test -run '^$' -bench AnalyzeHit -benchtime 20x ./internal/service
# A jython 2objH-IntroA threshold-sweep miss whose refinement is already
# solved, so it reuses the recorded main pass: its time and allocations
# per miss.
go test -run '^$' -bench AnalyzeSweep -benchtime 10x ./internal/service

# Trace-export smoke test (same commands as `make trace-smoke`): solve
# with tracing on, then validate the Chrome trace file end to end.
go run ./cmd/pta -bench hsqldb -analysis 2objH-IntroA -budget -1 \
    -trace /tmp/pta-trace-smoke.$$.json -snap-every 262144
go run ./scripts/tracecheck /tmp/pta-trace-smoke.$$.json
rm -f /tmp/pta-trace-smoke.$$.json

# Daemon smoke test: boot ptad on an ephemeral port (debug listener
# included), POST a real program, and assert a pta/v1 response comes
# back; then hit the observability surfaces.
go build -o /tmp/ptad.$$ ./cmd/ptad
/tmp/ptad.$$ -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 >/tmp/ptad.$$.log 2>/tmp/ptad.$$.err &
PTAD_PID=$!
trap 'kill $PTAD_PID 2>/dev/null || true; \
      rm -f /tmp/ptad.$$ /tmp/ptad.$$.log /tmp/ptad.$$.err /tmp/ptad-run.$$.json' EXIT
# The first stdout line is "ptad: listening on http://HOST:PORT".
URL=""
for i in $(seq 1 50); do
    URL=$(sed -n 's/^ptad: listening on //p' /tmp/ptad.$$.log | head -n1)
    [ -n "$URL" ] && break
    sleep 0.1
done
[ -n "$URL" ]
RESP=$(curl -sS --data-binary @examples/ptalint/holder.mj "$URL/v1/analyze?spec=2objH-IntroA")
echo "$RESP" | grep -q '"schema":"pta/v1"'
echo "$RESP" | grep -q '"complete":true'
# A repeat of the same request must be served from the cache.
curl -sS --data-binary @examples/ptalint/holder.mj "$URL/v1/analyze?spec=2objH-IntroA" | grep -q '"cache":"hit"'
curl -sS "$URL/metrics" | grep -q '"solves":1'
# Observability surfaces: flights listing (idle daemon -> empty),
# Prometheus exposition by query param and by Accept header, and the
# debug listener's pprof index and retained trace window.
curl -sS "$URL/v1/flights" | grep -q '"flights":\[\]'
curl -sS "$URL/metrics?format=prometheus" | grep -q '^ptad_solves_total 1$'
curl -sS -H 'Accept: text/plain' "$URL/metrics" | grep -q '^# TYPE ptad_requests_total counter$'
DEBUG_URL=$(sed -n 's/^ptad: debug on \(http:\/\/[^ ]*\).*/\1/p' /tmp/ptad.$$.log | head -n1)
[ -n "$DEBUG_URL" ]
curl -sS "$DEBUG_URL/debug/pprof/" | grep -qi 'profile'
curl -sS "$DEBUG_URL/debug/trace" >/tmp/ptad-trace.$$.json
go run ./scripts/tracecheck -require-snapshots=false /tmp/ptad-trace.$$.json
rm -f /tmp/ptad-trace.$$.json

# Correlation smoke (after the solve counts above, since it solves
# again): a traced, audited request with a client-supplied request ID.
# The response's trace passes tracecheck, its decision audit is
# non-empty, and the ID keys the daemon's JSON access-log line on
# stderr. That line is written after the response, so poll for it.
RID="smoke-$$"
curl -sS -H "X-Ptad-Request-Id: $RID" --data-binary @examples/ptalint/holder.mj \
    "$URL/v1/analyze?spec=2objH-IntroB&stream=0&trace=1&decisions=1" >/tmp/ptad-run.$$.json
go run ./scripts/tracecheck -from-run -require-snapshots=false /tmp/ptad-run.$$.json
grep -q '"decisions":\[{' /tmp/ptad-run.$$.json
for i in $(seq 1 50); do
    grep -q "\"id\":\"$RID\"" /tmp/ptad.$$.err && break
    sleep 0.1
done
grep -q "\"id\":\"$RID\"" /tmp/ptad.$$.err

# Main-pass sharing smoke: two JSON requests for holder.mj whose
# thresholds select alike (on so small a program both refine every
# site), under a deep spec no request above used. Both are misses, and
# the second reuses the first's main pass.
HOLDER=$(sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' examples/ptalint/holder.mj | awk '{printf "%s\\n", $0}')
for K in 1000 2000; do
    curl -sS -H 'Content-Type: application/json' \
        --data-binary "{\"name\":\"holder\",\"source\":\"$HOLDER\",\"job\":{\"spec\":\"2typeH-IntroA\",\"thresholds\":{\"k\":$K,\"l\":$K,\"m\":$K}}}" \
        "$URL/v1/analyze" | grep -q '"cache":"miss"'
done
curl -sS "$URL/metrics?format=prometheus" | grep -q '^ptad_main_pass_shared_total 1$'

# The smokes below boot additional daemons; one trap cleans up all of
# them plus every scratch file.
STORE_PID=""
trap 'kill $PTAD_PID $STORE_PID 2>/dev/null || true; \
      rm -rf /tmp/ptad.$$ /tmp/ptad.$$.log /tmp/ptad.$$.err \
             /tmp/ptad-run.$$.json /tmp/ptad-store.$$ \
             /tmp/ptad-store.$$.log /tmp/ptad-store2.$$.log \
             /tmp/ptad-jython.$$.ir' EXIT

# wait_url blocks until a freshly booted daemon prints its listening
# line into the given log, then echoes the base URL.
wait_url() {
    _url=""
    for _i in $(seq 1 50); do
        _url=$(sed -n 's/^ptad: listening on //p' "$1" | head -n1)
        [ -n "$_url" ] && break
        sleep 0.1
    done
    [ -n "$_url" ]
    echo "$_url"
}

# Streaming smoke: a benchmark-sized program with stream=1 comes back
# as NDJSON — stage events first, one terminal result event last. (The
# stronger ≥1-snapshot-before-terminal property is pinned by
# TestStreamDeliversProgress, which controls snap-every.)
go run ./cmd/pta -bench jython -emit /tmp/ptad-jython.$$.ir
STREAM=$(curl -sS --data-binary @/tmp/ptad-jython.$$.ir \
    "$URL/v1/analyze?lang=ir&spec=insens&budget=-1&name=jython&stream=1")
echo "$STREAM" | grep -q '"event":"stage"'
echo "$STREAM" | grep -q '"event":"result"'
echo "$STREAM" | grep -q '"complete":true'
# The same program again as a chunked body, which declares no length,
# must be a hit on the key the streamed request solved.
curl -sS -H 'Transfer-Encoding: chunked' --data-binary @/tmp/ptad-jython.$$.ir \
    "$URL/v1/analyze?lang=ir&spec=insens&budget=-1&name=jython&stream=0" | grep -q '"cache":"hit"'

# Durable-store smoke: solve once with -cache-dir, restart on the same
# directory, and the repeat must be a cache hit with zero solves.
/tmp/ptad.$$ -addr 127.0.0.1:0 -cache-dir /tmp/ptad-store.$$ >/tmp/ptad-store.$$.log &
STORE_PID=$!
SURL=$(wait_url /tmp/ptad-store.$$.log)
curl -sS --data-binary @examples/ptalint/holder.mj "$SURL/v1/analyze?spec=2objH" | grep -q '"cache":"miss"'
kill $STORE_PID
wait $STORE_PID 2>/dev/null || true
/tmp/ptad.$$ -addr 127.0.0.1:0 -cache-dir /tmp/ptad-store.$$ >/tmp/ptad-store2.$$.log &
STORE_PID=$!
SURL=$(wait_url /tmp/ptad-store2.$$.log)
curl -sS --data-binary @examples/ptalint/holder.mj "$SURL/v1/analyze?spec=2objH" | grep -q '"cache":"hit"'
curl -sS "$SURL/metrics" | grep -q '"solves":0'
kill $STORE_PID
wait $STORE_PID 2>/dev/null || true
STORE_PID=""
