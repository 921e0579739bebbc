GO ?= go

.PHONY: check vet build test race bench figures serve trace-smoke

# check is the gate CI runs, scripts/check.sh: vet, build, full tests
# (perfbench's too), race-enabled tests, the trace-export smoke and the
# daemon smokes. The targets below run single steps of it.
check:
	scripts/check.sh

# introvet is the repo's own determinism linter (see cmd/introvet):
# mandatory, stdlib-only, so it runs everywhere go does. staticcheck,
# golangci-lint and govulncheck are optional extras: run whichever is
# on PATH, skip silently otherwise (the GitHub Actions workflow
# installs pinned staticcheck/govulncheck; the local container ships
# neither, and go vet + introvet are the mandatory floor).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/introvet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	elif command -v golangci-lint >/dev/null 2>&1; then golangci-lint run ./...; \
	else echo "vet: staticcheck/golangci-lint not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "vet: govulncheck not installed; skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The solver, the pipeline, the cut-shortcut detector it runs, the
# checkers that consume their results, the analysis service, the
# tracing layer, and the program builder and taint injection (which
# extend one shared program from several goroutines) have the
# interesting concurrency surface (context cancellation mid-worklist,
# shared results across runs, single-flight dedup and admission under
# load, observers shared across fleet workers); run their tests under
# the race detector.
race:
	$(GO) test -race ./internal/analysis ./internal/pta ./internal/cutshortcut ./internal/checkers ./internal/service ./internal/obs ./internal/ir ./internal/taint

# bench records the benchmark ledger, scripts/bench.sh: perfbench's
# three workloads for three seeds, traced and untraced, written as
# BENCH_<date>.json (paper-figs, lint-prov) and SLO_<date>.json
# (ptad-sweep), with the tracing wall-time gate. About 9 minutes.
bench:
	scripts/bench.sh

# trace-smoke solves a real benchmark with tracing on and validates
# the exported Chrome trace (parses, spans nest, solver snapshots
# present) — the end-to-end check that the observability layer's file
# format stays loadable in Perfetto.
trace-smoke:
	$(GO) run ./cmd/pta -bench hsqldb -analysis 2objH-IntroA -budget -1 \
		-trace /tmp/pta-trace-smoke.json -snap-every 262144
	$(GO) run ./scripts/tracecheck /tmp/pta-trace-smoke.json

figures:
	$(GO) run ./cmd/introbench

# Run the analysis daemon locally (Ctrl-C to stop). See cmd/ptad for
# flags and the README "Server" section for curl examples.
serve:
	$(GO) run ./cmd/ptad
