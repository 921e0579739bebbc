// Command ptad is the analysis daemon: a long-running HTTP server
// exposing the points-to pipeline as a service, with a
// content-addressed result cache, single-flight deduplication of
// identical concurrent requests, and admission control (bounded
// workers, bounded queue, per-request deadlines). internal/service
// implements the engine; ptad is its thin HTTP frontend.
//
// Usage:
//
//	ptad [-addr 127.0.0.1:8372] [-workers N] [-queue N] [-cache N]
//	     [-cache-dir DIR] [-disk-entries N]
//	     [-deadline 30s] [-max-deadline 5m] [-budget N]
//	     [-snap-every N] [-debug-addr 127.0.0.1:0]
//
// Endpoints:
//
//	POST /v1/analyze   analyze source (JSON request or raw body + query params)
//	GET  /v1/analyze   same, streaming NDJSON progress events by default
//	GET  /v1/specs     list analyses, capability flags, and variants
//	GET  /v1/flights   in-flight requests with live solver snapshots
//	GET  /healthz      liveness
//	GET  /metrics      cache/queue/latency counters (JSON, or Prometheus
//	                   text exposition via ?format=prometheus / Accept)
//
// With -cache-dir, results also persist to an on-disk content-addressed
// store (capped at -disk-entries, LRU), so a restarted daemon keeps its
// cache: a request it answered in a previous life is a hit, not a
// re-solve. Corrupt or truncated store files are detected by checksum
// and quietly discarded.
//
// Every /v1/* request is correlated: the daemon echoes (or mints) an
// X-Ptad-Request-Id header and logs one JSON access line per request
// to stderr — request ID, node, status, latency, cache disposition
// and queue wait. Requests with trace=1 return a Perfetto-loadable
// trace on the response whose trace ID is that same request ID.
// decisions=1 attaches the introspection decision audit (which sites
// HeuristicA/B refined or demoted, and why).
//
// With -debug-addr, a second listener serves the operator-only debug
// surface: net/http/pprof under /debug/pprof/ and the daemon's
// in-memory ring of recent trace spans as a Chrome trace-event file at
// /debug/trace (load it in Perfetto). The debug listener is separate
// from the API address so it can stay loopback-only while the API is
// exposed.
//
// Examples:
//
//	ptad &
//	curl --data-binary @examples/ptalint/holder.mj \
//	    'http://127.0.0.1:8372/v1/analyze?spec=2objH-IntroA'
//	curl -s -X POST -H 'Content-Type: application/json' \
//	    -d '{"lang":"mj","source":"class Main { ... }","job":{"spec":"2objH"}}' \
//	    http://127.0.0.1:8372/v1/analyze
//	curl -s http://127.0.0.1:8372/v1/flights
//	curl -s 'http://127.0.0.1:8372/metrics?format=prometheus'
//
// Responses are versioned pta/v1 documents (analysis.RunJSON), the
// same shape cmd/pta -json emits, plus a "cache" field: "miss" (this
// request solved), "hit" (served from the result cache), or "dedup"
// (an identical concurrent request solved and the result was shared).
//
// The -workers flag sizes the solve pool: how many requests solve at
// once, each on one goroutine (admission control rejects beyond
// -workers + -queue). Requests carry no parallelism setting of their
// own.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"time"

	"introspect/internal/obs"
	"introspect/internal/service"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that stalls before its body holds no
// goroutine for longer. A request's body read is bounded per request by
// the service (the -deadline default), so a large source still has time.
const readHeaderTimeout = 10 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ptad:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8372", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "concurrent solves, i.e. the request pool (0 = number of CPUs)")
	queue := flag.Int("queue", 16, "admitted requests that may wait beyond those in flight")
	cache := flag.Int("cache", 256, "result cache entries")
	cacheDir := flag.String("cache-dir", "", "if set, persist results to this directory (durable across restarts)")
	diskEntries := flag.Int("disk-entries", 0, "durable store entry cap (0 = default, <0 = disable)")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", 5*time.Minute, "maximum per-request deadline")
	budget := flag.Int64("budget", 0, "default per-pass work budget (0 = solver default, <0 = unlimited)")
	snapEvery := flag.Int64("snap-every", 0, "solver work units between progress snapshots (0 = service default, <0 = solver default)")
	debugAddr := flag.String("debug-addr", "", "if set, serve pprof and /debug/trace on this second listener (e.g. 127.0.0.1:0)")
	traceRing := flag.Int("trace-ring", 0, "debug trace ring capacity in spans (0 = default)")
	flag.Parse()

	// The solve tracer feeds /debug/trace; only pay for it when a debug
	// listener will serve it.
	var tracer *obs.Tracer
	if *debugAddr != "" {
		tracer = obs.NewTracer(*traceRing)
	}

	svc, err := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		CacheDir:        *cacheDir,
		DiskEntries:     *diskEntries,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DefaultBudget:   *budget,
		SnapshotEvery:   *snapEvery,
		Tracer:          tracer,
		// Access logs go to stderr as JSON lines, one per /v1/* request,
		// keyed by the X-Ptad-Request-Id correlation ID; stdout stays
		// reserved for the startup lines scripts parse.
		Logger: obs.NewLogger(os.Stderr),
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The scripted smoke test (scripts/check.sh) parses this line to
	// discover the ephemeral port; keep its shape stable.
	fmt.Printf("ptad: listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Printf("ptad: debug on http://%s (pprof: /debug/pprof/, trace: /debug/trace)\n", dln.Addr())
		debugSrv = &http.Server{Handler: debugMux(tracer), ReadHeaderTimeout: readHeaderTimeout}
		go func() { errc <- debugSrv.Serve(dln) }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		fmt.Println("ptad: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if debugSrv != nil {
			debugSrv.Shutdown(shutdownCtx)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}

// debugMux builds the -debug-addr surface: the standard pprof handlers
// (mounted by hand — the flag-gated listener means we avoid the
// DefaultServeMux side-effect import) and the retained trace window.
func debugMux(tracer *obs.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="ptad-trace.json"`)
		tracer.WriteChrome(w, "ptad")
	})
	return mux
}
