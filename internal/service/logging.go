package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
	"sync"
	"time"
)

// RequestIDHeader carries the request correlation ID. The daemon mints
// one per request unless the client supplied its own, which is honored
// after sanitizing. The ID keys the request's access-log line and, for
// a trace=1 request, names its trace. The header is also set on every
// response, so clients can quote it when reporting a problem.
const RequestIDHeader = "X-Ptad-Request-Id"

// newRequestID mints a 16-hex-character random ID. Randomness is fine
// here — request identity is operational metadata, never analysis
// input, so determinism rules (cmd/introvet) do not apply to it.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "id-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID bounds a client-supplied ID: at most 64
// bytes of letters, digits, dots, dashes, underscores. Anything else
// is discarded (the caller mints a fresh ID), so hostile header values
// cannot smuggle log-breaking bytes into the access log.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return ""
		}
	}
	return id
}

// reqInfo travels down the request's context: the correlation ID plus
// the fields the access-log line needs that only inner layers know
// (spec, cache status, queue wait). Inner writers and the logging
// middleware may race — the solve runs on its own goroutine — so
// every field access goes through the mutex.
type reqInfo struct {
	id string

	mu      sync.Mutex
	spec    string
	program string
	cache   string
	queueMS int64 // worker-slot wait, when this request owned a solve
}

func (ri *reqInfo) set(f func(*reqInfo)) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	f(ri)
	ri.mu.Unlock()
}

type reqInfoKey struct{}

// reqInfoFrom returns the context's request record, nil outside the
// HTTP middleware (in-process callers). All writers go through
// reqInfo.set, which is nil-safe, so inner layers never branch.
func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// statusWriter captures the response status for the access log while
// keeping the Flusher passthrough streams rely on.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection's
// deadlines through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withObservability is the edge middleware: it resolves the request's
// correlation ID (honoring a sanitized inbound header, minting
// otherwise), reflects it on the response, threads a reqInfo through
// the context for inner layers to annotate, and emits one structured
// access-log line per /v1/* request.
func (s *Service) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = newRequestID()
		}
		ri := &reqInfo{id: id}
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri)))

		if s.cfg.Logger == nil || !strings.HasPrefix(r.URL.Path, "/v1/") {
			return
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		ri.mu.Lock()
		kv := []any{
			"id", ri.id,
			"node", nodeName,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"dur_ms", time.Since(start).Milliseconds(),
		}
		if ri.spec != "" {
			kv = append(kv, "spec", ri.spec)
		}
		if ri.program != "" {
			kv = append(kv, "program", ri.program)
		}
		if ri.cache != "" {
			kv = append(kv, "cache", ri.cache)
		}
		if ri.queueMS > 0 {
			kv = append(kv, "queue_ms", ri.queueMS)
		}
		ri.mu.Unlock()
		s.cfg.Logger.Info("request", kv...)
	})
}

// nodeName labels the daemon in access-log lines and request traces.
const nodeName = "local"
