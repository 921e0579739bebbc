package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestLoggerJSONAndNil: a nil *Logger absorbs every call; a real one
// emits one JSON object per line carrying the With-bound and per-call
// attributes.
func TestLoggerJSONAndNil(t *testing.T) {
	var nilLogger *Logger
	nilLogger.Info("ignored", "k", "v")
	nilLogger.Error("ignored")
	if l := nilLogger.With("id", "x"); l != nil {
		t.Errorf("With on nil logger = %v, want nil", l)
	}

	var buf bytes.Buffer
	l := NewLogger(&buf).With("node", "a")
	l.Info("request", "id", "r1", "status", 200)
	l.Error("boom", "err", "bad")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first["msg"] != "request" || first["node"] != "a" || first["id"] != "r1" ||
		first["status"] != float64(200) || first["level"] != "INFO" {
		t.Errorf("line 0 = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if second["level"] != "ERROR" || second["err"] != "bad" || second["node"] != "a" {
		t.Errorf("line 1 = %v", second)
	}
}
