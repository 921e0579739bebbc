package service

import (
	"context"
	"testing"

	"introspect/internal/analysis"
)

// TestUnparsedSourceNotKept: the program cache keeps its entries, and
// with them their source text, for the life of the service, so a
// source that fails to parse must leave no entry. Otherwise each
// distinct bad request would pin up to MaxSourceBytes.
func TestUnparsedSourceNotKept(t *testing.T) {
	s := MustNew(Config{Workers: 1})
	for i := 0; i < 2; i++ {
		_, serr := s.Analyze(context.Background(), Request{Lang: "ir", Source: "not a program", Job: analysis.Job{Spec: "insens"}})
		if serr == nil || serr.Code != CodeBadRequest {
			t.Fatalf("request %d: error %v, want bad_request", i, serr)
		}
	}
	s.progs.entries.Range(func(k, _ any) bool {
		t.Errorf("program cache keeps %q after its parse failed", k.(progID).source)
		return true
	})
}
