package service

import (
	"context"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/pta"
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

// TestOutcomeKeyHashesElements: equal refinements share an outcome
// key however their sets were built, and a refinement with the same
// elements in another set does not.
func TestOutcomeKeyHashesElements(t *testing.T) {
	key := func(r *pta.Refinement) string {
		return outcomeKey("p", []byte(`{"spec":"2objH-IntroA"}`), -1, false, r)
	}
	// Added in descending order, the set re-anchors its words with a
	// zero word of headroom; added ascending, it has none.
	var desc, asc, moved, fewer pta.Refinement
	desc.Heaps.Add(640)
	desc.Heaps.Add(320)
	asc.Heaps.Add(320)
	asc.Heaps.Add(640)
	moved.Invos.Add(320)
	moved.Invos.Add(640)
	fewer.Heaps.Add(320)
	if key(&desc) != key(&asc) {
		t.Error("equal refinements hash differently")
	}
	if k := key(&asc); k == key(&moved) || k == key(&fewer) {
		t.Error("different refinements share a key")
	}
}
