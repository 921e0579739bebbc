package service_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/pta"
	"introspect/internal/service"
	ptav1 "introspect/pta/v1"
)

// TestSpecListLockstep keeps the /v1/specs document, the analysis
// registry, and the spec grammar in lockstep: every listed spec parses,
// resolves to a pipeline, and actually runs end-to-end through the
// service. A registered spec missing from the listing — or a listed
// spec the registry cannot run — fails here.
func specNames(doc ptav1.SpecsDoc) []string {
	names := make([]string, len(doc.Specs))
	for i, s := range doc.Specs {
		names[i] = s.Name
	}
	return names
}

func TestSpecListLockstep(t *testing.T) {
	doc := service.SpecList()
	names := specNames(doc)
	if !sort.StringsAreSorted(names) {
		t.Errorf("/v1/specs specs not sorted: %v", names)
	}
	if !sort.StringsAreSorted(doc.Variants) {
		t.Errorf("/v1/specs variants not sorted: %v", doc.Variants)
	}
	if !reflect.DeepEqual(names, analysis.RegisteredSpecs()) {
		t.Errorf("/v1/specs = %v, registry = %v", names, analysis.RegisteredSpecs())
	}
	if !reflect.DeepEqual(doc.Variants, analysis.Variants()) {
		t.Errorf("/v1/specs variants = %v, registry = %v", doc.Variants, analysis.Variants())
	}

	found := map[string]bool{}
	for _, s := range doc.Specs {
		found[s.Name] = true
	}
	for _, want := range []string{"cs", "insens", "2objH"} {
		if !found[want] {
			t.Errorf("spec %q missing from /v1/specs", want)
		}
	}

	svc := service.MustNew(service.Config{Workers: 1})
	src := "class Main { static void main() { Main m; m = new Main(); } }"
	for _, spec := range names {
		if _, err := pta.ParseSpec(spec); err != nil {
			t.Errorf("listed spec %q does not parse: %v", spec, err)
			continue
		}
		resp, serr := svc.Analyze(context.Background(), service.Request{
			Source: src,
			Job:    analysis.Job{Spec: spec},
		})
		if serr != nil {
			t.Errorf("listed spec %q does not run: %v", spec, serr)
			continue
		}
		if resp.Analysis != spec {
			t.Errorf("spec %q: response analysis = %q", spec, resp.Analysis)
		}
	}
}

// TestSpecCapabilities spot-checks the per-spec capability flags: the
// listing must say what each analysis can actually do, not a blanket
// feature matrix. The flags are probed from Job validation, so a
// mismatch here means the listing and the validator disagree.
func TestSpecCapabilities(t *testing.T) {
	caps := map[string]ptav1.Capabilities{}
	for _, s := range service.SpecList().Specs {
		caps[s.Name] = s.Capabilities
	}
	for _, c := range []struct {
		spec string
		want ptav1.Capabilities
	}{
		{"insens", ptav1.Capabilities{Provenance: true, Taint: true, Introspective: false}},
		{"cs", ptav1.Capabilities{Provenance: true, Taint: true, Introspective: false}},
		{"2objH", ptav1.Capabilities{Provenance: true, Taint: true, Introspective: true}},
	} {
		got, ok := caps[c.spec]
		if !ok {
			t.Errorf("spec %q not listed", c.spec)
			continue
		}
		if got != c.want {
			t.Errorf("spec %q capabilities = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

// TestSpecsEndpointDeterministic hits GET /v1/specs twice and byte-
// compares: the listing is part of the API surface and must be stable
// across runs (sorted, no map-order leakage).
func TestSpecsEndpointDeterministic(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	get := func() string {
		resp, err := srv.Client().Get(srv.URL + "/v1/specs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return string(buf[:n])
	}
	a, b := get(), get()
	if a != b {
		t.Errorf("/v1/specs not byte-stable:\n%s\nvs\n%s", a, b)
	}
	var doc ptav1.SpecsDoc
	if err := json.Unmarshal([]byte(a), &doc); err != nil {
		t.Fatalf("/v1/specs body does not decode: %v\n%s", err, a)
	}
	if !reflect.DeepEqual(specNames(doc), analysis.RegisteredSpecs()) {
		t.Errorf("HTTP listing %v != registry %v", specNames(doc), analysis.RegisteredSpecs())
	}
}
