package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"introspect/internal/suite"
)

func TestSweepScheduleDeterministic(t *testing.T) {
	a, b := sweepSchedule(7, 30), sweepSchedule(7, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request lists")
	}
	if reflect.DeepEqual(a, sweepSchedule(8, 30)) {
		t.Fatal("two seeds gave the same request list")
	}
}

func TestSweepScheduleMix(t *testing.T) {
	reqs := sweepSchedule(3, 30)
	if len(reqs) != sweepRate*30 {
		t.Fatalf("%d requests, want %d", len(reqs), sweepRate*30)
	}
	pairs := map[string]int{}
	keys := map[string]bool{}
	hits := 0
	for i, q := range reqs {
		if want := time.Duration(i) * time.Second / sweepRate; q.due != want {
			t.Fatalf("request %d due %v, want %v", i, q.due, want)
		}
		if q.warm >= 0 {
			hits++
			if p, job := warmJob(q.warm); p != q.prog || !reflect.DeepEqual(job, q.job) {
				t.Fatalf("request %d re-asks warm key %d but carries %d %+v", i, q.warm, q.prog, q.job)
			}
			continue
		}
		if q.job.Thresholds == nil {
			t.Fatalf("sweep %d has no thresholds", i)
		}
		key := fmt.Sprint(q.prog, q.job.Spec, *q.job.Thresholds)
		if keys[key] {
			t.Fatalf("sweep key %s repeats", key)
		}
		keys[key] = true
		pair := suite.Names()[q.prog] + " " + q.job.Spec
		if pair == unswept {
			t.Fatalf("sweep %d is of the unswept pair", i)
		}
		pairs[pair]++
	}
	if want := len(suite.Names())*len(sweepSpecs) - 1; len(pairs) != want {
		t.Fatalf("sweeps cover %d (program, variant) pairs, want %d", len(pairs), want)
	}
	for pair, n := range pairs {
		if n != 7 {
			t.Errorf("pair %s swept %d times, want 7 (an even mix)", pair, n)
		}
	}
	if share := float64(hits) / float64(len(reqs)); share < 0.75 || share > 0.85 {
		t.Errorf("hit share %.2f, want about 4 in 5", share)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload lists
// the program reports in step with what BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	list := func(ms []struct{ Name, Unit string }) string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		return strings.Join(out, ", ")
	}
	mine := func(ms []metric) string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name+" "+m.unit)
		}
		return strings.Join(out, ", ")
	}
	if got, want := list(doc.EndToEnd), mine(endToEnd); got != want {
		t.Errorf("end_to_end:\n%s\nprogram reports:\n%s", got, want)
	}
	if got, want := list(doc.PerLayer), mine(perLayer); got != want {
		t.Errorf("per_layer:\n%s\nprogram reports:\n%s", got, want)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("workloads %s, program runs %s", got, want)
	}
}
