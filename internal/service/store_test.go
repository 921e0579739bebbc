package service_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/service"
)

func analyzeOne(t *testing.T, svc *service.Service, req service.Request) *analysis.RunJSON {
	t.Helper()
	doc, serr := svc.Analyze(context.Background(), req)
	if serr != nil {
		t.Fatalf("Analyze: %v", serr)
	}
	return doc
}

func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDurableCacheSurvivesRestart is the tentpole's durability
// property: a result solved by one service instance is a cache hit in
// a fresh instance pointed at the same directory — no solver work, an
// identical document. The fresh instance stands in for a restarted
// daemon.
func TestDurableCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := service.Request{
		Name: "holder", Source: holderMJ(t),
		Job: analysis.Job{Spec: "2objH-IntroA"},
	}

	first := service.MustNew(service.Config{Workers: 1, CacheDir: dir})
	cold := analyzeOne(t, first, req)
	if cold.Cache != "miss" {
		t.Fatalf("cold solve cache = %q, want miss", cold.Cache)
	}
	if m := first.Metrics(); m.Disk.Writes != 1 || m.Disk.Entries != 1 {
		t.Fatalf("after solve: disk = %+v, want 1 write / 1 entry", m.Disk)
	}

	// "Restart": a new service over the same directory. The index is
	// rebuilt from the files at startup.
	second := service.MustNew(service.Config{Workers: 1, CacheDir: dir})
	warm := analyzeOne(t, second, req)
	if warm.Cache != "hit" {
		t.Fatalf("post-restart cache = %q, want hit", warm.Cache)
	}
	m := second.Metrics()
	if m.Solves != 0 {
		t.Errorf("post-restart solves = %d, want 0 (the store did not prevent a solve)", m.Solves)
	}
	if m.Disk.Hits != 1 || m.Cache.Hits != 1 {
		t.Errorf("post-restart metrics: disk hits = %d, cache hits = %d, want 1/1", m.Disk.Hits, m.Cache.Hits)
	}
	if canonical(t, warm) != canonical(t, cold) {
		t.Error("restarted hit diverges from the cold solve")
	}

	// A disk hit is promoted into the memory LRU: the next repeat hits
	// without touching the store.
	again := analyzeOne(t, second, req)
	if again.Cache != "hit" {
		t.Errorf("second post-restart cache = %q", again.Cache)
	}
	if m := second.Metrics(); m.Disk.Hits != 1 {
		t.Errorf("disk hits = %d after memory promotion, want still 1", m.Disk.Hits)
	}
}

// TestCorruptStoreFileFallsBack: verify-on-read. A garbled or
// truncated store file must not poison a response — the service
// detects it, discards the file, and re-solves.
func TestCorruptStoreFileFallsBack(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"garbled", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a byte near the middle: checksum mismatch, still JSON-sized.
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, path string) {
			if err := os.Truncate(path, 10); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			req := service.Request{
				Name: "holder", Source: holderMJ(t),
				Job: analysis.Job{Spec: "insens"},
			}
			cold := analyzeOne(t, service.MustNew(service.Config{Workers: 1, CacheDir: dir}), req)

			files := storeFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("store files = %v, want exactly 1", files)
			}
			c.corrupt(t, files[0])

			svc := service.MustNew(service.Config{Workers: 1, CacheDir: dir})
			doc := analyzeOne(t, svc, req)
			if doc.Cache != "miss" {
				t.Errorf("cache = %q after corruption, want miss (re-solve)", doc.Cache)
			}
			m := svc.Metrics()
			if m.Disk.Corrupt == 0 {
				t.Error("disk corrupt counter never incremented")
			}
			if m.Solves != 1 {
				t.Errorf("solves = %d, want 1", m.Solves)
			}
			if canonical(t, doc) != canonical(t, cold) {
				t.Error("re-solve diverges from the original")
			}
			// The bad file was discarded and replaced by the fresh result.
			files = storeFiles(t, dir)
			if len(files) != 1 {
				t.Errorf("store files after re-solve = %v, want exactly 1", files)
			}
			if doc := analyzeOne(t, service.MustNew(service.Config{Workers: 1, CacheDir: dir}), req); doc.Cache != "hit" {
				t.Errorf("cache = %q after repair, want hit", doc.Cache)
			}
		})
	}
}

// TestMemoryHitRefreshesDiskRecency: a cache hit served from the
// memory LRU refreshes the durable entry's recency (file mtime) too,
// so the access order a restart rebuilds from mtimes is the true one —
// without the refresh, the fleet's hottest entries would be the first
// evicted after every restart, because serving them from memory left
// their files looking cold.
func TestMemoryHitRefreshesDiskRecency(t *testing.T) {
	dir := t.TempDir()
	src := holderMJ(t)
	reqA := service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: "insens"}}
	reqB := service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: "cs"}}

	svc := service.MustNew(service.Config{Workers: 1, CacheDir: dir})
	analyzeOne(t, svc, reqA)
	time.Sleep(20 * time.Millisecond) // separate the mtimes
	analyzeOne(t, svc, reqB)
	time.Sleep(20 * time.Millisecond)
	// Hit A from the memory LRU: its store file must be freshened even
	// though nothing reads it.
	if doc := analyzeOne(t, svc, reqA); doc.Cache != "hit" {
		t.Fatalf("cache = %q, want hit", doc.Cache)
	}
	if m := svc.Metrics(); m.Disk.Hits != 0 {
		t.Fatalf("disk hits = %d, want 0 (the hit must come from memory)", m.Disk.Hits)
	}

	// Restart with capacity 1: the rebuild keeps the most recently used
	// entry — A, because the memory hit refreshed its mtime.
	fresh := service.MustNew(service.Config{Workers: 1, CacheDir: dir, DiskEntries: 1})
	if doc := analyzeOne(t, fresh, reqA); doc.Cache != "hit" {
		t.Errorf("A after restart: cache = %q, want hit (memory hit did not refresh disk recency)", doc.Cache)
	}
	fresh2 := service.MustNew(service.Config{Workers: 1, CacheDir: dir, DiskEntries: 1})
	if doc := analyzeOne(t, fresh2, reqB); doc.Cache != "miss" {
		t.Errorf("B after restart: cache = %q, want miss (B was the least recently used)", doc.Cache)
	}
}

// TestDiskStoreEviction: the store honors its entry cap, LRU.
func TestDiskStoreEviction(t *testing.T) {
	dir := t.TempDir()
	svc := service.MustNew(service.Config{Workers: 1, CacheDir: dir, DiskEntries: 2})
	src := holderMJ(t)
	specs := []string{"insens", "cs", "1obj"}
	for _, spec := range specs {
		analyzeOne(t, svc, service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: spec}})
	}
	if m := svc.Metrics(); m.Disk.Entries != 2 {
		t.Errorf("disk entries = %d with cap 2, want 2", m.Disk.Entries)
	}
	if files := storeFiles(t, dir); len(files) != 2 {
		t.Errorf("store files = %d, want 2", len(files))
	}

	// The evictee is the least recently used — the first spec. Check
	// the surviving two first (hits write nothing, so they cannot evict),
	// then confirm the first spec is gone.
	for _, spec := range specs[1:] {
		fresh := service.MustNew(service.Config{Workers: 1, CacheDir: dir, DiskEntries: 2})
		if doc := analyzeOne(t, fresh, service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: spec}}); doc.Cache != "hit" {
			t.Errorf("spec %s: cache = %q, want hit", spec, doc.Cache)
		}
	}
	fresh := service.MustNew(service.Config{Workers: 1, CacheDir: dir, DiskEntries: 2})
	if doc := analyzeOne(t, fresh, service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: specs[0]}}); doc.Cache != "miss" {
		t.Errorf("evicted spec %s: cache = %q, want miss", specs[0], doc.Cache)
	}
}

// TestDiskStoreIgnoresStrayFiles: the index rebuild adopts only files
// named like store entries — a 64-hex-character key inside the fan-out
// directory named by its first two characters. Other files under the
// cache directory are neither indexed nor evicted, so a short name can
// no longer crash the path slicing at start-up or in a later put's
// eviction.
func TestDiskStoreIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	src := holderMJ(t)
	req := func(spec string) service.Request {
		return service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: spec}}
	}
	svc := service.MustNew(service.Config{Workers: 1, CacheDir: dir})
	for _, spec := range []string{"insens", "cs", "1obj"} {
		analyzeOne(t, svc, req(spec))
	}
	if files := storeFiles(t, dir); len(files) != 3 {
		t.Fatalf("store files = %d, want 3", len(files))
	}

	// Strays older than every entry: a rebuild that indexed them would
	// evict them first.
	var strays []string
	epoch := time.Unix(0, 0)
	for _, rel := range []string{"zz/x.json", "ab/.json", "ab/abcd.json"} {
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("not a store file"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, epoch, epoch); err != nil {
			t.Fatal(err)
		}
		strays = append(strays, p)
	}

	// Start-up eviction: capacity 2 over three entries evicts one.
	fresh := service.MustNew(service.Config{Workers: 1, CacheDir: dir, DiskEntries: 2})
	if m := fresh.Metrics(); m.Disk.Entries != 2 {
		t.Errorf("after open: disk entries = %d, want 2 (strays must not be indexed)", m.Disk.Entries)
	}
	// Put eviction: a new solve pushes out another entry.
	analyzeOne(t, fresh, req("2objH"))
	if m := fresh.Metrics(); m.Disk.Entries != 2 {
		t.Errorf("after put: disk entries = %d, want 2", m.Disk.Entries)
	}

	for _, p := range strays {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("stray file: %v (the store must leave it alone)", err)
		}
	}
	if files := storeFiles(t, dir); len(files) != 2+len(strays) {
		t.Errorf("files = %d, want 2 entries + %d strays: %v", len(files), len(strays), files)
	}
}

// TestDiskStoreSharedDirKeepsCap: a hit on a file another daemon wrote
// into a shared cache directory joins this store's index within its
// cap, evicting the least recently used entry, rather than growing the
// index past DiskEntries.
func TestDiskStoreSharedDirKeepsCap(t *testing.T) {
	dir := t.TempDir()
	src := holderMJ(t)
	req := func(spec string) service.Request {
		return service.Request{Name: "holder", Source: src, Job: analysis.Job{Spec: spec}}
	}
	a := service.MustNew(service.Config{Workers: 1, CacheDir: dir, DiskEntries: 1})
	b := service.MustNew(service.Config{Workers: 1, CacheDir: dir, DiskEntries: 1})
	analyzeOne(t, a, req("insens"))
	analyzeOne(t, b, req("cs"))
	if doc := analyzeOne(t, a, req("cs")); doc.Cache != "hit" {
		t.Errorf("a asking for b's entry: cache = %q, want hit", doc.Cache)
	}
	if m := a.Metrics(); m.Disk.Hits != 1 || m.Disk.Entries != 1 {
		t.Errorf("a: disk hits = %d, disk entries = %d with cap 1, want 1 and 1", m.Disk.Hits, m.Disk.Entries)
	}
}
