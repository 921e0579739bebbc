package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/randprog"
)

// FuzzDiskStoreGet feeds arbitrary bytes to the ptad-store/v1 reader as
// the file of one valid key, indexed by a fresh store opened over it.
// Invariants: get never panics; a file it rejects is reported corrupt,
// deleted and dropped from the index; a file it serves stays on disk
// byte for byte. Seeds: a file put wrote (which must round-trip to an
// equal document), that file truncated, with one byte flipped, under
// the wrong key and with the wrong schema, "{}" and an empty file.
func FuzzDiskStoreGet(f *testing.F) {
	key := strings.Repeat("ab", sha256.Size)
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog:   randprog.Generate(1, randprog.Default()),
		Job:    analysis.Job{Spec: "insens"},
		Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		f.Fatal(err)
	}
	doc := analysis.NewRunJSON(res)
	s, err := openDiskStore(f.TempDir(), 4)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.put(key, doc); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	back, corrupt := s.get(key)
	want, _ := json.Marshal(doc)
	if got, _ := json.Marshal(back); corrupt || !bytes.Equal(got, want) {
		f.Fatalf("round trip: corrupt=%v\ngot  %s\nwant %s", corrupt, got, want)
	}

	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	for _, seed := range [][]byte{
		good,
		good[:len(good)/2],
		flipped,
		bytes.Replace(good, []byte(key), []byte(strings.Repeat("cd", sha256.Size)), 1),
		bytes.Replace(good, []byte(storeSchema), []byte("ptad-store/v2"), 1),
		[]byte("{}"),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := (&diskStore{dir: dir}).path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openDiskStore(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		doc, corrupt := s.get(key)
		if doc == nil {
			if !corrupt {
				t.Fatal("rejected file not reported corrupt")
			}
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("rejected file still on disk (stat: %v)", err)
			}
			if n := s.len(); n != 0 {
				t.Fatalf("rejected file still indexed: len = %d", n)
			}
			return
		}
		if corrupt {
			t.Fatal("served document reported corrupt")
		}
		if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, data) {
			t.Fatalf("served file changed on disk (read err: %v)", err)
		}
	})
}
