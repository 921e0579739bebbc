package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/randprog"
)

// TestStoreFileBytes: put writes, byte for byte, what json.Marshal of
// the storeFile writes, for a document with a decision audit and a
// program name holding characters Marshal escapes (<, & and U+2028).
func TestStoreFileBytes(t *testing.T) {
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog:   randprog.Generate(3, randprog.Default()),
		Job:    analysis.Job{Spec: "2objH-IntroA", Thresholds: &analysis.Thresholds{K: 1, L: 1, M: 1}},
		Limits: analysis.Limits{Budget: -1},
		Audit:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := analysis.NewRunJSON(res)
	doc.Program = "a<b&c\u2028d"
	if len(doc.Decisions) == 0 {
		t.Fatal("the document has no decisions")
	}
	db, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("0f", sha256.Size)
	want, err := json.Marshal(storeFile{Schema: storeSchema, Key: key, Sum: docSum(db), Doc: db})
	if err != nil {
		t.Fatal(err)
	}
	s, err := openDiskStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.put(key, doc); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("store file differs from json.Marshal of its storeFile:\ngot  %s\nwant %s", got, want)
	}
}
