package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"introspect/internal/analysis"
)

// storeSchema tags every store file; get rejects files from a future
// (or corrupted) format rather than guessing.
const storeSchema = "ptad-store/v1"

// DefaultDiskEntries is the on-disk store's default capacity. Results
// are a few KB each, so the default keeps the store in the tens of
// megabytes.
const DefaultDiskEntries = 4096

// storeFile is the on-disk wrapper around one cached result: the
// content key it was stored under, an integrity checksum over the
// document bytes, and the document itself. The wrapper makes
// verify-on-read cheap and self-contained — a file renamed, truncated,
// or bit-flipped by the outside world fails one of the three checks
// and is treated as a miss (and deleted), never served.
type storeFile struct {
	Schema string          `json:"schema"`
	Key    string          `json:"key"`
	Sum    string          `json:"sum"` // sha256 hex of Doc's bytes
	Doc    json.RawMessage `json:"doc"`
}

// diskStore is the durable half of the result cache: a directory of
// content-addressed JSON files with an in-memory LRU index. Writes are
// atomic (temp file + rename in the same directory), reads verify the
// checksum, and construction rebuilds the index from the directory so
// a restarted daemon keeps its hits. The solver is deterministic and
// the key is a pure function of the request, so a store directory can
// even be shared between daemon generations — whoever wrote an entry,
// it is the entry this daemon would have computed.
//
// Results never expire by time, only by LRU capacity: cached outcomes
// stay valid forever (the key covers everything that could change
// them).
type diskStore struct {
	dir   string
	index *lru[struct{}]
}

// openDiskStore creates/opens the store rooted at dir and rebuilds the
// LRU index from the entry files present (see entryKey),
// most-recently-modified first. Entries beyond capacity are evicted
// (deleted) oldest-first; other files under dir are left alone.
func openDiskStore(dir string, capacity int) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	s := &diskStore{dir: dir, index: newLRU[struct{}](capacity)}

	type onDisk struct {
		key   string
		mtime time.Time
	}
	var found []onDisk
	subdirs, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	for _, sub := range subdirs {
		if !sub.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			key, ok := entryKey(sub.Name(), f.Name())
			if !ok {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, onDisk{key: key, mtime: info.ModTime()})
		}
	}
	// Oldest first, so each put makes the newer entry the most recent
	// and capacity evicts the oldest. Ties break on the key for
	// determinism.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].key < found[j].key
	})
	for _, f := range found {
		s.unlink(s.index.put(f.key, struct{}{}))
	}
	return s, nil
}

// entryKey returns the key of the file name in fan-out directory sub
// if it names a store entry: a 64-character lowercase-hex key (what
// path writes) whose first two characters are sub, plus ".json".
// Anything else — a stray or hand-copied file — is not the store's to
// index or evict, and a short name would break path's slicing.
func entryKey(sub, name string) (string, bool) {
	key, ok := strings.CutSuffix(name, ".json")
	if !ok || len(key) != 2*sha256.Size || key[:2] != sub ||
		strings.TrimLeft(key, "0123456789abcdef") != "" {
		return "", false
	}
	return key, true
}

// path places key under a two-hex-character fan-out directory, keeping
// directory listings short at the default capacity.
func (s *diskStore) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// get loads and verifies the entry for key. Any failure — missing
// file, wrong schema, key or checksum mismatch, undecodable document —
// is a miss; corrupt files are deleted so the slot heals by re-solve.
// The second return distinguishes "miss" from "corrupt" for metrics.
func (s *diskStore) get(key string) (doc *analysis.RunJSON, corrupt bool) {
	if s == nil {
		return nil, false
	}
	path := s.path(key)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var f storeFile
	if err := json.Unmarshal(b, &f); err == nil && f.Schema == storeSchema && f.Key == key &&
		f.Sum == docSum(f.Doc) {
		var r analysis.RunJSON
		if err := json.Unmarshal(f.Doc, &r); err == nil {
			s.touch(key)
			return &r, false
		}
	}
	os.Remove(path)
	s.index.remove(key)
	return nil, true
}

// put spills one result. The document is marshaled once, checksummed,
// wrapped, written to a temp file in the destination directory, and
// renamed into place — readers (and crashes) see the old state or the
// new, never a torn write.
func (s *diskStore) put(key string, doc *analysis.RunJSON) error {
	db, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	b := storeBytes(key, db)
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.unlink(s.index.put(key, struct{}{}))
	return nil
}

// storeBytes is json.Marshal of the storeFile wrapping doc, the
// output of json.Marshal, written around doc's bytes: Marshal would
// scan and compact them again, and leave them as they are, since they
// are already compact and escaped. The schema is a constant and key and
// sum are hex, so none of the three strings needs escaping.
func storeBytes(key string, doc []byte) []byte {
	b := make([]byte, 0, len(doc)+len(key)+2*sha256.Size+64)
	b = append(b, `{"schema":"`+storeSchema+`","key":"`...)
	b = append(b, key...)
	b = append(b, `","sum":"`...)
	b = append(b, docSum(doc)...)
	b = append(b, `","doc":`...)
	b = append(b, doc...)
	return append(b, '}')
}

// touch records a hit: front of the LRU order, and a best-effort mtime
// bump so recency survives a restart's index rebuild. A hit on a file
// another daemon wrote into a shared directory joins the index here,
// within capacity like any put.
func (s *diskStore) touch(key string) {
	s.unlink(s.index.put(key, struct{}{}))
	now := time.Now()
	os.Chtimes(s.path(key), now, now)
}

// touchKey is touch for callers that hit the entry without reading its
// file — the memory LRU serving a result the store also holds. Without
// it a popular entry served purely from memory looks cold on disk, so
// it would be the first evicted and a restart's mtime-ordered index
// rebuild would invert the true access order.
func (s *diskStore) touchKey(key string) {
	if s == nil {
		return
	}
	if _, ok := s.index.get(key); ok {
		s.touch(key)
	}
}

// unlink deletes the files of evicted keys: get reads files by path
// without consulting the index, so a file left behind would keep
// serving hits past the configured capacity.
func (s *diskStore) unlink(evicted []string) {
	for _, k := range evicted {
		os.Remove(s.path(k))
	}
}

// len reports the indexed entry count.
func (s *diskStore) len() int {
	if s == nil {
		return 0
	}
	return s.index.len()
}

func docSum(doc []byte) string {
	h := sha256.Sum256(doc)
	return hex.EncodeToString(h[:])
}
