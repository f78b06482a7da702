package store

import (
	"bufio"
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/obs"
)

// entryVersion is bumped whenever the on-disk entry schema changes; lines
// of another version are skipped on replay, never trusted.
const entryVersion = 1

// maxLine is the longest line, newline excluded, that Put writes and
// replay reads; replay skips a longer one as damaged.
const maxLine = 16 << 20

// line is the on-disk form of one entry: a fingerprint key and an opaque
// blob. The store never interprets the blob — callers own its schema
// (exec.Save and exec.Load for run results) and are expected to fold a
// schema version into the fingerprint, as RunSpec.Fingerprint does.
type line struct {
	V    int             `json:"v"`
	Key  string          `json:"key"`
	Blob json.RawMessage `json:"blob"`
}

// Options tunes an open store.
type Options struct {
	// Truncate discards any existing backing file instead of replaying it.
	Truncate bool
	// LRUCap bounds the number of entries held in memory; 0 means
	// unbounded (every replayed and written entry stays resident). The
	// backing file is append-only and keeps everything regardless — an
	// evicted entry is a cache miss, not data loss, but only a reopen
	// brings it back.
	LRUCap int
}

// Store is a content-addressed blob store: Get/Put keyed by fingerprint,
// an LRU-bounded in-memory tier, and an optional JSONL append-only backing
// file. All methods are safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	f     *os.File // nil for a memory-only store
	cap   int
	ents  map[string]*list.Element
	order *list.List // front = most recently used
	stats obs.CacheStats
}

type kv struct {
	key  string
	blob []byte
}

// Open opens the store backed by the JSONL file at path, replaying existing
// entries into the in-memory tier (last write wins per key). An empty path
// yields a memory-only store.
func Open(path string, o Options) (*Store, error) {
	s := &Store{cap: o.LRUCap, ents: map[string]*list.Element{}, order: list.New()}
	if path == "" {
		return s, nil
	}
	f, err := openAppend(path, o.Truncate)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	if !o.Truncate {
		if err := s.replay(path); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// replay loads the backing file into the in-memory tier. Malformed lines —
// including the partial trailing line a crash mid-append can leave behind —
// lines longer than maxLine, and entries of another schema version are
// skipped.
func (s *Store) replay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: replay: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine+1)
	skipping := false // inside a line longer than maxLine
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		i := bytes.IndexByte(data, '\n')
		switch {
		case skipping && i < 0:
			return len(data), nil, nil
		case skipping:
			skipping = false
			return i + 1, nil, nil
		case i < 0 && len(data) > maxLine:
			skipping = true
			return len(data), nil, nil
		}
		return bufio.ScanLines(data, atEOF)
	})
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			continue
		}
		if l.V != entryVersion || l.Key == "" {
			continue
		}
		s.insert(l.Key, l.Blob)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: replay: %w", err)
	}
	return nil
}

// insert places an entry at the front of the LRU, evicting from the back
// when over capacity. Caller holds s.mu (or is pre-publication replay).
func (s *Store) insert(key string, blob []byte) {
	if el, ok := s.ents[key]; ok {
		el.Value = kv{key, blob}
		s.order.MoveToFront(el)
		return
	}
	s.ents[key] = s.order.PushFront(kv{key, blob})
	for s.cap > 0 && s.order.Len() > s.cap {
		back := s.order.Back()
		delete(s.ents, back.Value.(kv).key)
		s.order.Remove(back)
		s.stats.Evict()
	}
}

// Get returns the blob stored under key and marks it recently used. The
// returned slice is shared — callers must not modify it.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.ents[key]
	if !ok {
		s.stats.Miss()
		return nil, false
	}
	s.order.MoveToFront(el)
	s.stats.Hit()
	return el.Value.(kv).blob, true
}

// Put stores blob under key, overwriting any previous entry, and appends
// it to the backing file when one is configured. The blob is retained —
// callers must not modify it afterwards.
func (s *Store) Put(key string, blob []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	rec, err := json.Marshal(line{V: entryVersion, Key: key, Blob: blob})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(rec) > maxLine {
		return fmt.Errorf("store: entry of %d bytes is longer than the %d-byte line limit", len(rec), maxLine)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(key, blob)
	s.stats.Put()
	if s.f != nil {
		return appendLine(s.f, rec)
	}
	return nil
}

// Len reports the number of entries resident in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Stats exposes the hit/miss/eviction counters.
func (s *Store) Stats() *obs.CacheStats { return &s.stats }

// Close closes the backing file, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
