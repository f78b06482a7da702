package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMemoryRoundTrip(t *testing.T) {
	st, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := st.Get("k1"); ok {
		t.Fatal("empty store claims a hit")
	}
	blob := []byte(`{"x":1}`)
	if err := st.Put("k1", blob); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("k1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get after Put: %q %v", got, ok)
	}
	c := st.Stats().Counts()
	if c.Hits != 1 || c.Misses != 1 || c.Puts != 1 || c.Evictions != 0 {
		t.Fatalf("counter mismatch: %+v", c)
	}
}

func TestLRUEviction(t *testing.T) {
	st, err := Open("", Options{LRUCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		if err := st.Put(fmt.Sprintf("k%d", i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d after 3 puts into cap-2 store", st.Len())
	}
	if _, ok := st.Get("k0"); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, ok := st.Get("k2"); !ok {
		t.Error("newest entry missing")
	}
	// k2 was just touched; putting k3 must now evict k1, not k2.
	if err := st.Put("k3", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("k1"); ok {
		t.Error("LRU order ignored the Get: k1 should be gone")
	}
	if st.Stats().Counts().Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Stats().Counts().Evictions)
	}
}

func TestReopenReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("b", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a", []byte(`{"v":3}`)); err != nil { // last write wins
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("reopened store holds %d entries, want 2", st2.Len())
	}
	got, ok := st2.Get("a")
	if !ok || string(got) != `{"v":3}` {
		t.Fatalf("replay lost the last write: %q %v", got, ok)
	}
}

// Eviction is a cache decision, not data loss: the JSONL backing file keeps
// every entry, so an evicted key is a hit again after reopen.
func TestEvictedEntrySurvivesOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := Open(path, Options{LRUCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	st.Put("a", []byte(`{"v":1}`))
	st.Put("b", []byte(`{"v":2}`)) // evicts a from memory
	if _, ok := st.Get("a"); ok {
		t.Fatal("a should be evicted from memory")
	}
	st.Close()
	st2, err := Open(path, Options{}) // unbounded reopen
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, ok := st2.Get("a"); !ok || string(got) != `{"v":1}` {
		t.Fatalf("evicted entry lost from disk: %q %v", got, ok)
	}
}

// The crash-safety fix: a partial trailing line (kill mid-append) must be
// trimmed on reopen, so the next append starts on a fresh line instead of
// gluing onto the fragment, and replay skips nothing that was complete.
func TestReopenTrimsPartialTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Put("a", []byte(`{"v":1}`))
	st.Close()

	// Simulate the crash: append half a record with no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"v":1,"key":"b","blob":{"tru`)
	f.Close()

	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("partial line counted as an entry: Len = %d", st2.Len())
	}
	if err := st2.Put("c", []byte(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Len() != 2 {
		t.Fatalf("append after trim corrupted the file: Len = %d, want 2", st3.Len())
	}
	if got, ok := st3.Get("c"); !ok || string(got) != `{"v":3}` {
		t.Fatalf("entry appended after trim unreadable: %q %v", got, ok)
	}
}

func TestTruncateDiscardsExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, _ := Open(path, Options{})
	st.Put("a", []byte(`{}`))
	st.Close()
	st2, err := Open(path, Options{Truncate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 0 {
		t.Fatalf("truncated store still holds %d entries", st2.Len())
	}
}

// Two holders of one file — cmd/tables and routesimd sharing a -cache —
// must not overwrite each other's lines. Before the file was opened
// O_APPEND both wrote from the offset they had sought to at Open, and the
// second Put landed on top of the first.
func TestTwoWritersShareOneFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	a, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Put("from-a", []byte(`{"writer":"a"}`)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("from-b", []byte(`{"writer":"b","pad":"longer than a's line"}`)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("from-a-again", []byte(`{"writer":"a"}`)); err != nil {
		t.Fatal(err)
	}

	c, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, key := range []string{"from-a", "from-b", "from-a-again"} {
		if _, ok := c.Get(key); !ok {
			t.Errorf("replay lost %q: one writer overwrote the other's line", key)
		}
	}
}

// A line longer than maxLine is one replay skips, so Put refuses to write
// one: the entry would read back as missing after a reopen.
func TestPutRefusesOverlongEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("big", []byte(`"`+strings.Repeat("x", maxLine)+`"`)); err == nil || !strings.Contains(err.Error(), "line limit") {
		t.Fatalf("Put of an entry over %d bytes: got %v, want a line-limit error", maxLine, err)
	}
	if _, ok := st.Get("big"); ok {
		t.Fatal("a refused entry is resident")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("a refused entry reached the file: %v, %v", fi, err)
	}
}
