package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzStoreReplay: Open never fails or panics on a damaged backing file,
// and every key reads back the blob of its last well-formed line — a
// newline-terminated line of at most maxLine bytes that decodes as an entry
// of this version with a non-empty key; a trailing fragment with no newline
// is dropped. A Put after that survives a reopen, and so does everything
// replayed before it. The seeds are a valid journal, one cut off mid-line,
// one with a line of another version, an empty key, and a 16 MiB line.
func FuzzStoreReplay(f *testing.F) {
	valid := `{"v":1,"key":"a","blob":{"x":1}}` + "\n" +
		`{"v":1,"key":"b","blob":[1, 2]}` + "\n" +
		`{"v":1,"key":"a","blob":"last"}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"v":1,"key":"c","blob":{"tru`))
	f.Add([]byte(valid + `{"v":2,"key":"a","blob":"newer schema"}` + "\n"))
	f.Add([]byte(`{"v":1,"key":"","blob":1}` + "\n" + valid))
	long := `{"v":1,"key":"a","blob":"` + strings.Repeat("x", maxLine) + `"}`
	f.Add([]byte(valid + long + "\n" + `{"v":1,"key":"b","blob":2}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		lines := bytes.Split(data, []byte("\n"))
		for _, b := range lines[:len(lines)-1] {
			var l line
			if len(b) > maxLine || json.Unmarshal(b, &l) != nil || l.V != entryVersion || l.Key == "" {
				continue
			}
			want[l.Key] = string(l.Blob)
		}
		check := func(when string) {
			t.Helper()
			st, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("%s: Open: %v", when, err)
			}
			defer st.Close()
			if st.Len() != len(want) {
				t.Fatalf("%s: %d entries, want %d", when, st.Len(), len(want))
			}
			for k, blob := range want {
				if got, ok := st.Get(k); !ok || string(got) != blob {
					t.Fatalf("%s: Get(%q) = %q, %v; want %q", when, k, got, ok, blob)
				}
			}
		}
		check("replay")

		st, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put("fuzz-put", []byte(`{"put":[1,2]}`)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		want["fuzz-put"] = `{"put":[1,2]}`
		check("reopen after Put")
	})
}
