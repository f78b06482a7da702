// Package store is the content-addressed result store behind cmd/tables
// -cache and the routesimd daemon: a Get/Put blob store keyed by
// fingerprint strings (exec.RunSpec.Fingerprint: sha256 of a run's spec and
// build id), with an in-memory LRU tier over a JSONL append-only backing
// file. It is the tree's one on-disk result format: a sweep and a daemon
// pointed at the same file serve each other's results (each sees the
// other's writes at its next Open), and a sweep killed part-way resumes
// from whatever it had stored.
package store

import (
	"bytes"
	"fmt"
	"os"
)

// openAppend opens path for appending line-oriented records. With truncate
// the file is reset to empty; otherwise existing content is preserved —
// except a partial trailing line (the residue of a crash mid-append), which
// is trimmed so the next appended record starts on a fresh line instead of
// gluing itself onto the fragment and corrupting both. The file is opened
// O_APPEND, so every record lands at the file's current end: two processes
// holding the same path interleave whole lines instead of overwriting each
// other at a shared offset.
func openAppend(path string, truncate bool) (*os.File, error) {
	flags := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if truncate {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	if err := trimPartialTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// trimPartialTail truncates f back to the end of its last complete
// ('\n'-terminated) line. A file with no newline at all is reset to empty.
func trimPartialTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	// Read backwards in chunks until a newline is found.
	const chunk = 64 * 1024
	end := size
	for end > 0 {
		start := end - chunk
		if start < 0 {
			start = 0
		}
		buf := make([]byte, end-start)
		if _, err := f.ReadAt(buf, start); err != nil {
			return err
		}
		if end == size && buf[len(buf)-1] == '\n' {
			return nil // already ends on a complete line
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			return f.Truncate(start + int64(i) + 1)
		}
		end = start
	}
	return f.Truncate(0)
}

// appendLine writes one record plus newline and syncs, so a kill leaves at
// most one partial trailing line — which openAppend trims on reopen and
// scanners skip on replay.
func appendLine(f *os.File, rec []byte) error {
	if _, err := f.Write(append(rec, '\n')); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	return f.Sync()
}
