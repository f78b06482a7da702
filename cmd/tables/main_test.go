package main

import (
	"bytes"
	"errors"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as tables itself: with
// TABLES_AS_MAIN set, the arguments go to main.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_AS_MAIN") != "" {
		main()
	}
	os.Exit(m.Run())
}

// tables runs this binary as tables with the given arguments and returns
// its stdout, its stderr and its exit code.
func tables(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := osexec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TABLES_AS_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *osexec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// The atomic-engine tables over all five topologies are the recorded
// tables_atomic.txt, byte for byte: stdout carries no timing.
func TestAtomicTablesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "tables_atomic.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, code := tables(t, "-engine", "atomic", "-suite", "all", "-maxn", "10",
		"-warmup", "50", "-measure", "150", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errOut)
	}
	if out != string(want) {
		t.Errorf("stdout differs from tables_atomic.txt:\n%s", out)
	}
}

// A bad option is a usage error, refused before any cell runs.
func TestBadOptionIsUsageError(t *testing.T) {
	out, errOut, code := tables(t, "-traffic", "bogus")
	if code != 2 || out != "" {
		t.Errorf("exit %d with stdout %q, want exit 2 and no stdout; stderr:\n%s", code, out, errOut)
	}
}

// -score writes the relative errors of the run whose tables go to stdout:
// one line per paper table and one over all rows, which for a single
// table are the same numbers.
func TestScoreFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "score.txt")
	out, errOut, code := tables(t, "-engine", "atomic", "-table", "table9", "-maxn", "10",
		"-warmup", "50", "-measure", "150", "-score", path)
	if code != 0 || !strings.HasPrefix(out, "table9:") {
		t.Fatalf("exit %d, stdout %q:\n%s", code, out, errOut)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[2], "  table9      1 ") ||
		strings.TrimPrefix(lines[2], "  table9 ") != strings.TrimPrefix(lines[3], "  all    ") {
		t.Errorf("score file is not a header, a table9 line and an equal all line:\n%s", b)
	}
}
