package bench

import (
	"strings"
	"testing"
)

func TestExtendedSuiteWellFormed(t *testing.T) {
	suite := ExtendedSuite()
	if len(suite) < 8 {
		t.Fatalf("extended suite has only %d experiments", len(suite))
	}
	seen := map[string]bool{}
	for _, ex := range suite {
		if !strings.HasPrefix(ex.ID, "ext-") {
			t.Errorf("%s: extended ids must start with ext-", ex.ID)
		}
		if seen[ex.ID] {
			t.Errorf("duplicate id %s", ex.ID)
		}
		seen[ex.ID] = true
		if len(ex.Sizes) == 0 || ex.Algo == "" || ex.Pattern == "" {
			t.Errorf("%s: incomplete definition", ex.ID)
		}
		if ex.Injection == Dynamic && (ex.Lambda <= 0 || ex.Lambda > 1) {
			t.Errorf("%s: bad lambda %v", ex.ID, ex.Lambda)
		}
	}
}

func TestFindExtended(t *testing.T) {
	ex, err := FindExtended("ext-torus-random-n")
	if err != nil || ex.Injection != StaticN {
		t.Fatalf("FindExtended = %+v, %v", ex, err)
	}
	if _, err := FindExtended("ext-nope"); err == nil {
		t.Fatal("bogus extended id accepted")
	}
}

func TestExtendedRunSmall(t *testing.T) {
	// Static: smallest size of each topology drains completely.
	for _, id := range []string{"ext-mesh-random-n", "ext-torus-random-n", "ext-shuffle-random-n", "ext-ccc-random-n"} {
		ex, err := FindExtended(id)
		if err != nil {
			t.Fatal(err)
		}
		size := ex.Sizes[0]
		row, err := ex.Run(size, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if row.Delivered != int64(row.Nodes*size) {
			t.Errorf("%s: delivered %d, want %d", id, row.Delivered, row.Nodes*size)
		}
		if row.Lavg <= 0 {
			t.Errorf("%s: Lavg = %v", id, row.Lavg)
		}
	}
	// Dynamic: a short run produces sane observables.
	ex, err := FindExtended("ext-torus-random-dyn")
	if err != nil {
		t.Fatal(err)
	}
	row, err := ex.Run(8, Options{Seed: 3, Warmup: 100, Measure: 300})
	if err != nil {
		t.Fatal(err)
	}
	if row.Ir <= 10 || row.Ir > 100 {
		t.Errorf("Ir = %.1f implausible", row.Ir)
	}
}

func TestExtendedFormat(t *testing.T) {
	ex, _ := FindExtended("ext-mesh-random-dyn")
	out := ex.Format([]Row{{Dims: 8, Nodes: 64, Lavg: 12.5, Lmax: 40, Ir: 97}})
	for _, want := range []string{"ext-mesh-random-dyn", "12.50", "Ir"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	ex2, _ := FindExtended("ext-mesh-random-n")
	out2 := ex2.Format([]Row{{Dims: 8, Nodes: 64, Lavg: 12.5, Lmax: 40, Cycles: 99}})
	if !strings.Contains(out2, "cycles") || strings.Contains(out2, "Ir") {
		t.Errorf("static format wrong:\n%s", out2)
	}
}

func TestExtendedRunAllRespectsMax(t *testing.T) {
	ex, _ := FindExtended("ext-ccc-random-n")
	rows, err := ex.RunAll(5, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Dims != 5 {
		t.Fatalf("RunAll(5) returned %d rows", len(rows))
	}
}
