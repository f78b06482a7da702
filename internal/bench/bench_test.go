package bench

import (
	"math"
	"strings"
	"testing"
)

func TestTablesComplete(t *testing.T) {
	tables := Tables()
	if len(tables) != 12 {
		t.Fatalf("got %d experiments, want 12", len(tables))
	}
	for i, ex := range tables {
		if want := "table" + string(rune('1'+i)); i < 9 && ex.ID != want {
			t.Errorf("experiment %d id = %q, want %q", i, ex.ID, want)
		}
		if len(ex.Paper) < 5 {
			t.Errorf("%s: only %d paper rows", ex.ID, len(ex.Paper))
		}
		for _, r := range ex.Paper {
			if r.Lavg <= 0 || r.Lmax <= 0 {
				t.Errorf("%s: bad paper row %+v", ex.ID, r)
			}
			if ex.Injection == Dynamic && r.Ir <= 0 {
				t.Errorf("%s: dynamic row missing Ir: %+v", ex.ID, r)
			}
		}
	}
}

func TestFindTable(t *testing.T) {
	ex, err := FindTable("table7")
	if err != nil || ex.Pattern != Transp || ex.Injection != StaticN {
		t.Fatalf("FindTable(table7) = %+v, %v", ex, err)
	}
	if _, err := FindTable("table99"); err == nil {
		t.Fatal("FindTable accepted a bogus id")
	}
}

// TestRunStaticTables runs the four static-1 experiments at a small size and
// sanity-checks the measured values against the analytic expectations that
// also hold at n=6: complement is exactly 2n+1, the others are near their
// mean distance times two plus one.
func TestRunStaticTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		ex, err := FindTable(id)
		if err != nil {
			t.Fatal(err)
		}
		row, err := ex.Run(6, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if row.Delivered != 64 {
			t.Errorf("%s: delivered %d, want 64", id, row.Delivered)
		}
		if row.Lavg < 5 || row.Lavg > 14 {
			t.Errorf("%s: implausible Lavg %.2f", id, row.Lavg)
		}
		if id == "table2" && row.Lavg != 13 {
			t.Errorf("table2: Lavg = %.2f, want exactly 2n+1 = 13", row.Lavg)
		}
	}
}

// TestRunDynamicTable smoke-tests a dynamic experiment at a small size.
func TestRunDynamicTable(t *testing.T) {
	ex, err := FindTable("table9")
	if err != nil {
		t.Fatal(err)
	}
	row, err := ex.Run(6, Options{Seed: 3, Warmup: 100, Measure: 400})
	if err != nil {
		t.Fatal(err)
	}
	if row.Ir <= 20 || row.Ir > 100 {
		t.Errorf("Ir = %.1f%% implausible", row.Ir)
	}
	if row.Lavg < 5 || row.Lavg > 30 {
		t.Errorf("Lavg = %.2f implausible", row.Lavg)
	}
}

// TestAblationVariants checks the hung and ecube variants run and that the
// adaptive scheme beats the hung scheme on complement, the paper's headline.
func TestAblationVariants(t *testing.T) {
	ex, err := FindTable("table6") // complement, n packets
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := ex.Run(6, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hung, err := ex.Run(6, Options{Seed: 3, Algorithm: "hung"})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Cycles >= hung.Cycles {
		t.Errorf("adaptive drained in %d cycles, hung in %d; expected a clear win", adaptive.Cycles, hung.Cycles)
	}
	if _, err := ex.Run(6, Options{Seed: 3, Algorithm: "ecube"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(6, Options{Seed: 3, Algorithm: "bogus"}); err == nil {
		t.Fatal("bogus algorithm variant accepted")
	}
}

// TestRunAllRespectsMaxDims verifies dimension filtering.
func TestRunAllRespectsMaxDims(t *testing.T) {
	ex, err := FindTable("table2")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ex.RunAll(10, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Dims != 10 {
		t.Fatalf("RunAll(10) returned %d rows", len(rows))
	}
	// Exact closed form at the published size: complement, 1 packet.
	if rows[0].Lavg != 21 || rows[0].Lmax != 21 {
		t.Errorf("table2 n=10: got %.2f/%d, want the paper's exact 21/21", rows[0].Lavg, rows[0].Lmax)
	}
	if math.Abs(rows[0].Lavg-rows[0].Paper.Lavg) > 1e-9 {
		t.Errorf("paper row not attached correctly: %+v", rows[0].Paper)
	}
}

func TestFormat(t *testing.T) {
	ex, _ := FindTable("table9")
	out := ex.Format([]Row{{Dims: 10, Nodes: 1024, Lavg: 12.3, Lmax: 31, Ir: 92, Paper: PaperRow{10, 12.10, 30, 93}}})
	for _, want := range []string{"table9", "12.30", "12.10"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	const header = "  n      N |   Lavg   Lmax  Ir% |  paper:  Lavg   Lmax  Ir%"
	if lines := strings.Split(out, "\n"); len(lines) < 2 || lines[1] != header {
		t.Errorf("Format header line is not %q:\n%s", header, out)
	}
	ex2, _ := FindTable("table1")
	out2 := ex2.Format([]Row{{Dims: 10, Nodes: 1024, Lavg: 11.0, Lmax: 19, Paper: PaperRow{10, 10.96, 19, 0}}})
	if strings.Contains(out2, "Ir") {
		t.Errorf("static table format mentions Ir:\n%s", out2)
	}
}

// TestScore: the mean relative errors per paper table and over every row,
// I_r over the dynamic rows only, and no line for an extended table.
func TestScore(t *testing.T) {
	t1, _ := FindTable("table1")
	t9, _ := FindTable("table9")
	ext, _ := FindExtended("ext-mesh-random-n")
	out := Score([]Table{
		{t1, []Row{
			{Dims: 10, Lavg: 11.0, Lmax: 21, Paper: PaperRow{10, 10.96, 19, 0}},
			{Dims: 11, Lavg: 12.09, Lmax: 21, Paper: PaperRow{11, 12.09, 21, 0}},
		}},
		{t9, []Row{{Dims: 10, Lavg: 13.31, Lmax: 30, Ir: 100, Paper: PaperRow{10, 12.10, 30, 93}}}},
		{ext, []Row{{Dims: 8, Lavg: 7, Lmax: 9}}},
	})
	want := "score: mean relative error |measured - paper| / paper over each table's rows\n" +
		"  table    rows    L_avg    L_max      I_r\n" +
		"  table1      2    0.18%    5.26%        -\n" +
		"  table9      1   10.00%    0.00%    7.53%\n" +
		"  all         3    3.45%    3.51%    7.53%\n"
	if out != want {
		t.Errorf("Score:\n%s\nwant:\n%s", out, want)
	}
}
