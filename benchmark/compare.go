package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (exclusive), which is
// what the driver uses; fewer than two values give the value three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// position i*(n+1)/4 on a 1-based scale; j is clamped before delta
		// is taken, so small samples extrapolate exactly as Python does
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func readResults(path string) (resultFile, error) {
	var r resultFile
	blob, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(blob, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs.
func (r resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Traced {
			if v, ok := run.Report.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// verdict compares set b against set a for one metric. "unresolved" means
// either set's own spread (interquartile range over median) is wider than
// the bound, so a difference of the bound's size cannot be told from noise
// — unless every run of b reads better than every run of a.
func verdict(d metricDef, a, b []float64) string {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	if am == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	change := sign * (bm - am) / am
	wide := (aq3-aq1)/am > d.Bound || (bm != 0 && (bq3-bq1)/bm > d.Bound)
	if wide {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints, for every (end-to-end metric, workload), both sets'
// medians and quartiles, the bound and the verdict. It reports whether any
// pair came out worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: hosts or builds differ: %+v vs %+v\n", a.Host, b.Host)
	}
	fmt.Fprintf(w, "%-14s %-18s %6s  %36s  %36s  %6s  %s\n", "workload", "metric", "unit", "A q1/median/q3", "B q1/median/q3", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			aq1, am, aq3 := quartiles(va)
			bq1, bm, bq3 := quartiles(vb)
			v := verdict(d, va, vb)
			if v == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-14s %-18s %6s  %11.5g %11.5g %11.5g   %11.5g %11.5g %11.5g  %5.0f%%  %s\n",
				wl.name, d.Name, d.Unit, aq1, am, aq3, bq1, bm, bq3, 100*d.Bound, v)
		}
	}
	return anyWorse, nil
}
