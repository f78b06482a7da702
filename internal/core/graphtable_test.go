package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// seedGrid is the PR-8 generated-topology seed grid (the same instances
// graph_e2e_test.go sweeps end-to-end), one constructor per generator
// family per cell, plus two sizes that are not a multiple of the table's
// 32-destination fill block (a full block and a partial one on each tier).
func seedGrid(t *testing.T) map[string]*topology.Graph {
	t.Helper()
	grid := map[string]*topology.Graph{}
	add := func(name string, g *topology.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grid[name] = g
	}
	for seed := int64(1); seed <= 4; seed++ {
		g, err := topology.NewRandomRegular(24, 3, seed)
		add(fmt.Sprintf("random-regular:n=24,k=3,seed=%d", seed), g, err)
		g, err = topology.NewRandomRegular(32, 4, seed)
		add(fmt.Sprintf("random-regular:n=32,k=4,seed=%d", seed), g, err)
	}
	g, err := topology.NewRandomRegular(33, 4, 1)
	add("random-regular:n=33,k=4,seed=1", g, err)
	g, err = topology.NewRandomRegular(100, 3, 1)
	add("random-regular:n=100,k=3,seed=1", g, err)
	df, err := topology.NewDragonfly(4, 9)
	add("dragonfly:a=4,g=9", df, err)
	hx, err := topology.NewHyperX(3, 3)
	add("hyperx:3x3", hx, err)
	ft, err := topology.NewFatTree(6, 3)
	add("fat-tree:leaves=6,spines=3", ft, err)
	return grid
}

// maskEqual compares the fields the per-port PortMasks encoding defines —
// the table path deliberately leaves the unused grouped fields stale, so a
// whole-struct comparison would over-constrain it.
func maskEqual(a, b *core.PortMasks) bool {
	if a.PerPort != b.PerPort || a.StaticMask != b.StaticMask ||
		a.Dyn != b.Dyn || a.Work != b.Work {
		return false
	}
	for p := 0; p < 32; p++ {
		if a.StaticMask&(1<<uint(p)) != 0 && a.PortClass[p] != b.PortClass[p] {
			return false
		}
	}
	return true
}

// TestRouteTableMatchesScanPath: over the PR-8 seed grid, the compiled
// table's masks and moves must be bit-identical to the interface scan
// path's, state by state, on both memory tiers (full table and lazy
// per-destination rows).
func TestRouteTableMatchesScanPath(t *testing.T) {
	for name, g := range seedGrid(t) {
		t.Run(name, func(t *testing.T) {
			table, err := core.NewGraphAdaptive(g)
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := core.NewGraphAdaptive(g, core.GraphRouteTableFullLimit(0))
			if err != nil {
				t.Fatal(err)
			}
			scan := table.WithoutRouteTable()
			if _, still := scan.(*core.GraphAdaptive); !still {
				t.Fatalf("WithoutRouteTable changed the algorithm type: %T", scan)
			}
			n := g.Nodes()
			classes := []core.QueueClass{0}
			if table.NumClasses() > 2 {
				classes = append(classes, core.QueueClass(table.NumClasses()-2))
			}
			var bufT, bufL, bufS []core.Move
			var pmT, pmL, pmS core.PortMasks
			for node := int32(0); int(node) < n; node++ {
				for dst := int32(0); int(dst) < n; dst++ {
					for _, class := range classes {
						bufT = table.Candidates(node, class, 0, dst, bufT[:0])
						bufL = lazy.Candidates(node, class, 0, dst, bufL[:0])
						bufS = scan.Candidates(node, class, 0, dst, bufS[:0])
						if !reflect.DeepEqual(bufT, bufS) {
							t.Fatalf("state (%d,c%d)->%d: table moves %+v, scan moves %+v", node, class, dst, bufT, bufS)
						}
						if !reflect.DeepEqual(bufL, bufS) {
							t.Fatalf("state (%d,c%d)->%d: lazy-tier moves %+v, scan moves %+v", node, class, dst, bufL, bufS)
						}
						okT := table.PortMask(node, class, 0, dst, &pmT)
						okL := lazy.PortMask(node, class, 0, dst, &pmL)
						okS := scan.(core.PortMaskRouter).PortMask(node, class, 0, dst, &pmS)
						if okT != okS || okL != okS {
							t.Fatalf("state (%d,c%d)->%d: PortMask ok table=%v lazy=%v scan=%v", node, class, dst, okT, okL, okS)
						}
						if !okS {
							continue
						}
						if !maskEqual(&pmT, &pmS) {
							t.Fatalf("state (%d,c%d)->%d: table mask %032b/%v, scan mask %032b/%v", node, class, dst, pmT.StaticMask, pmT, pmS.StaticMask, pmS)
						}
						if !maskEqual(&pmL, &pmS) {
							t.Fatalf("state (%d,c%d)->%d: lazy mask %032b, scan mask %032b", node, class, dst, pmL.StaticMask, pmS.StaticMask)
						}
					}
				}
			}
		})
	}
}

// TestRouteTableLazyRowsConcurrent: the lazy tier's first-touch block
// builds must be race-free and agree with the full table under concurrent
// access from many goroutines (the engines call PortMask from every
// worker). All goroutines start inside the same 32-destination block, each
// at a different destination, so several build that block at once; every
// row any of them read through must be the one canonical published slice.
// Run with -race in CI.
func TestRouteTableLazyRowsConcurrent(t *testing.T) {
	g, err := topology.NewRandomRegular(64, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.NewGraphAdaptive(g)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := core.NewGraphAdaptive(g, core.GraphRouteTableFullLimit(0))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	n := int32(g.Nodes())
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, workers)
	sawRow := make([][]*[]uint32, workers)
	for w := 0; w < workers; w++ {
		sawRow[w] = make([]*[]uint32, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var pmF, pmL core.PortMasks
			<-start
			for i := int32(0); i < n; i++ {
				// Block by block, each goroutine entering a block 4
				// destinations after the previous one.
				d := i&^31 | (i+int32(w)*4)&31
				for node := int32(0); node < n; node++ {
					if node == d {
						continue
					}
					full.PortMask(node, 0, 0, d, &pmF)
					lazy.PortMask(node, 0, 0, d, &pmL)
					if pmF.StaticMask != pmL.StaticMask {
						errs <- fmt.Sprintf("node %d dst %d: full %032b lazy %032b", node, d, pmF.StaticMask, pmL.StaticMask)
						return
					}
				}
				sawRow[w][d] = lazy.LazyRow(d)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
	for d := int32(0); d < n; d++ {
		row := lazy.LazyRow(d)
		if row == nil {
			t.Fatalf("dst %d: no row published", d)
		}
		for w := range sawRow {
			if sawRow[w][d] != row {
				t.Fatalf("dst %d: goroutine %d saw row %p, canonical row is %p", d, w, sawRow[w][d], row)
			}
		}
	}
}

// TestRouteTableDisabledViaConfig: a scan-only instance reports itself
// through WithoutRouteTable as-is, and a wide (>32-port) topology falls
// back to the scan path with PortMask declining, matching the pre-table
// behavior.
func TestRouteTableScanOnlyInstances(t *testing.T) {
	g, err := topology.NewRandomRegular(16, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := core.NewGraphAdaptive(g, core.GraphWithoutRouteTable())
	if err != nil {
		t.Fatal(err)
	}
	if again := scan.WithoutRouteTable(); again != core.Algorithm(scan) {
		t.Fatalf("WithoutRouteTable on a scan-only instance built a new value")
	}
}
