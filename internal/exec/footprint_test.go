package exec

import (
	"runtime"
	"testing"
)

// TestEngineFootprint pins what building an engine allocates. Queue slots
// and link buffers hold 4-byte packet references, and the packet tables
// start at one record per node, so a build costs its slot count times four
// bytes plus flags, not times the 32 bytes of a packet: about 7.9 MB for the
// 4096-node graph spec (17 buffer classes, 28.8 MB with a packet per slot)
// and 3.5 MB for the 12-cube (12.9 MB). Compiling, which builds the graph's
// distance table, is outside the measurement.
func TestEngineFootprint(t *testing.T) {
	cases := []struct {
		spec  RunSpec
		limit float64 // MB
	}{
		{RunSpec{Algo: "graph-adaptive", Topology: "graph:random-regular:n=4096,k=3,seed=1000009", Inject: "dynamic", Lambda: 0.05}, 12},
		{RunSpec{Algo: "hypercube-adaptive:12", Inject: "dynamic"}, 5},
	}
	for _, tc := range cases {
		c, err := Compile(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			eng, err := c.Build(workers, nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(eng)
			mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
			t.Logf("%s %s, %d workers: build allocates %.2f MB", tc.spec.Algo, tc.spec.Topology, workers, mb)
			if mb > tc.limit {
				t.Errorf("%s %s, %d workers: build allocates %.2f MB, limit %.0f MB", tc.spec.Algo, tc.spec.Topology, workers, mb, tc.limit)
			}
		}
	}
}
