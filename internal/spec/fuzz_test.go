package spec

import "testing"

// FuzzSpecGrammar feeds arbitrary text to the algorithm and topology
// grammars. Neither may panic, a result is nil exactly when its error is
// not, and an algorithm's canonical spec parses back to the same text.
func FuzzSpecGrammar(f *testing.F) {
	for _, s := range []string{
		"hypercube-adaptive:30",
		"mesh-adaptive:1x1x1x1x1x1x1x1x1x1x1x1x1x1x1x1x2",
		"mesh-xy:3x2x4",
		"hypercube-adaptive:2",
		"graph:",
		"graph-adaptive:dragonfly:a=1,g=1",
		"torus-adaptive:3x3x3x3x3x3x3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if topo, err := Topology(s); (topo == nil) != (err != nil) {
			t.Fatalf("Topology(%q) = %v, %v", s, topo, err)
		}
		a, err := Algorithm(s)
		if (a == nil) != (err != nil) {
			t.Fatalf("Algorithm(%q) = %v, %v", s, a, err)
		}
		if err != nil {
			return
		}
		canon, err := Format(a)
		if err != nil {
			t.Fatalf("Format(Algorithm(%q)): %v", s, err)
		}
		b, err := Algorithm(canon)
		if err != nil {
			t.Fatalf("Algorithm(%q), the canonical form of %q: %v", canon, s, err)
		}
		if again, err := Format(b); err != nil || again != canon {
			t.Fatalf("%q formats as %q, which re-formats as %q (%v)", s, canon, again, err)
		}
	})
}
