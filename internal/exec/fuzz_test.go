package exec

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// decodeSpec decodes a RunSpec the way routesimd decodes a POST body: one
// JSON value, unknown fields refused.
func decodeSpec(data []byte) (RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s RunSpec
	err := dec.Decode(&s)
	return s, err
}

// FuzzRunSpec feeds arbitrary bytes through the daemon's decoding and then
// the spec layer: Canon and Validate must not panic, Canon must be
// idempotent, and a valid spec's Fingerprint must survive a JSON round trip
// of its canonical form.
func FuzzRunSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpec(data)
		if err != nil {
			return
		}
		c := s.Canon()
		if cc := c.Canon(); cc != c {
			t.Fatalf("Canon is not idempotent:\n once  %+v\n twice %+v", c, cc)
		}
		if s.Validate() != nil {
			return
		}
		blob, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeSpec(blob)
		if err != nil {
			t.Fatalf("canonical spec %s does not decode: %v", blob, err)
		}
		if got, want := back.Fingerprint("fuzz"), s.Fingerprint("fuzz"); got != want {
			t.Fatalf("fingerprint %s after a JSON round trip of %s, %s before", got, blob, want)
		}
	})
}

// FuzzTrafficAndFaults puts arbitrary strings into the traffic, faults and
// pattern grammars of a dynamic spec on the 3-cube and runs what compiles:
// Compile, Build and Source must refuse with a *FieldError or not at all,
// and five cycles of whatever they accept must not panic. Trace specs are
// skipped: they name a file, and routesimd refuses them before Compile.
func FuzzTrafficAndFaults(f *testing.F) {
	for _, seed := range [][3]string{
		{"mmpp:on=0.9,off=0.1,p10=0.05,p01=0.2", "", ""},
		{"onoff:hi=1,lo=0,period=8,on=2", "", ""},
		{"", "links:0.05:7@0", ""},
		{"", "node:3@10+20", ""},
		{"", "link:0:2@5", ""},
		{"", "", "hotspot:0.5"},
		{"", "", "leveled"},
		{"mmpp:on=0.9,off=0.1,p10=0.05,p01=0.2", "node:3@1+2,link:0:2@0", "hotspot:0.5"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, trafficSpec, faults, pattern string) {
		s := RunSpec{
			Algo: "hypercube-adaptive:3", Inject: "dynamic", Lambda: 0.5, Measure: 5, Seed: 1,
			Traffic: trafficSpec, Faults: faults, Pattern: pattern,
		}
		if !s.Storable() {
			return
		}
		refused := func(stage string, err error) {
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("%s refused %+v with %T, not a *FieldError: %v", stage, s, err, err)
			}
		}
		c, err := Compile(s)
		if err != nil {
			refused("Compile", err)
			return
		}
		eng, err := c.Build(1, nil)
		if err != nil {
			refused("Build", err)
			return
		}
		src, plan, err := c.Source()
		if err != nil {
			refused("Source", err)
			return
		}
		eng.Start(src, plan)
		for i := 0; i < 5; i++ {
			if done, _ := eng.Step(); done {
				break
			}
		}
	})
}
