package exec

import (
	"bytes"
	"encoding/json"
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
