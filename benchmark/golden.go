package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeed is the only seed whose simulated outputs are pinned. Any other
// seed is checked for errors, packet conservation and identical output from
// round to round.
const goldenSeed = 1

//go:embed golden.json
var goldenBlob []byte

// goldens maps scale -> workload -> cell -> digest.
type goldens map[string]map[string]map[string]string

func loadGoldens() (goldens, error) {
	g := goldens{}
	if err := json.Unmarshal(goldenBlob, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digestOf is the sha256 the goldens hold, cut to 96 bits: enough that a
// changed simulated statistic cannot pass, short enough to keep the file
// readable.
func digestOf(blob []byte) string {
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:12])
}

// checkOutputs marks operations whose simulated output is wrong: for the
// golden seed, a digest that differs from (or is missing in) want; for
// every seed, a digest that differs from the same cell's first appearance
// in this run. It returns the digests seen, for -update-golden.
func checkOutputs(m *measured, seed int64, want map[string]string) map[string]string {
	pinned := map[string]string{}
	for ri := range m.rounds {
		ops := m.rounds[ri].ops
		for i := range ops {
			o := &ops[i]
			if o.fail != "" || o.digest == "" || !o.golden {
				continue
			}
			if prev, ok := pinned[o.cell]; !ok {
				pinned[o.cell] = o.digest
			} else if prev != o.digest {
				o.fail = "output differs from an earlier round of the same run"
				continue
			}
			if seed != goldenSeed || want == nil {
				continue
			}
			if w, ok := want[o.cell]; !ok {
				o.fail = "no golden for this cell (run -update-golden at a commit that claims no gain)"
			} else if w != o.digest {
				o.fail = fmt.Sprintf("simulated output %s differs from golden %s", o.digest, w)
			}
		}
	}
	return pinned
}

// writeGoldens rewrites golden.json with stable key order.
func writeGoldens(path string, g goldens) error {
	// encoding/json sorts map keys, which is the stable order wanted here.
	blob, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
