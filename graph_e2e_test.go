package repro_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro"
)

// graphE2EGolden holds, per seed-grid instance, the sha256 of the buffered
// and of the atomic engine's Metrics for the run below, recorded on the
// commit before graph-adaptive stopped compiling a route table (when the
// table path and the interface-scan path were still checked against each
// other here): routing decisions read straight off the distance table must
// reproduce that commit's output bit for bit.
var graphE2EGolden = map[string][2]string{
	"random-regular:n=24,k=3,seed=1": {
		"613a5b54738072f810e018bb23f9d7fce551421e4247635446d5692c5fd1f354",
		"2f0930cdbeaba1e976ef04f85805f3863bb99cfb28dc58957f452c9d90d4eddf",
	},
	"random-regular:n=32,k=4,seed=1": {
		"c12f49125578390e97f1b77ffcff2695795fc4cb83f7fa8a5602c05c1ee56b61",
		"f6cd4935da3deb08af2d7e87e8810df0f00917e4e30fb1b19485816d7e0f002b",
	},
	"random-regular:n=24,k=3,seed=2": {
		"d33797fdb22b9800f953bbae61177eec35f9baa2187c7708e74ef9de01b7ce02",
		"4ad623fecdaf853c1b3a015ef75ed78adaa0208d1d97fad344bd46a842ed1a82",
	},
	"random-regular:n=32,k=4,seed=2": {
		"f2e2d196de5cd2c12fec2fa5f67214cb9742e4ece4b077d045b3211d3f14d433",
		"f28fb244c22680cc1b50c42ef9651b0dc6e14f53cce5c83a366f3d42597e09b1",
	},
	"random-regular:n=24,k=3,seed=3": {
		"0a937ebc92a4068e701d33b200a8a4663fca0370f32e1e8a8e38e51ba22500ff",
		"59773bf2183a274f841055c7af111c7cd771bb9ec4395193ac14f66b5d818513",
	},
	"random-regular:n=32,k=4,seed=3": {
		"d60c0b27de33ea4d5a75e3d7760e4079820c83bd7827d7b543661e5fad667573",
		"f42bc13036df674599c91a940068bc07c04db5c687f1a1e19f3b0bbb17ac247a",
	},
	"random-regular:n=24,k=3,seed=4": {
		"86279afe2a4a73478cd87e7ee480b4c81e98f154e5c95b00ab7b5342584ddbf1",
		"b2ae1095ac514acf0c59642b658e23d5abde7f024729f21d14628ff776091725",
	},
	"random-regular:n=32,k=4,seed=4": {
		"fd5550d0f971d0e30300757243c02f021f7a7035e3d55910e16994a98afe0947",
		"5781d46425e3af8bf894ddc43755fb555d5264c3abd01de6c88b9c762aa9b75f",
	},
	"dragonfly:a=2,g=5": {
		"646e8433790ddeaca4b1e1545f14ef84af26d065dc539bdeabdf4fc5e059d237",
		"fdef095c52c7a5080ee1615ae2e3b2bdddaac7a893433ecc8a7790943dc50f9e",
	},
	"dragonfly:a=3,g=7": {
		"455edd078f755a2f2223ea2892cdd97db789fb9139b61af1b42952faa1923ff3",
		"1c800afe41f5d369a18adb225838c291925d73e580eed0d865693ec585e48f5e",
	},
	"dragonfly:a=4,g=9": {
		"61163c992bd9983c600ec452d4c6939d9e2134ee78a9413f513019bf9f517a21",
		"818cdd3886c22bfc72a1e866a38242f99f3b7a473c679c1b2e44e1b16c5f6ec3",
	},
	"hyperx:3x3": {
		"d13ffa853691113163f1b3a5808a87aa62ae86e5e2f9bb634b03f2069719e112",
		"3a663aca56682b9b54bdae989e5dbdaf32daf33945cd82bcc180e021c00efffe",
	},
	"fat-tree:leaves=6,spines=3": {
		"d4c259fbd6e7b65f183de164a9c1fdaabc3888a3fdc90f1da6459b69efe7e7dd",
		"bf4a7aabb6837bd5747323589ce79e3a3ae8cb4096a7c5b1ae536ea3ab7df442",
	},
}

// TestGeneratedTopologiesEndToEnd sweeps a seed grid of generated
// networks and requires, for every instance: the derived hop-layered
// queue order passes the mechanical QDG acyclicity check, both engines
// deliver every injected packet with the metrics recorded in
// graphE2EGolden, and the buffered engine's metrics are bit-identical
// between one and two workers (the determinism contract the closed-form
// topologies already honour).
func TestGeneratedTopologiesEndToEnd(t *testing.T) {
	var gens []string
	for seed := int64(1); seed <= 4; seed++ {
		gens = append(gens, fmt.Sprintf("random-regular:n=24,k=3,seed=%d", seed))
		gens = append(gens, fmt.Sprintf("random-regular:n=32,k=4,seed=%d", seed))
	}
	gens = append(gens,
		"dragonfly:a=2,g=5", "dragonfly:a=3,g=7", "dragonfly:a=4,g=9",
		"hyperx:3x3", "fat-tree:leaves=6,spines=3",
	)
	for _, gen := range gens {
		t.Run(gen, func(t *testing.T) {
			algo, err := repro.NewAlgorithm("graph-adaptive:" + gen)
			if err != nil {
				t.Fatal(err)
			}
			if err := repro.VerifyDeadlockFree(algo); err != nil {
				t.Fatalf("derived queue order is not deadlock-free: %v", err)
			}
			pat, err := repro.NewPattern("random", algo, 11)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(algo.Topology().Nodes() * 3)
			run := func(kind string, workers int) repro.Metrics {
				t.Helper()
				eng, err := repro.NewSimulator(kind, repro.Config{
					Algorithm: algo, Seed: 5, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				src := repro.NewStaticTraffic(pat, algo, 3, 13)
				res, err := eng.Run(context.Background(), src, repro.StaticPlan(1_000_000))
				if err != nil {
					t.Fatal(err)
				}
				if res.Metrics.Delivered != want {
					t.Fatalf("%s delivered %d of %d", kind, res.Metrics.Delivered, want)
				}
				return res.Metrics
			}
			digest := func(m repro.Metrics) string {
				return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", m))))
			}
			m1 := run("buffered", 1)
			if m2 := run("buffered", 2); m2 != m1 {
				t.Fatalf("metrics depend on worker count:\n 1: %+v\n 2: %+v", m1, m2)
			}
			got := [2]string{digest(m1), digest(run("atomic", 1))}
			if got != graphE2EGolden[gen] {
				t.Errorf("metrics digests (buffered, atomic)\n got      %q\n recorded %q", got, graphE2EGolden[gen])
			}
		})
	}
}
