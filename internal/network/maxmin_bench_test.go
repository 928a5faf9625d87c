package network

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// BenchmarkMaxmin drains a same-instant burst on the N=256 fat tree:
// 256 flows with seeded endpoints and sizes start at t=0, sharing one
// deferred solve, and every completion re-solves what is left.
// solves/op counts the max-min solves one drain costs.
func BenchmarkMaxmin(b *testing.B) {
	const n, nflows = 256, 256
	tp := mustFatTree(n)
	rng := rand.New(rand.NewSource(1))
	type flow struct{ src, dst, bytes int }
	burst := make([]flow, nflows)
	for i := range burst {
		src := rng.Intn(n)
		burst[i] = flow{src, (src + 1 + rng.Intn(n-1)) % n, 1024 + rng.Intn(15*1024)}
	}
	reg := obs.NewRegistry()
	solves := reg.Counter("net_maxmin_solves_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewDataNet(eng, tp, DefaultConfig())
		net.SetMetrics(&obs.SimMetrics{MaxminSolves: solves})
		eng.Schedule(0, func() {
			for _, f := range burst {
				net.Start(f.src, f.dst, f.bytes, nil)
			}
		})
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(solves.Value())/float64(b.N), "solves/op")
}
