package network

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// maxminTopologies builds one instance of every registered topology
// family at n nodes.
func maxminTopologies(t *testing.T, n int) []topo.Topology {
	t.Helper()
	rates := DefaultConfig().TopologyRates()
	var out []topo.Topology
	for _, name := range topo.Names() {
		tp, err := topo.New(name, n, rates)
		if err != nil {
			t.Fatalf("New(%s, %d): %v", name, n, err)
		}
		out = append(out, tp)
	}
	return out
}

// TestMaxMinFairnessProperty checks the defining property of a max-min
// fair allocation on every topology family, over randomized flow sets:
// no flow's rate can be increased without decreasing the rate of some
// flow with an equal-or-smaller rate. Concretely, every flow must have
// a bottleneck link on its path that is (a) saturated and (b) carries
// no flow with a larger rate — if no such link existed, the flow could
// grow at nobody's expense (slack everywhere) or only at the expense of
// strictly larger flows (not max-min).
func TestMaxMinFairnessProperty(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(7))
	for _, tp := range maxminTopologies(t, n) {
		for trial := 0; trial < 20; trial++ {
			eng := sim.NewEngine()
			net := NewDataNet(eng, tp, DefaultConfig())
			nflows := 1 + rng.Intn(48)
			eng.Schedule(0, func() {
				var flows []*Flow
				for i := 0; i < nflows; i++ {
					src := rng.Intn(n)
					dst := rng.Intn(n)
					if src == dst {
						continue
					}
					flows = append(flows, net.Start(src, dst, 4000+rng.Intn(8000), nil))
				}
				flush(net)
				checkMaxMin(t, tp, flows)
			})
			if _, err := eng.Run(); err != nil {
				t.Fatalf("%s: %v", tp.Name(), err)
			}
		}
	}
}

// checkMaxMin asserts the bottleneck characterization of max-min
// fairness for the given active flows.
func checkMaxMin(t *testing.T, tp topo.Topology, flows []*Flow) {
	t.Helper()
	const tol = 1e-6 // relative float tolerance
	// Aggregate per-link usage and the max rate crossing each link.
	usage := map[int]float64{}
	maxRate := map[int]float64{}
	routes := make([][]int, len(flows))
	for i, f := range flows {
		routes[i] = tp.RouteAppend(nil, f.Src, f.Dst)
		for _, l := range routes[i] {
			usage[l] += f.Rate()
			if f.Rate() > maxRate[l] {
				maxRate[l] = f.Rate()
			}
		}
	}
	// Feasibility: no link oversubscribed.
	for l, u := range usage {
		if c := tp.Link(l).Cap; u > c*(1+tol) {
			t.Fatalf("%s: link %s oversubscribed: %g > cap %g", tp.Name(), tp.Link(l).Name, u, c)
		}
	}
	// Max-min: every flow has a saturated bottleneck where it is maximal.
	for i, f := range flows {
		if f.Rate() <= 0 {
			t.Fatalf("%s: flow %d->%d has non-positive rate %g", tp.Name(), f.Src, f.Dst, f.Rate())
		}
		hasBottleneck := false
		for _, l := range routes[i] {
			c := tp.Link(l).Cap
			saturated := usage[l] >= c*(1-tol)
			maximal := f.Rate() >= maxRate[l]*(1-tol)
			if saturated && maximal {
				hasBottleneck = true
				break
			}
		}
		if !hasBottleneck {
			t.Fatalf("%s: flow %d->%d (rate %g) has no saturated bottleneck link where it is maximal — allocation is not max-min fair",
				tp.Name(), f.Src, f.Dst, f.Rate())
		}
	}
}
