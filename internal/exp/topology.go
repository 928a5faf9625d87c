package exp

import (
	"context"
	"fmt"

	"repro/cm5"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/topo"
)

// The topology family goes beyond the paper's single machine: every
// catalogue workload scheduled with each irregular scheduler over each
// interconnect of internal/topo — the paper's central claim (schedule
// choice interacts with network structure) swept across network
// structures the CM-5 never had.

// TopologySizes are the machine sizes of the topology sweep.
var TopologySizes = []int{64, 256}

// TopologyNames are the interconnects of the sweep, in print order.
var TopologyNames = []string{"fat-tree", "torus2d", "hypercube", "dragonfly"}

// TopologyBytes is the per-message size of the topology sweep.
const TopologyBytes = 256

// TopologySpecs builds the topology sweep, one table per machine size.
func TopologySpecs(cfg network.Config) []*TableSpec {
	specs := make([]*TableSpec, len(TopologySizes))
	for i, n := range TopologySizes {
		specs[i] = TopologySpec(cfg, n)
	}
	return specs
}

// TopologySpec builds one machine size of the topology sweep: every
// catalogue workload scheduled with each of LS/PS/BS/GS over each
// topology, one cell per (workload, topology, algorithm). Patterns are
// the same seeded matrices the scenario family uses, so the fat-tree
// column doubles as a cross-check against "scenarios".
func TopologySpec(cfg network.Config, n int) *TableSpec {
	workloads := pattern.Workloads()
	rows := make([]string, len(workloads))
	for i, w := range workloads {
		rows[i] = w.Name
	}
	var cols []string
	for _, tn := range TopologyNames {
		for _, alg := range IrregularAlgs {
			cols = append(cols, fmt.Sprintf("%s@%s", alg, tn))
		}
	}
	t := NewTable(fmt.Sprintf("Topologies: catalogue workloads x schedulers x interconnects, N=%d, %d B messages (ms)",
		n, TopologyBytes), rows, cols)
	spec := &TableSpec{Name: "topology", Table: t}
	for r, w := range workloads {
		c := 0
		for _, tn := range TopologyNames {
			for _, alg := range IrregularAlgs {
				w, col, tn, alg := w, c, tn, alg
				spec.AddCell(fmt.Sprintf("topology/%s/%s/%s/N%d", w.Name, tn, alg, n),
					func(ctx context.Context, _ int64, rec *Rec) error {
						tp, err := topo.New(tn, n, cfg.TopologyRates())
						if err != nil {
							return err
						}
						p := w.Gen(n, TopologyBytes, scenarioSeed(n))
						a, err := cm5.LookupAlgorithm(alg)
						if err != nil {
							return err
						}
						res, err := runJob(ctx, cm5.PatternJob(a, p,
							cm5.WithConfig(cfg), cm5.WithTopology(tp)))
						if err != nil {
							return err
						}
						rec.Set(r, col, "%.3f", res.Elapsed.Millis())
						return nil
					})
				c++
			}
		}
	}
	t.Note = "The fat-tree columns match the scenario family exactly (same seeded patterns, same " +
		"solver). Expected shape: the torus punishes non-neighbor traffic (every hop holds a " +
		"link), the hypercube flatters the butterfly and bisection workloads (their pairs are " +
		"cube edges), and the dragonfly's tapered global links make cross-group schedules the " +
		"bottleneck just as the thinned tree does on the CM-5."
	return spec
}
