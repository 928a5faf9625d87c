package exp

import (
	"context"
	"fmt"

	"repro/cm5"
	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/pattern"
)

// The scenario and collective experiment families go beyond the paper's
// evaluation: the workload catalogue of internal/pattern swept through
// all four irregular schedulers, and every collective operation run both
// as a direct CMMD node program and as a scheduled communication matrix.

// ScenarioSizes are the machine sizes of the scenario catalogue sweep.
var ScenarioSizes = []int{16, 64, 256}

// ScenarioBytes is the per-message size of the scenario sweep.
const ScenarioBytes = 256

// scenarioSeed fixes each (workload, machine size) pattern so the tables
// are canonical; only the stochastic generators consume it.
func scenarioSeed(n int) int64 { return int64(n) }

// ScenariosSpec builds the scenario sweep: every catalogue workload
// scheduled with each of LS/PS/BS/GS at every scenario machine size,
// one cell per (workload, size, algorithm).
func ScenariosSpec(cfg network.Config) *TableSpec {
	workloads := pattern.Workloads()
	rows := make([]string, len(workloads))
	for i, w := range workloads {
		rows[i] = w.Name
	}
	var cols []string
	for _, n := range ScenarioSizes {
		for _, alg := range IrregularAlgs {
			cols = append(cols, fmt.Sprintf("%s@N%d", alg, n))
		}
	}
	t := NewTable(fmt.Sprintf("Scenarios: catalogue workloads x irregular schedulers, %d B messages (ms)",
		ScenarioBytes), rows, cols)
	spec := &TableSpec{Name: "scenarios", Table: t}
	for r, w := range workloads {
		c := 0
		for _, n := range ScenarioSizes {
			for _, alg := range IrregularAlgs {
				w, col, n, alg := w, c, n, alg
				spec.AddCell(fmt.Sprintf("scenarios/%s/%s/N%d", w.Name, alg, n),
					func(ctx context.Context, _ int64, rec *Rec) error {
						p := w.Gen(n, ScenarioBytes, scenarioSeed(n))
						a, err := cm5.LookupAlgorithm(alg)
						if err != nil {
							return err
						}
						res, err := runJob(ctx, cm5.PatternJob(a, p, cm5.WithConfig(cfg)))
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
	t.Note = "Expected shape: LS collapses on hotspot (funnel serialization) and degrades with " +
		"density; GS stays at or near the best time everywhere; the permutation workloads need " +
		"only a handful of steps under the pairwise schedulers."
	return spec
}

// ScenarioStatsSize is the machine size of the per-pattern statistics
// table.
const ScenarioStatsSize = 64

// ScenarioStatsSpec builds the per-pattern statistics table of the
// catalogue at ScenarioStatsSize nodes: message count, density, sizes,
// fan-in, shape symmetry, and the greedy schedule's step count.
func ScenarioStatsSpec(cfg network.Config) *TableSpec {
	workloads := pattern.Workloads()
	rows := make([]string, len(workloads))
	for i, w := range workloads {
		rows[i] = w.Name
	}
	cols := []string{"msgs", "density %", "avg B", "max B", "fan-in", "symmetric", "GS steps"}
	t := NewTable(fmt.Sprintf("Scenario patterns at N=%d, %d B messages", ScenarioStatsSize, ScenarioBytes),
		rows, cols)
	spec := &TableSpec{Name: "scenario-stats", Table: t}
	for r, w := range workloads {
		r, w := r, w
		spec.AddCell(fmt.Sprintf("scenario-stats/%s", w.Name),
			func(ctx context.Context, _ int64, rec *Rec) error {
				p := w.Gen(ScenarioStatsSize, ScenarioBytes, scenarioSeed(ScenarioStatsSize))
				st := p.Stats()
				s, err := cm5.Plan(cm5.PatternJob(cm5.MustAlgorithm("GS"), p))
				if err != nil {
					return err
				}
				rec.Set(r, 0, "%d", st.Messages)
				rec.Set(r, 1, "%.1f", st.DensityPct)
				rec.Set(r, 2, "%.0f", st.AvgBytes)
				rec.Set(r, 3, "%d", st.MaxBytes)
				rec.Set(r, 4, "%d", st.MaxFanIn)
				rec.Set(r, 5, "%v", st.Symmetric)
				rec.Set(r, 6, "%d", s.NumSteps())
				return nil
			})
	}
	t.Note = "fan-in bounds rendezvous serialization (n-1 for hotspot, 1 for permutations); " +
		"GS steps lower-bounded by both fan-in and the densest node's degree."
	return spec
}

// CollectiveSizes is the machine-size scaling sweep of the collectives
// family; the dense collectives (allgather, transpose) stop at
// CollectiveDenseMax because their N^2 traffic is host-expensive to
// simulate beyond it.
var CollectiveSizes = []int{16, 64, 256, 1024}

// CollectiveDenseMax caps the dense collectives' sweep.
const CollectiveDenseMax = 256

// CollectiveBytes is the per-block size of the collectives sweep.
const CollectiveBytes = 256

// denseCollectives move Theta(N^2) messages.
var denseCollectives = map[string]bool{"allgather": true, "transpose": true}

// CollectivesSpec builds the collectives sweep: every collective run
// both as a direct CMMD node program and as its traffic matrix scheduled
// with BS (the balanced pairing handles arbitrary matrices in O(N^2)
// build time), across the scaling sizes. One cell per
// (collective, size, form).
func CollectivesSpec(cfg network.Config) *TableSpec {
	names := cmmd.CollectiveNames()
	var cols []string
	for _, n := range CollectiveSizes {
		cols = append(cols, fmt.Sprintf("CMMD@N%d", n), fmt.Sprintf("BS@N%d", n))
	}
	t := NewTable(fmt.Sprintf("Collectives: direct CMMD program vs BS-scheduled matrix, %d B blocks (ms)",
		CollectiveBytes), names, cols)
	spec := &TableSpec{Name: "collectives", Table: t}
	for r, name := range names {
		for ci, n := range CollectiveSizes {
			if denseCollectives[name] && n > CollectiveDenseMax {
				t.Set(r, 2*ci, "-")
				t.Set(r, 2*ci+1, "-")
				continue
			}
			r, name, n, ci := r, name, n, ci
			spec.AddCell(fmt.Sprintf("collectives/%s/N%d/cmmd", name, n),
				func(ctx context.Context, _ int64, rec *Rec) error {
					a, err := cm5.LookupAlgorithm(name)
					if err != nil {
						return err
					}
					res, err := runJob(ctx, cm5.NewJob(a, n, CollectiveBytes, cm5.WithConfig(cfg)))
					if err != nil {
						return err
					}
					rec.Set(r, 2*ci, "%.3f", res.Elapsed.Millis())
					return nil
				})
			spec.AddCell(fmt.Sprintf("collectives/%s/N%d/sched", name, n),
				func(ctx context.Context, _ int64, rec *Rec) error {
					p, err := cmmd.CollectivePattern(name, n, CollectiveBytes)
					if err != nil {
						return err
					}
					res, err := runJob(ctx, cm5.PatternJob(cm5.MustAlgorithm("BS"), p, cm5.WithConfig(cfg)))
					if err != nil {
						return err
					}
					rec.Set(r, 2*ci+1, "%.3f", res.Elapsed.Millis())
					return nil
				})
		}
	}
	t.Note = fmt.Sprintf("Dense collectives (allgather, transpose) stop at N=%d: their Theta(N^2) "+
		"traffic is host-expensive beyond it. CMMD programs use the natural algorithm (ring, "+
		"binomial tree, butterfly); BS schedules the collective's direct-delivery matrix, so for "+
		"forwarding algorithms like the ring allgather the two columns compare different wire "+
		"traffic for the same logical operation.", CollectiveDenseMax)
	return spec
}
