package exp

import (
	"context"
	"fmt"

	"repro/cm5"
	"repro/internal/network"
	"repro/internal/pattern"
)

// AblationAsyncSpec quantifies the paper's Section 3.1 remark: how much
// of LEX's collapse is the synchronous-send constraint? It reruns LEX and
// PEX on 32 nodes with buffered (non-blocking) sends alongside the real
// CMMD synchronous semantics, one cell per (algorithm, send mode,
// message size).
func AblationAsyncSpec(cfg network.Config) *TableSpec {
	sizes := []int{0, 256, 1024, 2048}
	rows := make([]string, len(sizes))
	for i, s := range sizes {
		rows[i] = fmt.Sprintf("%d B", s)
	}
	cols := []string{"LEX sync", "LEX async", "PEX sync", "PEX async"}
	t := NewTable("Ablation: synchronous vs buffered sends on 32 nodes (ms)", rows, cols)
	spec := &TableSpec{Name: "ablation-async", Table: t}
	variants := []struct {
		alg   string
		async bool
	}{{"LEX", false}, {"LEX", true}, {"PEX", false}, {"PEX", true}}
	for r, size := range sizes {
		for c, v := range variants {
			mode := "sync"
			if v.async {
				mode = "async"
			}
			spec.AddCell(fmt.Sprintf("ablation-async/%s-%s/%dB", v.alg, mode, size),
				specCell(cfg, cm5.Spec{Algorithm: v.alg, N: 32, Bytes: size, Async: v.async}, r, c))
		}
	}
	t.Note = "Buffered sends recover much of LEX's loss (its funnel still serializes at the\n" +
		"receiver) and help PEX little — scheduling matters even with better primitives."
	return spec
}

// FlatTreeConfig returns a hypothetical machine whose fat tree does not
// thin toward the root: every cluster uplink matches the full node
// bandwidth. BEX's advantage over PEX should vanish on it.
func FlatTreeConfig() network.Config {
	cfg := network.DefaultConfig()
	cfg.Cluster4UpRate = 4 * cfg.NodeLinkRate
	cfg.ThinRatePerNode = cfg.NodeLinkRate
	return cfg
}

// AblationFatTreeSpec compares PEX and BEX on the real thinned fat tree
// and on a hypothetical full-bandwidth tree: the balanced schedule's win
// is a property of the thinning, not of the pairing order itself. One
// cell per (algorithm, tree, message size); the gain columns derive from
// the measurement cells in the Finish hook.
func AblationFatTreeSpec(cfg network.Config) *TableSpec {
	sizes := []int{512, 1024, 2048}
	rows := make([]string, len(sizes))
	for i, s := range sizes {
		rows[i] = fmt.Sprintf("%d B", s)
	}
	cols := []string{"PEX thin", "BEX thin", "gain %", "PEX flat", "BEX flat", "gain %"}
	t := NewTable("Ablation: BEX's advantage vs fat-tree thinning, 32 nodes (ms)", rows, cols)
	spec := &TableSpec{Name: "ablation-fattree", Table: t}
	flat := FlatTreeConfig()

	variants := []struct {
		alg  string
		cfg  network.Config
		tree string
		col  int
	}{
		{"PEX", cfg, "thin", 0}, {"BEX", cfg, "thin", 1},
		{"PEX", flat, "flat", 3}, {"BEX", flat, "flat", 4},
	}
	for r, size := range sizes {
		for _, v := range variants {
			spec.AddCell(fmt.Sprintf("ablation-fattree/%s-%s/%dB", v.alg, v.tree, size),
				func(ctx context.Context, _ int64, rec *Rec) error {
					res, err := runSpec(ctx, v.cfg, cm5.Spec{Algorithm: v.alg, N: 32, Bytes: size}, nil)
					if err != nil {
						return err
					}
					rec.PutFloat("secs", res.Elapsed.Seconds())
					rec.Set(r, v.col, "%.3f", res.Elapsed.Millis())
					return nil
				})
		}
	}
	spec.Finish = func() error {
		secs := func(alg, tree string, size int) float64 {
			return spec.CellFloat(fmt.Sprintf("ablation-fattree/%s-%s/%dB", alg, tree, size), "secs")
		}
		for r, size := range sizes {
			t.Set(r, 2, "%.1f", 100*(1-secs("BEX", "thin", size)/secs("PEX", "thin", size)))
			t.Set(r, 5, "%.1f", 100*(1-secs("BEX", "flat", size)/secs("PEX", "flat", size)))
		}
		return nil
	}
	t.Note = "gain % = BEX improvement over PEX. On the flat tree the schedules tie."
	return spec
}

// AblationGreedySpec compares the deterministic next-available greedy
// scheduler with randomized tie-breaking across densities: step counts
// and simulated times, one cell per (density, deterministic|randomized).
// The best-of-5 randomized scan stays inside one cell so its fixed seed
// sequence is preserved.
func AblationGreedySpec(cfg network.Config) *TableSpec {
	densities := []int{10, 25, 50, 75, 90}
	rows := make([]string, len(densities))
	for i, d := range densities {
		rows[i] = fmt.Sprintf("%d%%", d)
	}
	cols := []string{"GS steps", "GS ms", "GS-rand steps", "GS-rand ms (best of 5)"}
	t := NewTable("Ablation: greedy tie-breaking on 32 processors, 256 B (ms)", rows, cols)
	spec := &TableSpec{Name: "ablation-greedy", Table: t}
	for r, density := range densities {
		spec.AddCell(fmt.Sprintf("ablation-greedy/det/%d%%", density),
			func(ctx context.Context, _ int64, rec *Rec) error {
				res, err := runSpec(ctx, cfg, cm5.Spec{Algorithm: "GS", N: 32, Bytes: 256,
					Workload: cm5.SyntheticWorkload, Density: float64(density) / 100,
					Seed: int64(density)}, nil)
				if err != nil {
					return err
				}
				rec.Set(r, 0, "%d", res.Steps)
				rec.Set(r, 1, "%.3f", res.Elapsed.Millis())
				return nil
			})
		// Hand-built, not a cm5.Spec: the trials share one pattern
		// seed but vary the GSR seed, and a Spec has one seed for both.
		randKey := fmt.Sprintf("ablation-greedy/rand/%d%%", density)
		spec.AddCell(randKey,
			func(ctx context.Context, cellSeed int64, rec *Rec) error {
				p := pattern.Synthetic(32, float64(density)/100, 256, int64(density))
				// base is 0 under the canonical Runner.Seed of 0 (the
				// runner hands the cell CellSeed(key) exactly), keeping
				// the published table's 0..4 scan; cmexp -seed shifts it.
				base := cellSeed ^ CellSeed(randKey)
				gsr := cm5.MustAlgorithm("GSR")
				bestSteps, bestMs := 0, -1.0
				for trial := int64(0); trial < 5; trial++ {
					res, err := runJob(ctx, cm5.PatternJob(gsr, p,
						cm5.WithConfig(cfg), cm5.WithSeed(base^trial)))
					if err != nil {
						return err
					}
					if bestMs < 0 || res.Elapsed.Millis() < bestMs {
						bestMs = res.Elapsed.Millis()
						bestSteps = res.Steps
					}
				}
				rec.Set(r, 2, "%d", bestSteps)
				rec.Set(r, 3, "%.3f", bestMs)
				return nil
			})
	}
	t.Note = "Randomized tie-breaking rarely beats the deterministic scan by much:\n" +
		"the step count is dominated by the busiest processor's degree."
	return spec
}

// AblationCrystalSpec compares the paper's direct irregular schedulers
// with the crystal router — the hypercube store-and-forward baseline the
// paper cites (Fox et al. 1988) — across densities and message sizes,
// one cell per (case, scheduler); the "best" column derives in the
// Finish hook.
func AblationCrystalSpec(cfg network.Config) *TableSpec {
	type cse struct {
		density int
		size    int
	}
	cases := []cse{{10, 256}, {10, 1024}, {25, 256}, {25, 1024}, {50, 256}, {50, 1024}, {75, 256}}
	rows := make([]string, len(cases))
	for i, c := range cases {
		rows[i] = fmt.Sprintf("%d%%/%dB", c.density, c.size)
	}
	algs := []string{"GS", "BS", "Crystal"}
	cols := []string{"GS", "BS", "Crystal", "best"}
	t := NewTable("Extension: direct scheduling vs crystal router, 32 processors (ms)", rows, cols)
	spec := &TableSpec{Name: "ablation-crystal", Table: t}
	cellKey := func(alg string, c cse) string {
		return fmt.Sprintf("ablation-crystal/%s/%d%%/%dB", alg, c.density, c.size)
	}
	for r, c := range cases {
		for a, alg := range algs {
			spec.AddCell(cellKey(alg, c),
				func(ctx context.Context, _ int64, rec *Rec) error {
					res, err := runSpec(ctx, cfg, cm5.Spec{Algorithm: alg, N: 32, Bytes: c.size,
						Workload: cm5.SyntheticWorkload, Density: float64(c.density) / 100,
						Seed: int64(c.density + c.size)}, nil)
					if err != nil {
						return err
					}
					rec.PutFloat("ms", res.Elapsed.Millis())
					rec.Set(r, a, "%.3f", res.Elapsed.Millis())
					return nil
				})
		}
	}
	spec.Finish = func() error {
		for r, c := range cases {
			best := 0
			for a := 1; a < len(algs); a++ {
				if spec.CellFloat(cellKey(algs[a], c), "ms") < spec.CellFloat(cellKey(algs[best], c), "ms") {
					best = a
				}
			}
			t.Set(r, 3, "%s", algs[best])
		}
		return nil
	}
	t.Note = "Store-and-forward routing wins only on dense patterns of small messages\n" +
		"(overhead amortization); the paper's direct schedules win everywhere else."
	return spec
}

// AblationCrossoverSpec sweeps pattern density finely to locate where
// the greedy scheduler loses to the fixed pairwise/balanced schedules —
// the paper places the crossover at 50%. One cell per (density,
// scheduler); the "best" column derives in the Finish hook.
func AblationCrossoverSpec(cfg network.Config) *TableSpec {
	densities := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	rows := make([]string, len(densities))
	for i, d := range densities {
		rows[i] = fmt.Sprintf("%d%%", d)
	}
	algs := []string{"PS", "BS", "GS"}
	cols := []string{"PS", "BS", "GS", "best"}
	t := NewTable("Ablation: GS-vs-BS density crossover, 32 processors, 256 B (ms)", rows, cols)
	spec := &TableSpec{Name: "ablation-crossover", Table: t}
	cellKey := func(alg string, density int) string {
		return fmt.Sprintf("ablation-crossover/%s/%d%%", alg, density)
	}
	for r, density := range densities {
		for a, alg := range algs {
			spec.AddCell(cellKey(alg, density),
				func(ctx context.Context, _ int64, rec *Rec) error {
					res, err := runSpec(ctx, cfg, cm5.Spec{Algorithm: alg, N: 32, Bytes: 256,
						Workload: cm5.SyntheticWorkload, Density: float64(density) / 100,
						Seed: int64(7000 + density)}, nil)
					if err != nil {
						return err
					}
					rec.PutFloat("ms", res.Elapsed.Millis())
					rec.Set(r, a, "%.3f", res.Elapsed.Millis())
					return nil
				})
		}
	}
	spec.Finish = func() error {
		for r, density := range densities {
			best := 0
			for a := 1; a < len(algs); a++ {
				if spec.CellFloat(cellKey(algs[a], density), "ms") < spec.CellFloat(cellKey(algs[best], density), "ms") {
					best = a
				}
			}
			t.Set(r, 3, "%s", algs[best])
		}
		return nil
	}
	t.Note = "The paper's rule of thumb: greedy below ~50% density, balanced above."
	return spec
}
