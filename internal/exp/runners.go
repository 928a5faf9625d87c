package exp

import (
	"context"
	"fmt"
	"math/rand"

	"repro/cm5"
	"repro/internal/apps/fft"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// Fig5MessageSizes are the message sizes swept in Figure 5.
var Fig5MessageSizes = []int{0, 16, 64, 256, 512, 1024, 2048}

// MachineSizes is the machine-size sweep of Figures 6-8 and 11.
var MachineSizes = []int{16, 32, 64, 128, 256}

// Fig5Spec reproduces Figure 5: complete-exchange time versus message
// size on a 32-node machine for all four algorithms, one cell per
// (algorithm, message size).
func Fig5Spec(cfg network.Config) *TableSpec {
	return exchangeSweepBySizeSpec("fig5",
		"Figure 5: Complete exchange on 32 nodes (ms)", 32, Fig5MessageSizes, cfg)
}

func exchangeSweepBySizeSpec(name, title string, n int, sizes []int, cfg network.Config) *TableSpec {
	rows := make([]string, len(sizes))
	for i, s := range sizes {
		rows[i] = fmt.Sprintf("%d B", s)
	}
	t := NewTable(title, rows, ExchangeAlgs)
	spec := &TableSpec{Name: name, Table: t}
	for r, size := range sizes {
		for c, alg := range ExchangeAlgs {
			spec.AddCell(fmt.Sprintf("%s/%s/N%d/%dB", name, alg, n, size),
				func(ctx context.Context, _ int64, rec *Rec) error {
					a, err := cm5.LookupAlgorithm(alg)
					if err != nil {
						return err
					}
					res, err := runJob(ctx, cm5.NewJob(a, n, size, cm5.WithConfig(cfg)))
					if err != nil {
						return err
					}
					rec.Set(r, c, "%.3f", res.Elapsed.Millis())
					return nil
				})
		}
	}
	t.Note = "Expected shape (paper): LEX worst throughout; for large messages BEX < PEX < REX."
	return spec
}

// Fig6Spec reproduces Figure 6: complete exchange versus machine size
// at 0 and 256 bytes, one cell per (machine size, message size,
// algorithm).
func Fig6Spec(cfg network.Config) *TableSpec {
	return exchangeSweepByMachineSpec("fig6",
		"Figure 6: Complete exchange vs machine size, 0 B and 256 B (ms)", []int{0, 256}, cfg)
}

// Fig7Spec reproduces Figure 7 (512-byte messages).
func Fig7Spec(cfg network.Config) *TableSpec {
	return exchangeSweepByMachineSpec("fig7",
		"Figure 7: Complete exchange vs machine size, 512 B (ms)", []int{512}, cfg)
}

// Fig8Spec reproduces Figure 8 (1920-byte messages).
func Fig8Spec(cfg network.Config) *TableSpec {
	return exchangeSweepByMachineSpec("fig8",
		"Figure 8: Complete exchange vs machine size, 1920 B (ms)", []int{1920}, cfg)
}

var scalingAlgs = []string{"PEX", "REX", "BEX"}

func exchangeSweepByMachineSpec(name, title string, sizes []int, cfg network.Config) *TableSpec {
	var cols []string
	for _, size := range sizes {
		for _, alg := range scalingAlgs {
			cols = append(cols, fmt.Sprintf("%s@%dB", alg, size))
		}
	}
	rows := make([]string, len(MachineSizes))
	for i, n := range MachineSizes {
		rows[i] = fmt.Sprintf("N=%d", n)
	}
	t := NewTable(title, rows, cols)
	spec := &TableSpec{Name: name, Table: t}
	for r, n := range MachineSizes {
		c := 0
		for _, size := range sizes {
			for _, alg := range scalingAlgs {
				col := c
				spec.AddCell(fmt.Sprintf("%s/%s/N%d/%dB", name, alg, n, size),
					func(ctx context.Context, _ int64, rec *Rec) error {
						a, err := cm5.LookupAlgorithm(alg)
						if err != nil {
							return err
						}
						res, err := runJob(ctx, cm5.NewJob(a, n, size, cm5.WithConfig(cfg)))
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
	t.Note = "Expected shape (paper): at 0 B REX wins everywhere; at larger sizes PEX/BEX win on small machines and REX overtakes as N grows."
	return spec
}

// Table5Sizes are the array sizes of the paper's Table 5.
var Table5Sizes = []int{256, 512, 1024, 2048}

// Table5Spec reproduces Table 5: 2-D FFT wall time for every exchange
// algorithm on the given machine size, one cell per (array size,
// algorithm). Array sizes above maxSize are skipped (the 2048x2048 runs
// are host-expensive).
// Each cell regenerates its own input matrix from the size-derived seed,
// so cells share no mutable state.
func Table5Spec(nprocs int, maxSize int, cfg network.Config) *TableSpec {
	var sizes []int
	for _, s := range Table5Sizes {
		if maxSize <= 0 || s <= maxSize {
			sizes = append(sizes, s)
		}
	}
	rows := make([]string, len(sizes))
	for i, s := range sizes {
		rows[i] = fmt.Sprintf("%dx%d", s, s)
	}
	var cols []string
	for _, alg := range ExchangeAlgs {
		cols = append(cols, alg, alg+"(paper)")
	}
	t := NewTable(fmt.Sprintf("Table 5: 2-D FFT on %d processors (seconds)", nprocs), rows, cols)
	spec := &TableSpec{Name: fmt.Sprintf("table5-%d", nprocs), Table: t}
	for r, size := range sizes {
		for a, alg := range ExchangeAlgs {
			spec.AddCell(fmt.Sprintf("table5/P%d/%s/%dx%d", nprocs, alg, size, size),
				func(ctx context.Context, _ int64, rec *Rec) error {
					input := fftInput(size, size, int64(size))
					res, err := fft.Run2D(nprocs, input, alg, cfg)
					if err != nil {
						return err
					}
					rec.Set(r, 2*a, "%.3f", res.Elapsed.Seconds())
					if paper, ok := PaperTable5[nprocs][size][alg]; ok {
						rec.Set(r, 2*a+1, "%.3f", paper)
					} else {
						rec.Set(r, 2*a+1, "-")
					}
					return nil
				})
		}
	}
	t.Note = "Expected shape (paper): LEX worst (catastrophically at 256 procs); PEX~BEX; BEX best at 2048^2."
	return spec
}

func fftInput(rows, cols int, seed int64) [][]complex128 {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]complex128, rows)
	for r := range a {
		a[r] = make([]complex128, cols)
		for c := range a[r] {
			a[r][c] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	return a
}

// Fig10Sizes are the broadcast message sizes swept in Figure 10.
var Fig10Sizes = []int{0, 64, 256, 1024, 2048, 4096, 8192}

// Fig10Spec reproduces Figure 10: broadcast time versus message size on
// 32 nodes for LIB, REB and the system broadcast, one cell per
// (algorithm, message size).
func Fig10Spec(cfg network.Config) *TableSpec {
	algs := []string{"LIB", "REB", "SYS"}
	rows := make([]string, len(Fig10Sizes))
	for i, s := range Fig10Sizes {
		rows[i] = fmt.Sprintf("%d B", s)
	}
	t := NewTable("Figure 10: Broadcast on 32 nodes (ms)", rows, algs)
	spec := &TableSpec{Name: "fig10", Table: t}
	for r, size := range Fig10Sizes {
		for c, alg := range algs {
			spec.AddCell(fmt.Sprintf("fig10/%s/N32/%dB", alg, size),
				func(ctx context.Context, _ int64, rec *Rec) error {
					a, err := cm5.LookupAlgorithm(alg)
					if err != nil {
						return err
					}
					res, err := runJob(ctx, cm5.NewJob(a, 32, size, cm5.WithRoot(0), cm5.WithConfig(cfg)))
					if err != nil {
						return err
					}
					rec.Set(r, c, "%.3f", res.Elapsed.Millis())
					return nil
				})
		}
	}
	t.Note = "Expected shape (paper): LIB >> REB; system broadcast wins below ~1 KB, REB above."
	return spec
}

// Fig11Spec reproduces Figure 11: REB versus the system broadcast
// across machine sizes for several message sizes, one cell per
// (algorithm, machine size, message size).
func Fig11Spec(cfg network.Config) *TableSpec {
	sizes := []int{256, 1024, 4096}
	var cols []string
	for _, s := range sizes {
		cols = append(cols, fmt.Sprintf("REB@%dB", s))
	}
	cols = append(cols, "SYS@256B", "SYS@1024B", "SYS@4096B")
	rows := make([]string, len(MachineSizes))
	for i, n := range MachineSizes {
		rows[i] = fmt.Sprintf("N=%d", n)
	}
	t := NewTable("Figure 11: Recursive vs system broadcast across machine sizes (ms)", rows, cols)
	spec := &TableSpec{Name: "fig11", Table: t}
	for r, n := range MachineSizes {
		for ci, alg := range []string{"REB", "SYS"} {
			for c, s := range sizes {
				col := ci*len(sizes) + c
				spec.AddCell(fmt.Sprintf("fig11/%s/N%d/%dB", alg, n, s),
					func(ctx context.Context, _ int64, rec *Rec) error {
						a, err := cm5.LookupAlgorithm(alg)
						if err != nil {
							return err
						}
						res, err := runJob(ctx, cm5.NewJob(a, n, s, cm5.WithRoot(0), cm5.WithConfig(cfg)))
						if err != nil {
							return err
						}
						rec.Set(r, col, "%.3f", res.Elapsed.Millis())
						return nil
					})
			}
		}
	}
	t.Note = "Expected shape (paper): system broadcast ~flat in N; REB's crossover size grows with N."
	return spec
}

// Table11Densities and Table11Sizes are the synthetic sweep parameters.
var (
	Table11Densities = []int{10, 25, 50, 75}
	Table11Sizes     = []int{256, 512}
)

// Table11Spec reproduces Table 11: the four irregular schedulers on
// synthetic patterns of 10/25/50/75 % density with 256- and 512-byte
// messages on 32 processors, with the paper's milliseconds alongside.
// One cell per (algorithm, density, message size); pattern seeds stay
// fixed so the table is canonical.
func Table11Spec(cfg network.Config) *TableSpec {
	var cols []string
	for _, d := range Table11Densities {
		for _, s := range Table11Sizes {
			cols = append(cols, fmt.Sprintf("%d%%/%dB", d, s))
		}
	}
	var rows []string
	for _, alg := range IrregularAlgs {
		rows = append(rows, alg, alg+"(paper)")
	}
	t := NewTable("Table 11: Irregular scheduling of synthetic patterns on 32 processors (ms)", rows, cols)
	spec := &TableSpec{Name: "table11", Table: t}
	for a, alg := range IrregularAlgs {
		c := 0
		for _, density := range Table11Densities {
			for _, size := range Table11Sizes {
				col := c
				spec.AddCell(fmt.Sprintf("table11/%s/%d%%/%dB", alg, density, size),
					func(ctx context.Context, _ int64, rec *Rec) error {
						p := pattern.Synthetic(32, float64(density)/100, size, int64(density*1000+size))
						algo, err := cm5.LookupAlgorithm(alg)
						if err != nil {
							return err
						}
						res, err := runJob(ctx, cm5.PatternJob(algo, p, cm5.WithConfig(cfg)))
						if err != nil {
							return err
						}
						rec.Set(2*a, col, "%.3f", res.Elapsed.Millis())
						rec.Set(2*a+1, col, "%.3f", PaperTable11[alg][density][size])
						return nil
					})
				c++
			}
		}
	}
	t.Note = "Expected shape (paper): LS worst everywhere; GS best below 50% density; BS best at 75%."
	return spec
}

// RealPatternResult carries one Table 12 column's measurements.
type RealPatternResult struct {
	Problem    RealProblem
	Pattern    pattern.Matrix
	DensityPct float64
	AvgBytes   float64
	TimesMs    map[string]float64
	StepCounts map[string]int
}

// RealPatterns builds the halo patterns for the paper's five real
// problems from synthetic meshes of matching vertex counts partitioned
// over nprocs processors (see README.md for the substitution argument).
// The Euler problems use a distance-2 halo: the paper's meshes are
// three-dimensional, with far denser processor connectivity than a
// planar one-hop halo produces.
func RealPatterns(nprocs int) ([]pattern.Matrix, error) {
	var out []pattern.Matrix
	for _, prob := range PaperTable12 {
		m := mesh.Generate(prob.Vertices, int64(prob.Vertices))
		owner := mesh.PartitionRCB(m, nprocs)
		pt, err := mesh.NewPartition(m, owner, nprocs)
		if err != nil {
			return nil, err
		}
		if prob.BytesPerVertex == 32 { // Euler problems
			out = append(out, pt.WideHaloPattern(prob.BytesPerVertex))
		} else {
			out = append(out, pt.HaloPattern(prob.BytesPerVertex))
		}
	}
	return out, nil
}

// Table12Spec reproduces Table 12: the four schedulers on the real halo
// patterns (CG 16K and the four Euler meshes) on 32 processors, one
// cell per (problem, algorithm). The
// halo patterns are generated up front (deterministically) and shared
// read-only by the cells; the per-problem result structs are assembled
// by the Finish hook. The results slice is populated once the spec has
// run.
func Table12Spec(cfg network.Config) (*TableSpec, *[]RealPatternResult, error) {
	patterns, err := RealPatterns(32)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]string, len(PaperTable12))
	for i, prob := range PaperTable12 {
		cols[i] = prob.Name
	}
	var rows []string
	for _, alg := range IrregularAlgs {
		rows = append(rows, alg, alg+"(paper)")
	}
	rows = append(rows, "density %", "density(paper) %", "avg bytes", "avg bytes(paper)")
	t := NewTable("Table 12: Irregular scheduling of real patterns on 32 processors (ms)", rows, cols)

	// Cells record their time and step count as named scalars; the
	// Finish hook reads them back (CellFloat/CellInt) and folds them
	// into the map-based RealPatternResult form — so a result-store
	// replay feeds the derived rows exactly like a fresh simulation.
	results := &[]RealPatternResult{}

	spec := &TableSpec{Name: "table12", Table: t}
	cellKey := func(prob RealProblem, alg string) string {
		return fmt.Sprintf("table12/%s/%s", sanitizeKey(prob.Name), alg)
	}
	for c, prob := range PaperTable12 {
		p := patterns[c]
		for a, alg := range IrregularAlgs {
			spec.AddCell(cellKey(prob, alg),
				func(ctx context.Context, _ int64, rec *Rec) error {
					algo, err := cm5.LookupAlgorithm(alg)
					if err != nil {
						return err
					}
					res, err := runJob(ctx, cm5.PatternJob(algo, p, cm5.WithConfig(cfg)))
					if err != nil {
						return err
					}
					rec.PutFloat("ms", res.Elapsed.Millis())
					rec.PutInt("steps", res.Steps)
					rec.Set(2*a, c, "%.3f", res.Elapsed.Millis())
					rec.Set(2*a+1, c, "%.3f", prob.PaperMs[alg])
					return nil
				})
		}
	}
	spec.Finish = func() error {
		*results = (*results)[:0]
		for c, prob := range PaperTable12 {
			p := patterns[c]
			res := RealPatternResult{
				Problem:    prob,
				Pattern:    p,
				DensityPct: 100 * p.Density(),
				AvgBytes:   p.AvgBytes(),
				TimesMs:    map[string]float64{},
				StepCounts: map[string]int{},
			}
			for _, alg := range IrregularAlgs {
				res.TimesMs[alg] = spec.CellFloat(cellKey(prob, alg), "ms")
				res.StepCounts[alg] = spec.CellInt(cellKey(prob, alg), "steps")
			}
			t.Set(2*len(IrregularAlgs), c, "%.0f", res.DensityPct)
			t.Set(2*len(IrregularAlgs)+1, c, "%d", prob.PaperDensityPct)
			t.Set(2*len(IrregularAlgs)+2, c, "%.0f", res.AvgBytes)
			t.Set(2*len(IrregularAlgs)+3, c, "%d", prob.PaperAvgBytes)
			*results = append(*results, res)
		}
		return nil
	}
	t.Note = "Expected shape (paper): all real densities < 50% so GS wins every column; LS worst. " +
		"Patterns come from synthetic planar meshes of the paper's vertex counts (README.md)."
	return spec, results, nil
}

// sanitizeKey makes a problem name usable inside a cell key.
func sanitizeKey(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ':
			out = append(out, '_')
		case c == '.':
			// drop
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// ScheduleTables renders the paper's schedule tables 1-4 (8-processor
// complete exchange) and 7-10 (pattern P).
func ScheduleTables() string {
	p := pattern.PaperP(1)
	out := ""
	for _, s := range []*sched.Schedule{
		sched.LEX(8, 1), sched.PEX(8, 1), sched.REX(8, 1), sched.BEX(8, 1),
		sched.LS(p), sched.PS(p), sched.BS(p), sched.GS(p),
	} {
		out += s.Listing()
	}
	return out
}
