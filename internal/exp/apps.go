package exp

import (
	"context"
	"fmt"

	"repro/cm5"
	"repro/internal/network"
	"repro/internal/store"
	"repro/internal/trace"
)

// The apps family closes the paper's actual loop: instead of synthetic
// patterns, it records the *real* communication of the three paper
// applications (CG, 2-D FFT, unstructured-mesh Euler — see
// internal/trace) and replays each recorded trace, collapsed to its
// traffic matrix, through every registered scheduler on several
// interconnects. Recording happens at most once per (app, nprocs) per
// process — the trace library memoizes, and with a store attached the
// recording itself persists content-addressed, so warm sweeps never
// touch the applications at all. Each cell's spec carries its trace's
// input hash plus trace.TraceVersion, so -resume/expdiff/the perf gate
// address trace-driven cells exactly like synthetic ones.

// AppsProcs are the processor counts of the apps sweep.
var AppsProcs = []int{8, 16}

// AppsTopologies are the interconnects of the apps sweep.
var AppsTopologies = []string{"fat-tree", "hypercube"}

// AppsSchedulers are the column algorithms: the paper's irregular
// schedulers plus the adaptive scheduler.
var AppsSchedulers = []string{"LS", "PS", "BS", "GS", "AS"}

// AppsSeed fixes the recorded traces (mesh generation, FFT input) so
// the tables are canonical.
const AppsSeed int64 = 1

// AppsSpecs builds the apps sweep against a trace library: one table
// per processor count (rows = applications, columns = scheduler x
// interconnect) plus the per-trace statistics table. Pass the library
// the sweep's runner store is attached to, so recordings persist; a
// memo-only library (trace.NewLibrary(nil)) still records each trace
// just once per sweep.
func AppsSpecs(cfg network.Config, lib *trace.Library) ([]*TableSpec, error) {
	var specs []*TableSpec
	for _, n := range AppsProcs {
		spec, err := appsSpec(cfg, lib, n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	stats, err := appsStatsSpec(cfg, lib)
	if err != nil {
		return nil, err
	}
	return append(specs, stats), nil
}

// appsSpec builds one processor count of the apps sweep. The trace
// hashes in the cell specs are input-addressed (trace.HashFor), so
// building the spec never records anything.
func appsSpec(cfg network.Config, lib *trace.Library, n int) (*TableSpec, error) {
	appNames := trace.Apps()
	var cols []string
	for _, tn := range AppsTopologies {
		for _, alg := range AppsSchedulers {
			cols = append(cols, fmt.Sprintf("%s@%s", alg, tn))
		}
	}
	t := NewTable(fmt.Sprintf("Apps: recorded application traces x schedulers x interconnects, P=%d (ms)", n),
		appNames, cols)
	spec := &TableSpec{Name: "apps", Table: t}
	for r, app := range appNames {
		thash, err := appsTraceHash(cfg, app, n)
		if err != nil {
			return nil, err
		}
		c := 0
		for _, tn := range AppsTopologies {
			for _, alg := range AppsSchedulers {
				key := fmt.Sprintf("apps/%s/%s/%s/P%d", app, tn, alg, n)
				extra := store.Spec{"trace": thash, "trace_version": trace.TraceVersion}
				js := cm5.Spec{Algorithm: alg, N: n, Trace: app, Topology: tn, Seed: AppsSeed}
				col := c
				spec.AddCellSpec(key, extra,
					func(ctx context.Context, _ int64, rec *Rec) error {
						res, err := runSpec(ctx, cfg, js, lib.Get)
						if err != nil {
							return err
						}
						rec.Set(r, col, "%.3f", res.Elapsed.Millis())
						rec.PutFloat("elapsed_ms", res.Elapsed.Millis())
						rec.PutInt("steps", res.Steps)
						rec.PutInt("messages", res.Messages)
						return nil
					})
				c++
			}
		}
	}
	t.Note = "Each row replays one recorded application trace — the app's real halo/transpose " +
		"traffic collapsed to a matrix — so schedule choice is measured on the paper's actual " +
		"irregular workloads. The replayed makespan covers the communication only; the stats " +
		"table's \"app ms\" column shows the span inside the recorded run itself."
	return spec, nil
}

// appsStatsSpec builds the per-trace statistics table: what each
// recorded application's communication actually looks like at each
// processor count.
func appsStatsSpec(cfg network.Config, lib *trace.Library) (*TableSpec, error) {
	appNames := trace.Apps()
	var rows []string
	for _, app := range appNames {
		for _, n := range AppsProcs {
			rows = append(rows, fmt.Sprintf("%s@P%d", app, n))
		}
	}
	cols := []string{"size", "events", "msgs", "density %", "avg B", "fan-in", "app ms"}
	t := NewTable("App traces: recorded communication per (application, processor count)", rows, cols)
	spec := &TableSpec{Name: "apps-stats", Table: t}
	r := 0
	for _, app := range appNames {
		for _, n := range AppsProcs {
			thash, err := appsTraceHash(cfg, app, n)
			if err != nil {
				return nil, err
			}
			row := r
			key := fmt.Sprintf("apps-stats/%s/P%d", app, n)
			extra := store.Spec{"trace": thash, "trace_version": trace.TraceVersion}
			spec.AddCellSpec(key, extra,
				func(ctx context.Context, _ int64, rec *Rec) error {
					tr, err := lib.Get(app, 0, n, AppsSeed, cfg)
					if err != nil {
						return err
					}
					p, err := tr.Pattern()
					if err != nil {
						return err
					}
					st := p.Stats()
					rec.Set(row, 0, "%d", tr.Size)
					rec.Set(row, 1, "%d", len(tr.Events))
					rec.Set(row, 2, "%d", st.Messages)
					rec.Set(row, 3, "%.1f", st.DensityPct)
					rec.Set(row, 4, "%.0f", st.AvgBytes)
					rec.Set(row, 5, "%d", st.MaxFanIn)
					rec.Set(row, 6, "%.3f", tr.Span().Millis())
					return nil
				})
			r++
		}
	}
	t.Note = "events = recorded wire messages (every halo exchange of every iteration); msgs = " +
		"nonzero entries after collapsing to a matrix. CG and Euler repeat one halo shape, so " +
		"events/msgs equals the iteration count; the FFT transpose sends each pair once per run. " +
		"app ms is the communication span inside the recorded run under its baseline schedule."
	return spec, nil
}

// appsTraceHash resolves the input-addressed content hash of one
// canonical apps-family trace (default problem size, AppsSeed).
func appsTraceHash(cfg network.Config, app string, nprocs int) (string, error) {
	a, err := trace.Lookup(app)
	if err != nil {
		return "", err
	}
	return trace.HashFor(a.Name, a.DefaultSize, nprocs, AppsSeed, cfg)
}
