package exp

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/network"
)

// fastSpecs builds every spec cheap enough for the unit-test loop; in
// -short mode (the CI race job) only the cheapest families run.
func fastSpecs(cfg network.Config) []*TableSpec {
	specs := []*TableSpec{
		Fig5Spec(cfg),
		Fig10Spec(cfg),
		AblationAsyncSpec(cfg),
		AblationFatTreeSpec(cfg),
		AblationCrossoverSpec(cfg),
	}
	if testing.Short() {
		return specs
	}
	t12, _, err := Table12Spec(cfg)
	if err != nil {
		panic(err)
	}
	return append(specs,
		Table11Spec(cfg),
		t12,
		AblationGreedySpec(cfg),
		AblationCrystalSpec(cfg),
	)
}

// TestParallelMatchesSerial renders every (fast) figure and table with a
// one-worker pool and an eight-worker pool: the output must be
// byte-identical — the orchestrator may not leak completion order into
// the results.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := network.DefaultConfig()
	render := func(workers int) []string {
		var out []string
		for _, spec := range fastSpecs(cfg) {
			r := &Runner{Workers: workers}
			tab, err := r.RunTable(context.Background(), spec)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, spec.Name, err)
			}
			out = append(out, tab.Render())
		}
		return out
	}
	serial := render(1)
	parallel := render(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("table %d differs between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// TestRunnerMatchesScalingSweep checks the machine-size sweeps stay
// deterministic across pool widths at reduced scale (full Fig6-8 sweeps
// run in the integration path).
func TestRunnerMatchesScalingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("machine-size sweep is host-expensive")
	}
	cfg := network.DefaultConfig()
	run := func(workers int) string {
		spec := Fig7Spec(cfg)
		tab, err := (&Runner{Workers: workers}).RunTable(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return tab.Render()
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("fig7 differs across widths:\n%s\nvs\n%s", a, b)
	}
}

func TestRunnerAllCellsRun(t *testing.T) {
	var ran atomic.Int64
	spec := &TableSpec{Name: "t", Table: NewTable("t", []string{"r"}, []string{"c"})}
	for i := 0; i < 100; i++ {
		spec.AddCell(fmt.Sprintf("t/%d", i), func(ctx context.Context, _ int64, rec *Rec) error {
			ran.Add(1)
			return nil
		})
	}
	if err := (&Runner{Workers: 7}).Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d cells, want 100", ran.Load())
	}
}

func TestRunnerFilter(t *testing.T) {
	var ran atomic.Int64
	spec := &TableSpec{Name: "t"}
	for i := 0; i < 10; i++ {
		spec.AddCell(fmt.Sprintf("t/alg%d/case", i), func(ctx context.Context, _ int64, rec *Rec) error {
			ran.Add(1)
			return nil
		})
	}
	r := &Runner{Workers: 4, Filter: regexp.MustCompile(`alg[0-2]/`)}
	if err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Fatalf("filter ran %d cells, want 3", ran.Load())
	}
}

func TestRunnerErrorPropagatesWithCellKey(t *testing.T) {
	boom := errors.New("boom")
	spec := &TableSpec{Name: "t"}
	spec.AddCell("t/good", func(ctx context.Context, _ int64, rec *Rec) error { return nil })
	spec.AddCell("t/bad", func(ctx context.Context, _ int64, rec *Rec) error { return boom })
	err := (&Runner{Workers: 2}).Run(context.Background(), spec)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "t/bad") {
		t.Fatalf("err %q does not name the failing cell", err)
	}
}

// TestRunnerCancellationStopsWorkers parks every in-flight cell on
// ctx.Done and fails one: the error must cancel the shared context,
// unblock the parked workers, and prevent any further cell from
// starting — without waiting on timeouts. The leased row runs the same
// sweep as one worker of a fleet over a disk store.
func TestRunnerCancellationStopsWorkers(t *testing.T) {
	const workers = 4
	for _, tc := range []struct {
		name   string
		runner func(t *testing.T) *Runner
	}{
		{"plain", func(t *testing.T) *Runner { return &Runner{Workers: workers} }},
		{"leased", func(t *testing.T) *Runner {
			r := storeRunner(t, t.TempDir(), workers)
			r.Lease = &LeaseConfig{Owner: "w1"}
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var started, lateStarts atomic.Int64
			boom := errors.New("boom")
			spec := &TableSpec{Name: "t"}
			// Workers 2..4 park until cancelled; worker 1 errors
			// immediately after the others are in flight.
			for i := 0; i < workers-1; i++ {
				spec.AddCell(fmt.Sprintf("t/parked%d", i), func(ctx context.Context, _ int64, rec *Rec) error {
					started.Add(1)
					<-ctx.Done()
					return nil
				})
			}
			spec.AddCell("t/fails", func(ctx context.Context, _ int64, rec *Rec) error {
				for started.Load() < workers-1 {
					runtime.Gosched()
				}
				return boom
			})
			for i := 0; i < 100; i++ {
				spec.AddCell(fmt.Sprintf("t/late%d", i), func(ctx context.Context, _ int64, rec *Rec) error {
					lateStarts.Add(1)
					return nil
				})
			}
			err := tc.runner(t).Run(context.Background(), spec)
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if lateStarts.Load() != 0 {
				t.Fatalf("%d cells started after cancellation", lateStarts.Load())
			}
		})
	}
}

func TestRunnerPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	spec := &TableSpec{Name: "t"}
	for i := 0; i < 10; i++ {
		spec.AddCell(fmt.Sprintf("t/%d", i), func(ctx context.Context, _ int64, rec *Rec) error {
			ran.Add(1)
			return nil
		})
	}
	err := (&Runner{Workers: 2}).Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d cells ran under a pre-cancelled context", ran.Load())
	}
}

func TestRunnerProgress(t *testing.T) {
	var events []Progress
	spec := &TableSpec{Name: "t"}
	for i := 0; i < 25; i++ {
		spec.AddCell(fmt.Sprintf("t/%d", i), func(ctx context.Context, _ int64, rec *Rec) error { return nil })
	}
	r := &Runner{Workers: 5, OnProgress: func(p Progress) { events = append(events, p) }}
	if err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if len(events) != 25 {
		t.Fatalf("got %d progress events, want 25", len(events))
	}
	maxDone := 0
	for _, p := range events {
		if p.Total != 25 {
			t.Fatalf("Total = %d, want 25", p.Total)
		}
		if p.Done > maxDone {
			maxDone = p.Done
		}
	}
	if maxDone != 25 {
		t.Fatalf("max Done = %d, want 25", maxDone)
	}
}

func TestRunnerFinishRunsAfterCells(t *testing.T) {
	var cells atomic.Int64
	finished := false
	spec := &TableSpec{Name: "t"}
	for i := 0; i < 20; i++ {
		spec.AddCell(fmt.Sprintf("t/%d", i), func(ctx context.Context, _ int64, rec *Rec) error {
			cells.Add(1)
			return nil
		})
	}
	spec.Finish = func() error {
		if cells.Load() != 20 {
			t.Errorf("Finish ran with %d/20 cells done", cells.Load())
		}
		finished = true
		return nil
	}
	if err := (&Runner{Workers: 8}).Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("Finish hook did not run")
	}
}

// TestRunnerFinishSkippedWhenFiltered: derived columns must stay blank
// (not NaN or bogus winners) when a filter excluded any of the spec's
// cells.
func TestRunnerFinishSkippedWhenFiltered(t *testing.T) {
	cfg := network.DefaultConfig()
	spec := AblationFatTreeSpec(cfg)
	r := &Runner{Workers: 2, Filter: regexp.MustCompile(`nomatch`)}
	tab, err := r.RunTable(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out := tab.Render(); strings.Contains(out, "NaN") {
		t.Fatalf("filtered table leaked derived NaN values:\n%s", out)
	}
	for r := range tab.RowHeaders {
		for c := range tab.ColHeaders {
			if tab.Cells[r][c] != "" {
				t.Fatalf("cell (%d,%d) = %q, want blank under all-excluding filter", r, c, tab.Cells[r][c])
			}
		}
	}
	// A partial filter must also suppress the Finish hook.
	spec2 := AblationCrossoverSpec(cfg)
	r2 := &Runner{Workers: 2, Filter: regexp.MustCompile(`ablation-crossover/GS/10%$`)}
	tab2, err := r2.RunTable(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if best := tab2.Cells[0][3]; best != "" {
		t.Fatalf("partially-filtered 'best' column = %q, want blank", best)
	}
	if tab2.Cells[0][2] == "" {
		t.Fatal("the selected GS cell should still have run")
	}
}

func TestRunnerFinishSkippedOnError(t *testing.T) {
	spec := &TableSpec{Name: "t"}
	spec.AddCell("t/bad", func(ctx context.Context, _ int64, rec *Rec) error { return errors.New("x") })
	spec.Finish = func() error {
		t.Error("Finish ran despite a cell error")
		return nil
	}
	if err := (&Runner{Workers: 1}).Run(context.Background(), spec); err == nil {
		t.Fatal("want error")
	}
}

func TestCellSeed(t *testing.T) {
	if CellSeed("a") != CellSeed("a") {
		t.Fatal("CellSeed not deterministic")
	}
	if CellSeed("a") == CellSeed("b") {
		t.Fatal("CellSeed collides on trivial keys")
	}
	if CellSeed("a") < 0 || CellSeed("b") < 0 {
		t.Fatal("CellSeed must be non-negative")
	}
	// The runner feeds the per-cell seed, perturbed by Runner.Seed.
	var got []int64
	spec := &TableSpec{Name: "t"}
	spec.AddCell("t/x", func(ctx context.Context, seed int64, rec *Rec) error {
		got = append(got, seed)
		return nil
	})
	for _, rs := range []int64{0, 7} {
		if err := (&Runner{Workers: 1, Seed: rs}).Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != CellSeed("t/x") {
		t.Fatalf("seed = %d, want CellSeed", got[0])
	}
	if got[1] != CellSeed("t/x")^7 {
		t.Fatalf("perturbed seed = %d, want CellSeed^7", got[1])
	}
}

func TestNewRunnerDefaults(t *testing.T) {
	if NewRunner(0).Workers < 1 {
		t.Fatal("NewRunner(0) must pick at least one worker")
	}
	if NewRunner(3).Workers != 3 {
		t.Fatal("NewRunner(3) must keep the requested width")
	}
}
