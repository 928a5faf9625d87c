package exp

import (
	"context"
	"fmt"
	"maps"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/network"
	"repro/internal/store"
	"repro/internal/trace"
)

// countingSpec builds a deterministic 4x4 spec whose cells count their
// executions, with a Finish-derived final column — the full shape of
// the real experiment families, minus the simulation cost.
func countingSpec(ran *atomic.Int64) *TableSpec {
	rows := []string{"r0", "r1", "r2", "r3"}
	cols := []string{"a", "b", "c", "derived"}
	t := NewTable("counting", rows, cols)
	spec := &TableSpec{Name: "counting", Table: t}
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			key := fmt.Sprintf("counting/alg%d/N%d", c, r)
			spec.AddCell(key, func(ctx context.Context, seed int64, rec *Rec) error {
				ran.Add(1)
				rec.Set(r, c, "%d.%d", r, c)
				rec.PutFloat("v", float64(10*r+c))
				return nil
			})
		}
	}
	spec.Finish = func() error {
		for r := 0; r < 4; r++ {
			sum := 0.0
			for c := 0; c < 3; c++ {
				sum += spec.CellFloat(fmt.Sprintf("counting/alg%d/N%d", c, r), "v")
			}
			t.Set(r, 3, "%.0f", sum)
		}
		return nil
	}
	return spec
}

func storeRunner(t *testing.T, dir string, workers int) *Runner {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(workers)
	r.Store = st
	r.StoreBase = StoreBase(network.DefaultConfig())
	return r
}

// TestStoreReplayByteIdentical is the core cache contract: a storeless
// run, a cold store run, and a warm store run must render
// byte-identical tables — and the warm run must not execute a single
// cell function.
func TestStoreReplayByteIdentical(t *testing.T) {
	var ran atomic.Int64

	baseline, err := NewRunner(4).RunTable(context.Background(), countingSpec(&ran))
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 12 {
		t.Fatalf("storeless run executed %d cells, want 12", ran.Load())
	}

	dir := t.TempDir()
	ran.Store(0)
	cold := storeRunner(t, dir, 4)
	coldTab, err := cold.RunTable(context.Background(), countingSpec(&ran))
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 12 || cold.CacheMisses() != 12 || cold.CacheHits() != 0 {
		t.Fatalf("cold run: ran=%d misses=%d hits=%d, want 12/12/0",
			ran.Load(), cold.CacheMisses(), cold.CacheHits())
	}
	if coldTab.Render() != baseline.Render() {
		t.Fatalf("cold store run differs from storeless run:\n%s\nvs\n%s",
			coldTab.Render(), baseline.Render())
	}

	ran.Store(0)
	warm := storeRunner(t, dir, 4)
	warmTab, err := warm.RunTable(context.Background(), countingSpec(&ran))
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Fatalf("warm run executed %d cell functions, want 0 (all cached)", ran.Load())
	}
	if warm.CacheHits() != 12 || warm.CacheMisses() != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 12/0", warm.CacheHits(), warm.CacheMisses())
	}
	if warmTab.Render() != baseline.Render() {
		t.Fatalf("warm store run differs from storeless run:\n%s\nvs\n%s",
			warmTab.Render(), baseline.Render())
	}
}

// TestStoreResumeAfterPartialSweep models an interrupted sweep: a run
// that completed only a subset of cells (filter standing in for a
// mid-sweep kill — the store state is identical), then a full re-run
// that must reuse every completed cell and simulate only the rest.
func TestStoreResumeAfterPartialSweep(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64

	partial := storeRunner(t, dir, 2)
	partial.Filter = regexp.MustCompile(`alg[01]/`)
	if err := partial.Run(context.Background(), countingSpec(&ran)); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("partial run executed %d cells, want 8", ran.Load())
	}

	ran.Store(0)
	resume := storeRunner(t, dir, 2)
	tab, err := resume.RunTable(context.Background(), countingSpec(&ran))
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("resume executed %d cells, want only the 4 missing ones", ran.Load())
	}
	if resume.CacheHits() != 8 || resume.CacheMisses() != 4 {
		t.Fatalf("resume: hits=%d misses=%d, want 8/4", resume.CacheHits(), resume.CacheMisses())
	}

	var ran2 atomic.Int64
	want, err := NewRunner(1).RunTable(context.Background(), countingSpec(&ran2))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Render() != want.Render() {
		t.Fatalf("resumed table differs from a fresh full run:\n%s\nvs\n%s", tab.Render(), want.Render())
	}
}

// TestStoreSeedAndBaseChangeKeys: perturbing the runner seed or any
// StoreBase field (config, code version) must miss the cache — stored
// results are only reusable when everything they depend on matches.
func TestStoreSeedAndBaseChangeKeys(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64
	first := storeRunner(t, dir, 2)
	if err := first.Run(context.Background(), countingSpec(&ran)); err != nil {
		t.Fatal(err)
	}

	reseeded := storeRunner(t, dir, 2)
	reseeded.Seed = 99
	if err := reseeded.Run(context.Background(), countingSpec(&ran)); err != nil {
		t.Fatal(err)
	}
	if reseeded.CacheHits() != 0 || reseeded.CacheMisses() != 12 {
		t.Fatalf("reseeded run: hits=%d misses=%d, want 0/12", reseeded.CacheHits(), reseeded.CacheMisses())
	}

	rebased := storeRunner(t, dir, 2)
	rebased.StoreBase = store.Spec{"config": "other", "code_version": ResultsVersion + 1}
	if err := rebased.Run(context.Background(), countingSpec(&ran)); err != nil {
		t.Fatal(err)
	}
	if rebased.CacheHits() != 0 {
		t.Fatalf("rebased run hit %d cells across a base change", rebased.CacheHits())
	}

	same := storeRunner(t, dir, 2)
	if err := same.Run(context.Background(), countingSpec(&ran)); err != nil {
		t.Fatal(err)
	}
	if same.CacheHits() != 12 {
		t.Fatalf("identical spec hit only %d/12 cells", same.CacheHits())
	}
}

// TestStoreInvalidateForcesResimulation wires the store's Invalidate
// through a sweep: invalidated cells simulate again, the rest replay.
func TestStoreInvalidateForcesResimulation(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64
	if err := storeRunner(t, dir, 2).Run(context.Background(), countingSpec(&ran)); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := st.Invalidate(regexp.MustCompile(`alg0/`))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("invalidated %d records, want 4", n)
	}

	ran.Store(0)
	again := storeRunner(t, dir, 2)
	if err := again.Run(context.Background(), countingSpec(&ran)); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 || again.CacheHits() != 8 {
		t.Fatalf("post-invalidate: ran=%d hits=%d, want 4/8", ran.Load(), again.CacheHits())
	}
}

// TestEveryFamilyReplaysFromStore holds every experiment family to the
// cache contract on its cheapest cells: a storeless run, a cold store
// run (nothing cached) and a warm store run (everything cached, no cell
// executed) render byte-identical tables. Cell specs carry everything
// a family hashes into its content addresses beyond the key — fault
// plans, trace hashes — so this is also the check that those replay.
func TestEveryFamilyReplaysFromStore(t *testing.T) {
	// One cell filter per family; "" selects every cell, so the family's
	// Finish-derived columns replay too.
	cheapest := map[string]string{
		"fig5":               `/0B$`,
		"fig6":               `/N16/0B$`,
		"fig7":               `/N16/`,
		"fig8":               `/N16/`,
		"table5":             `/P32/PEX/256x256$`,
		"fig10":              `/0B$`,
		"fig11":              `/N16/256B$`,
		"table11":            `/10%/256B$`,
		"table12":            `/Euler_545/`,
		"scenarios":          `/N16$|^scenario-stats/`,
		"collectives":        `/N16/`,
		"topology":           `^topology/transpose/.*/N64$`,
		"faults":             `/N16$`,
		"apps":               `/P8$`,
		"ablation-async":     `/0B$`,
		"ablation-fattree":   ``,
		"ablation-greedy":    `/10%$`,
		"ablation-crossover": `/10%$`,
		"ablation-crystal":   `/10%/256B$`,
	}
	if len(cheapest) != len(FamilyNames()) {
		t.Errorf("%d rows for %d families", len(cheapest), len(FamilyNames()))
	}
	cfg := network.DefaultConfig()
	for _, name := range FamilyNames() {
		filter, ok := cheapest[name]
		if !ok {
			t.Errorf("family %s has no row", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			// render runs the family's selected cells, building its specs
			// against the runner's store (the apps family records its
			// traces there), and concatenates the rendered tables.
			render := func(r *Runner) string {
				t.Helper()
				if filter != "" {
					r.Filter = regexp.MustCompile(filter)
				}
				specs, err := FamilySpecsStore(name, cfg, r.Store)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Run(context.Background(), specs...); err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				for _, s := range specs {
					b.WriteString(s.Table.Render())
				}
				return b.String()
			}
			baseline := render(NewRunner(4))

			dir := t.TempDir()
			cold := storeRunner(t, dir, 4)
			if got := render(cold); got != baseline {
				t.Fatalf("cold store run differs from storeless run:\n%s\nvs\n%s", got, baseline)
			}
			if cold.CacheHits() != 0 || cold.CacheMisses() == 0 {
				t.Fatalf("cold run: hits=%d misses=%d, want 0 hits and some cells simulated",
					cold.CacheHits(), cold.CacheMisses())
			}
			if name == "apps" {
				// The recordings persist too: one trace record per app at
				// the selected machine size.
				recs, err := cold.Store.All()
				if err != nil {
					t.Fatal(err)
				}
				traces := 0
				for _, rec := range recs {
					if rec.Family == "trace" {
						traces++
					}
				}
				if traces != len(trace.Apps()) {
					t.Fatalf("store holds %d trace records after the cold run, want %d",
						traces, len(trace.Apps()))
				}
			}

			warm := storeRunner(t, dir, 4)
			if got := render(warm); got != baseline {
				t.Fatalf("warm store run differs from storeless run:\n%s\nvs\n%s", got, baseline)
			}
			if warm.CacheMisses() != 0 || warm.CacheHits() != cold.CacheMisses() {
				t.Fatalf("warm run: hits=%d misses=%d, want %d/0",
					warm.CacheHits(), warm.CacheMisses(), cold.CacheMisses())
			}
		})
	}
}

// TestStoreProgressMarksCachedCells: OnProgress must distinguish
// replayed cells so cmexp -v can report the resume split.
func TestStoreProgressMarksCachedCells(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64
	if err := storeRunner(t, dir, 1).Run(context.Background(), countingSpec(&ran)); err != nil {
		t.Fatal(err)
	}
	warm := storeRunner(t, dir, 1)
	cached := 0
	warm.OnProgress = func(p Progress) {
		if p.Cached {
			cached++
		}
	}
	if err := warm.Run(context.Background(), countingSpec(&ran)); err != nil {
		t.Fatal(err)
	}
	if cached != 12 {
		t.Fatalf("progress marked %d cells cached, want 12", cached)
	}
}

// cellHash is the content hash the runner addresses cell c of spec by.
func cellHash(t *testing.T, r *Runner, spec *TableSpec, c Cell) string {
	t.Helper()
	h, err := store.HashSpec(r.cellSpec(boundCell{spec: spec, cell: c}, CellSeed(c.Key)^r.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// assertCellSpecKeys pins what the stored cell key of family is
// addressed by: its family, key and seed, the sweep-wide StoreBase
// fields, and exactly the cell's own Spec fields named in extra —
// nothing parsed back out of the key.
func assertCellSpecKeys(t *testing.T, family, key string, extra ...string) {
	t.Helper()
	cfg := network.DefaultConfig()
	r := &Runner{Seed: 7, StoreBase: StoreBase(cfg)}
	specs, err := FamilySpecs(family, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bc *boundCell
	for _, s := range specs {
		for _, c := range s.Cells {
			if c.Key == key {
				bc = &boundCell{spec: s, cell: c}
			}
		}
	}
	if bc == nil {
		t.Fatalf("no cell %s in family %s", key, family)
	}
	seed := CellSeed(key) ^ r.Seed
	got := r.cellSpec(*bc, seed)
	want := append([]string{"family", "cell", "seed", "config", "code_version"}, extra...)
	slices.Sort(want)
	if keys := slices.Sorted(maps.Keys(got)); !slices.Equal(keys, want) {
		t.Fatalf("cellSpec(%s) keys = %v, want %v", key, keys, want)
	}
	if got["family"] != family || got["cell"] != key || got["seed"] != strconv.FormatInt(seed, 10) {
		t.Fatalf("cellSpec = %v, want family %s, cell %s, seed %d", got, family, key, seed)
	}
	for _, k := range extra {
		if got[k] != bc.cell.Spec[k] {
			t.Fatalf("cellSpec(%s)[%s] = %v, want the cell's %v", key, k, got[k], bc.cell.Spec[k])
		}
	}
}

// TestKeyFields: a cell whose Spec is empty is addressed by its family,
// key, seed and StoreBase alone. "transpose" is both a workload and a
// collective; the collectives cell still carries no field beyond its key.
func TestKeyFields(t *testing.T) {
	for _, c := range []struct{ family, key string }{
		{"fig5", "fig5/LEX/N32/256B"},
		{"topology", "topology/stencil2d/torus2d/GS/N256"},
		{"table11", "table11/LS/10%/256B"},
		{"collectives", "collectives/transpose/N16/sched"},
	} {
		assertCellSpecKeys(t, c.family, c.key)
	}
}
