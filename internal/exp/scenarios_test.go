package exp

import (
	"context"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/network"
)

// renderWith runs freshly-built specs under the given pool width and
// returns the concatenated rendered tables.
func renderWith(t *testing.T, workers int, filter string, build func() []*TableSpec) string {
	t.Helper()
	r := &Runner{Workers: workers}
	if filter != "" {
		r.Filter = regexp.MustCompile(filter)
	}
	specs := build()
	if err := r.Run(context.Background(), specs...); err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, s := range specs {
		out += s.Table.Render()
	}
	return out
}

func TestScenariosDeterministicAcrossPoolWidths(t *testing.T) {
	cfg := network.DefaultConfig()
	filter := "" // full sweep unless -short
	if testing.Short() {
		filter = "/N(16|64)$|scenario-stats"
	}
	build := func() []*TableSpec {
		return []*TableSpec{ScenariosSpec(cfg), ScenarioStatsSpec(cfg)}
	}
	serial := renderWith(t, 1, filter, build)
	wide := renderWith(t, 8, filter, build)
	if serial != wide {
		t.Fatal("scenario tables differ between 1 and 8 workers")
	}
	if serial == "" {
		t.Fatal("empty render")
	}
}

func TestScenariosCoverage(t *testing.T) {
	spec := ScenariosSpec(network.DefaultConfig())
	if len(spec.Table.RowHeaders) < 6 {
		t.Fatalf("only %d workloads, want >= 6", len(spec.Table.RowHeaders))
	}
	if len(ScenarioSizes) < 3 {
		t.Fatalf("only %d machine sizes, want >= 3", len(ScenarioSizes))
	}
	if want := len(spec.Table.RowHeaders) * len(ScenarioSizes) * len(IrregularAlgs); len(spec.Cells) != want {
		t.Fatalf("%d cells, want %d", len(spec.Cells), want)
	}
}

func TestScenarioStatsValues(t *testing.T) {
	cfg := network.DefaultConfig()
	tab, err := runTable(ScenarioStatsSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	row := func(name string) int {
		for i, h := range tab.RowHeaders {
			if h == name {
				return i
			}
		}
		t.Fatalf("no row %q", name)
		return -1
	}
	// hotspot at N=64: 63 messages funneling into one node.
	if got := tab.Cells[row("hotspot")][4]; got != "63" {
		t.Fatalf("hotspot fan-in = %q, want 63", got)
	}
	// permutation: one message per node, fan-in 1.
	if got := tab.Cells[row("permutation")][0]; got != "64" {
		t.Fatalf("permutation msgs = %q, want 64", got)
	}
	if got := tab.Cells[row("permutation")][4]; got != "1" {
		t.Fatalf("permutation fan-in = %q, want 1", got)
	}
	// stencil2d on the 8x8 torus: 4 neighbors per node, symmetric.
	if got := tab.Cells[row("stencil2d")][0]; got != "256" {
		t.Fatalf("stencil2d msgs = %q, want 256", got)
	}
	if got := tab.Cells[row("stencil2d")][5]; got != "true" {
		t.Fatalf("stencil2d symmetric = %q", got)
	}
}

func TestScenariosHotspotShape(t *testing.T) {
	// LS must be dramatically worse than GS on the funnel at N=64: the
	// whole point of isolating the hot-spot workload.
	cfg := network.DefaultConfig()
	spec := ScenariosSpec(cfg)
	r := &Runner{Workers: 4, Filter: regexp.MustCompile("scenarios/hotspot/(LS|GS)/N64")}
	if err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	tab := spec.Table
	var rowIdx, lsCol, gsCol int
	for i, h := range tab.RowHeaders {
		if h == "hotspot" {
			rowIdx = i
		}
	}
	for c, h := range tab.ColHeaders {
		switch h {
		case "LS@N64":
			lsCol = c
		case "GS@N64":
			gsCol = c
		}
	}
	ls, err := strconv.ParseFloat(tab.Cells[rowIdx][lsCol], 64)
	if err != nil {
		t.Fatalf("LS cell %q: %v", tab.Cells[rowIdx][lsCol], err)
	}
	gs, err := strconv.ParseFloat(tab.Cells[rowIdx][gsCol], 64)
	if err != nil {
		t.Fatalf("GS cell %q: %v", tab.Cells[rowIdx][gsCol], err)
	}
	// Both serialize on the single receiver; LS additionally idles
	// senders behind the funnel, so it must not beat GS.
	if ls < gs {
		t.Fatalf("LS %.3f beat GS %.3f on the hotspot", ls, gs)
	}
}

func TestCollectivesSpecSmallSizes(t *testing.T) {
	cfg := network.DefaultConfig()
	spec := CollectivesSpec(cfg)
	r := &Runner{Workers: 8, Filter: regexp.MustCompile("/N(16|64)/")}
	if err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	tab := spec.Table
	for ri, name := range tab.RowHeaders {
		for ci, h := range tab.ColHeaders {
			if h == "CMMD@N16" || h == "BS@N16" || h == "CMMD@N64" || h == "BS@N64" {
				v, err := strconv.ParseFloat(tab.Cells[ri][ci], 64)
				if err != nil || v <= 0 {
					t.Fatalf("%s %s = %q, want positive time", name, h, tab.Cells[ri][ci])
				}
			}
		}
	}
	// Dense collectives are pre-marked "-" beyond CollectiveDenseMax.
	for ri, name := range tab.RowHeaders {
		for ci, h := range tab.ColHeaders {
			if (name == "allgather" || name == "transpose") && (h == "CMMD@N1024" || h == "BS@N1024") {
				if tab.Cells[ri][ci] != "-" {
					t.Fatalf("%s %s = %q, want -", name, h, tab.Cells[ri][ci])
				}
			}
		}
	}
}
