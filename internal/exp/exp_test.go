package exp

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/network"
)

// runTable runs spec on every CPU and returns its table.
func runTable(spec *TableSpec) (*Table, error) {
	return NewRunner(0).RunTable(context.Background(), spec)
}

func cell(t *testing.T, tab *Table, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Cells[r][c], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", r, c, tab.Cells[r][c], err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", []string{"r1", "r2"}, []string{"a", "b"})
	tab.Set(0, 0, "%d", 1)
	tab.Set(1, 1, "%.1f", 2.5)
	tab.Note = "note here"
	out := tab.Render()
	for _, want := range []string{"Demo", "r1", "r2", "a", "b", "1", "2.5", "note here"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	tab, err := runTable(Fig5Spec(network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// Columns: LEX PEX REX BEX. Rows ordered by Fig5MessageSizes.
	for r := range Fig5MessageSizes {
		lex, pex, bex := cell(t, tab, r, 0), cell(t, tab, r, 1), cell(t, tab, r, 3)
		if lex <= pex || lex <= bex {
			t.Fatalf("row %d: LEX %.3f must be worst (PEX %.3f, BEX %.3f)", r, lex, pex, bex)
		}
	}
	// Large-message ordering: BEX <= PEX < REX at 2048 B on 32 nodes.
	last := len(Fig5MessageSizes) - 1
	pex, rex, bex := cell(t, tab, last, 1), cell(t, tab, last, 2), cell(t, tab, last, 3)
	if !(bex <= pex && pex < rex) {
		t.Fatalf("2048B ordering: BEX %.3f <= PEX %.3f < REX %.3f violated", bex, pex, rex)
	}
}

func TestFig6ShapeZeroBytes(t *testing.T) {
	tab, err := runTable(Fig6Spec(network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// Columns 0..2 are PEX/REX/BEX at 0B: REX must win at every machine
	// size (paper: only lg N rendezvous).
	for r := range MachineSizes {
		pex, rex, bex := cell(t, tab, r, 0), cell(t, tab, r, 1), cell(t, tab, r, 2)
		if rex >= pex || rex >= bex {
			t.Fatalf("N=%d at 0B: REX %.3f should beat PEX %.3f and BEX %.3f",
				MachineSizes[r], rex, pex, bex)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tab, err := runTable(Fig10Spec(network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// At 0 B the system broadcast crushes both data-network algorithms.
	if sys := cell(t, tab, 0, 2); sys >= cell(t, tab, 0, 1) {
		t.Fatalf("system broadcast should win at 0 B")
	}
	// At 8 KB REB wins.
	lastRow := len(Fig10Sizes) - 1
	if reb := cell(t, tab, lastRow, 1); reb >= cell(t, tab, lastRow, 2) {
		t.Fatalf("REB should win at 8 KB")
	}
	// LIB always worst.
	for r := range Fig10Sizes {
		if lib := cell(t, tab, r, 0); lib <= cell(t, tab, r, 1) {
			t.Fatalf("LIB should be worse than REB at row %d", r)
		}
	}
}

func TestTable11Shape(t *testing.T) {
	tab, err := runTable(Table11Spec(network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// Rows: LS, LS(paper), PS, PS(paper), BS, ..., GS at 2*3.
	lsRow, psRow, bsRow, gsRow := 0, 2, 4, 6
	cols := len(tab.ColHeaders)
	for c := 0; c < cols; c++ {
		ls := cell(t, tab, lsRow, c)
		for _, r := range []int{psRow, bsRow, gsRow} {
			if ls <= cell(t, tab, r, c) {
				t.Fatalf("col %s: LS %.3f must be worst", tab.ColHeaders[c], ls)
			}
		}
	}
	// GS best at 10% and 25% density (first four columns).
	for c := 0; c < 4; c++ {
		gs := cell(t, tab, gsRow, c)
		if gs >= cell(t, tab, psRow, c) || gs >= cell(t, tab, bsRow, c) {
			t.Fatalf("col %s: GS %.3f should beat PS/BS", tab.ColHeaders[c], gs)
		}
	}
	// At 75% density GS loses its lead (paper: BS best there).
	for c := 6; c < 8; c++ {
		gs := cell(t, tab, gsRow, c)
		bs := cell(t, tab, bsRow, c)
		if gs < bs {
			t.Fatalf("col %s: GS %.3f should not beat BS %.3f at 75%%", tab.ColHeaders[c], gs, bs)
		}
	}
}

func TestTable12Shape(t *testing.T) {
	spec, res, err := Table12Spec(network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := runTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	results := *res
	if len(results) != len(PaperTable12) {
		t.Fatalf("%d results", len(results))
	}
	lsRow, gsRow := 0, 6
	for c := range PaperTable12 {
		ls, gs := cell(t, tab, lsRow, c), cell(t, tab, gsRow, c)
		if gs >= ls {
			t.Fatalf("col %s: GS %.3f should beat LS %.3f", tab.ColHeaders[c], gs, ls)
		}
	}
	for _, r := range results {
		// All real problems are under 50% density, the regime where the
		// paper's conclusion says GS wins.
		if r.DensityPct >= 50 {
			t.Fatalf("%s: density %.0f%% >= 50%%", r.Problem.Name, r.DensityPct)
		}
		for _, alg := range []string{"PS", "BS"} {
			if r.TimesMs["GS"] >= r.TimesMs[alg] {
				t.Fatalf("%s: GS %.3f should beat %s %.3f",
					r.Problem.Name, r.TimesMs["GS"], alg, r.TimesMs[alg])
			}
		}
	}
}

func TestScheduleTablesRender(t *testing.T) {
	out := ScheduleTables()
	for _, want := range []string{"LEX schedule (8 steps)", "PEX schedule (7 steps)",
		"REX schedule (3 steps)", "BEX schedule (7 steps)", "LS schedule (8 steps)",
		"PS schedule (6 steps)", "BS schedule (7 steps)", "GS schedule (6 steps)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in schedule tables", want)
		}
	}
}

func TestTable5SmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("FFT sweep is host-expensive")
	}
	tab, err := runTable(Table5Spec(32, 512, network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// LEX must be worst at every size.
	for r := range tab.RowHeaders {
		lex := cell(t, tab, r, 0)
		for _, c := range []int{2, 4, 6} {
			if lex <= cell(t, tab, r, c) {
				t.Fatalf("row %s: LEX %.3f not worst", tab.RowHeaders[r], lex)
			}
		}
	}
}

func TestFig11SystemFlat(t *testing.T) {
	tab, err := runTable(Fig11Spec(network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// System broadcast time barely changes across machine sizes.
	first := cell(t, tab, 0, 3)
	lastRow := len(MachineSizes) - 1
	last := cell(t, tab, lastRow, 3)
	if last > first*1.5 {
		t.Fatalf("system broadcast should be ~flat in N: %.3f -> %.3f", first, last)
	}
}
