package exp

import (
	"testing"

	"repro/internal/network"
)

func TestAblationAsyncShape(t *testing.T) {
	tab, err := runTable(AblationAsyncSpec(network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// Columns: LEX sync, LEX async, PEX sync, PEX async.
	for r := range tab.RowHeaders {
		lexSync, lexAsync := cell(t, tab, r, 0), cell(t, tab, r, 1)
		pexSync, pexAsync := cell(t, tab, r, 2), cell(t, tab, r, 3)
		if lexAsync >= lexSync {
			t.Fatalf("row %d: async must help LEX (%.3f vs %.3f)", r, lexAsync, lexSync)
		}
		// PEX barely changes: async gains are bounded.
		if pexAsync > pexSync {
			t.Fatalf("row %d: async should not hurt PEX", r)
		}
		if pexSync-pexAsync > pexSync/2 {
			t.Fatalf("row %d: async gain on PEX suspiciously large", r)
		}
		// Even with async sends, LEX stays worse than PEX: scheduling
		// still matters.
		if lexAsync <= pexAsync {
			t.Fatalf("row %d: async LEX (%.3f) should remain worse than PEX (%.3f)",
				r, lexAsync, pexAsync)
		}
	}
}

func TestAblationFatTreeShape(t *testing.T) {
	tab, err := runTable(AblationFatTreeSpec(network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.RowHeaders {
		thinGain := cell(t, tab, r, 2)
		flatGain := cell(t, tab, r, 5)
		if thinGain <= 0 {
			t.Fatalf("row %d: BEX must gain on the thinned tree (%.1f%%)", r, thinGain)
		}
		if flatGain > 1.0 || flatGain < -1.0 {
			t.Fatalf("row %d: BEX gain on flat tree should vanish, got %.1f%%", r, flatGain)
		}
	}
}

func TestFlatTreeConfig(t *testing.T) {
	cfg := FlatTreeConfig()
	tp, err := cfg.FatTree(64)
	if err != nil {
		t.Fatal(err)
	}
	// Every level-l uplink carries the full 4^l node rate.
	seen := map[int]bool{}
	for i := 0; i < tp.NumLinks(); i++ {
		l := tp.Link(i)
		if want := float64(int(1)<<(2*uint(l.Level))) * cfg.NodeLinkRate; l.Cap != want {
			t.Fatalf("flat tree link %s: cap %v, want %v", l.Name, l.Cap, want)
		}
		seen[l.Level] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("expected levels 1 and 2, saw %v", seen)
	}
}

func TestAblationGreedyRuns(t *testing.T) {
	tab, err := runTable(AblationGreedySpec(network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.RowHeaders {
		if cell(t, tab, r, 1) <= 0 || cell(t, tab, r, 3) <= 0 {
			t.Fatalf("row %d: zero times", r)
		}
	}
}

func TestAblationCrossoverShape(t *testing.T) {
	tab, err := runTable(AblationCrossoverSpec(network.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// GS wins at low density; the fixed pairings win at high density.
	if tab.Cells[0][3] != "GS" {
		t.Fatalf("10%% best = %s, want GS", tab.Cells[0][3])
	}
	lastTwo := []string{tab.Cells[len(tab.RowHeaders)-1][3], tab.Cells[len(tab.RowHeaders)-2][3]}
	for _, best := range lastTwo {
		if best == "GS" {
			t.Fatalf("high density best = %v, GS should lose", lastTwo)
		}
	}
}
