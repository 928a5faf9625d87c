package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/topo"
)

// TestLinearExchangeScheduleTable1 reproduces the paper's Table 1: the
// 8-processor LEX schedule where step i delivers into processor i from
// every other processor.
func TestLinearExchangeScheduleTable1(t *testing.T) {
	s := LEX(8, 1)
	if s.NumSteps() != 8 {
		t.Fatalf("steps = %d, want 8", s.NumSteps())
	}
	for i, st := range s.Steps {
		if len(st) != 7 {
			t.Fatalf("step %d has %d transfers, want 7", i, len(st))
		}
		for _, tr := range st {
			if tr.Dst != i {
				t.Fatalf("step %d delivers to %d, want %d", i, tr.Dst, i)
			}
		}
	}
	if err := s.CoversPattern(pattern.CompleteExchange(8, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestPairwiseScheduleTable2 reproduces the paper's Table 2: in step j
// processor i exchanges with i XOR j.
func TestPairwiseScheduleTable2(t *testing.T) {
	s := PEX(8, 1)
	if s.NumSteps() != 7 {
		t.Fatalf("steps = %d, want 7", s.NumSteps())
	}
	// Spot-check the table: step 1 pairs (0,1),(2,3),(4,5),(6,7);
	// step 7 pairs (0,7),(1,6),(2,5),(3,4).
	wantStep1 := map[[2]int]bool{{0, 1}: true, {2, 3}: true, {4, 5}: true, {6, 7}: true}
	wantStep7 := map[[2]int]bool{{0, 7}: true, {1, 6}: true, {2, 5}: true, {3, 4}: true}
	checkPairs(t, s.Steps[0], wantStep1)
	checkPairs(t, s.Steps[6], wantStep7)
	if err := s.CheckPairwise(); err != nil {
		t.Fatal(err)
	}
	if err := s.CoversPattern(pattern.CompleteExchange(8, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestRecursiveScheduleTable3 reproduces the paper's Table 3: lg N steps
// pairing halves, quarters, then neighbors.
func TestRecursiveScheduleTable3(t *testing.T) {
	s := REX(8, 2)
	if s.NumSteps() != 3 {
		t.Fatalf("steps = %d, want 3", s.NumSteps())
	}
	checkPairs(t, s.Steps[0], map[[2]int]bool{{0, 4}: true, {1, 5}: true, {2, 6}: true, {3, 7}: true})
	checkPairs(t, s.Steps[1], map[[2]int]bool{{0, 2}: true, {1, 3}: true, {4, 6}: true, {5, 7}: true})
	checkPairs(t, s.Steps[2], map[[2]int]bool{{0, 1}: true, {2, 3}: true, {4, 5}: true, {6, 7}: true})
	// Message size stays at n*N/2 at every step (the paper's point about
	// REX's store-and-forward overhead).
	for si, st := range s.Steps {
		for _, tr := range st {
			if tr.Bytes != 2*8/2 {
				t.Fatalf("step %d message %d bytes, want %d", si, tr.Bytes, 8)
			}
		}
	}
}

// TestBalancedScheduleTable4 reproduces the paper's Table 4: pairwise
// exchange over virtual numbering. Step 1 pairs (0,7),(1,2),(3,4),(5,6),
// mixing local and cross-cluster exchanges.
func TestBalancedScheduleTable4(t *testing.T) {
	s := BEX(8, 1)
	if s.NumSteps() != 7 {
		t.Fatalf("steps = %d, want 7", s.NumSteps())
	}
	checkPairs(t, s.Steps[0], map[[2]int]bool{{0, 7}: true, {1, 2}: true, {3, 4}: true, {5, 6}: true})
	if err := s.CheckPairwise(); err != nil {
		t.Fatal(err)
	}
	if err := s.CoversPattern(pattern.CompleteExchange(8, 1)); err != nil {
		t.Fatal(err)
	}
}

func checkPairs(t *testing.T, st Step, want map[[2]int]bool) {
	t.Helper()
	got := map[[2]int]bool{}
	for _, tr := range st {
		a, b := tr.Src, tr.Dst
		if a > b {
			a, b = b, a
		}
		got[[2]int{a, b}] = true
	}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing pair %v; got %v", p, got)
		}
	}
}

func TestBEXPartnerIsInvolution(t *testing.T) {
	for _, n := range []int{8, 32, 256} {
		for j := 1; j < n; j++ {
			for i := 0; i < n; i++ {
				p := BEXPartner(i, j, n)
				if p < 0 || p >= n || p == i {
					t.Fatalf("BEXPartner(%d,%d,%d) = %d", i, j, n, p)
				}
				if back := BEXPartner(p, j, n); back != i {
					t.Fatalf("BEXPartner not involution: (%d,%d,%d) -> %d -> %d", i, j, n, p, back)
				}
			}
		}
	}
}

func TestPEXCoversAllSizes(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64} {
		s := PEX(n, 10)
		if err := s.CoversPattern(pattern.CompleteExchange(n, 10)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := s.CheckPairwise(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBEXCoversAllSizes(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64} {
		s := BEX(n, 10)
		if err := s.CoversPattern(pattern.CompleteExchange(n, 10)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := s.CheckPairwise(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestCheckNRejectsBadCounts(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PEX(%d) should panic", n)
				}
			}()
			PEX(n, 1)
		}()
	}
}

// TestBEXSpreadsGlobalExchanges verifies the paper's Section 3.4 claim:
// on a 32-node machine PEX packs its root-crossing exchanges into 3N/4 of
// the steps (16 per step there, 0 elsewhere), while BEX spreads them
// across all N-1 steps.
func TestBEXSpreadsGlobalExchanges(t *testing.T) {
	tree, err := topo.NewFatTree(32, topo.Rates{NodeLink: 20e6, Cluster4Up: 40e6, ThinPerNode: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	pexCounts := PEX(32, 1).GlobalExchangesPerStep(tree)
	bexCounts := BEX(32, 1).GlobalExchangesPerStep(tree)

	// PEX is all-or-nothing: a step either crosses the top with every
	// pair (16 of them) or not at all. With the 16-node-half boundary of
	// a 32-node partition, 16 of the 31 steps are all-global. (The
	// paper's "3N/4 steps" figure counts crossings one binary level
	// lower; the concentration-vs-spread contrast is the same.)
	pexGlobalSteps, pexTotal := 0, 0
	for _, c := range pexCounts {
		pexTotal += c
		if c > 0 {
			pexGlobalSteps++
			if c != 16 {
				t.Fatalf("PEX global step has %d crossings, want 16 (all-or-nothing)", c)
			}
		}
	}
	if pexGlobalSteps != 16 {
		t.Fatalf("PEX has %d global steps, want 16", pexGlobalSteps)
	}

	bexTotal, bexStepsWithGlobal := 0, 0
	for _, c := range bexCounts {
		bexTotal += c
		if c > 0 {
			bexStepsWithGlobal++
		}
	}
	if bexTotal != pexTotal {
		t.Fatalf("total global exchanges differ: BEX %d vs PEX %d", bexTotal, pexTotal)
	}
	// BEX distributes global exchanges over every one of the N-1 steps.
	if bexStepsWithGlobal != 31 {
		t.Fatalf("BEX has global exchanges in %d steps, want all 31", bexStepsWithGlobal)
	}
}

func TestREXStepsAndSizes(t *testing.T) {
	for _, n := range []int{2, 8, 32, 256} {
		s := REX(n, 4)
		if s.NumSteps() != LgN(n) {
			t.Fatalf("REX(%d) steps = %d, want %d", n, s.NumSteps(), LgN(n))
		}
		for _, st := range s.Steps {
			if len(st) != n {
				t.Fatalf("REX(%d) step size %d, want %d transfers", n, len(st), n)
			}
			for _, tr := range st {
				if tr.Bytes != 4*n/2 {
					t.Fatalf("REX(%d) message %d, want %d", n, tr.Bytes, 4*n/2)
				}
			}
		}
		if err := s.CheckPairwise(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLgN(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4: 2, 8: 3, 32: 5, 256: 8}
	for n, want := range cases {
		if got := LgN(n); got != want {
			t.Errorf("LgN(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestScheduleTableRendering(t *testing.T) {
	s := PEX(4, 1)
	table := s.Table()
	if table == "" {
		t.Fatal("empty table")
	}
	// Step 1 of PEX(4) pairs (0,1) and (2,3).
	if want := "0<->1"; !contains(table, want) {
		t.Fatalf("table missing %q:\n%s", want, table)
	}
	if want := "2<->3"; !contains(table, want) {
		t.Fatalf("table missing %q:\n%s", want, table)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: every regular schedule validates and PEX/BEX cover the
// complete exchange for random sizes.
func TestQuickRegularSchedulesValid(t *testing.T) {
	f := func(sizeRaw uint16, nIdx uint8) bool {
		ns := []int{2, 4, 8, 16, 32}
		n := ns[int(nIdx)%len(ns)]
		size := int(sizeRaw % 4096)
		for _, s := range []*Schedule{LEX(n, size), PEX(n, size), BEX(n, size), REX(n, size)} {
			if s.Validate() != nil {
				return false
			}
		}
		if PEX(n, size).CoversPattern(pattern.CompleteExchange(n, size)) != nil {
			return false
		}
		if BEX(n, size).CoversPattern(pattern.CompleteExchange(n, size)) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftSchedule(t *testing.T) {
	s := Shift(8, 3, 100)
	if s.NumSteps() != 1 || len(s.Steps[0]) != 8 {
		t.Fatalf("shift shape: %d steps", s.NumSteps())
	}
	want := pattern.New(8)
	for i := 0; i < 8; i++ {
		want[i][(i+3)%8] = 100
	}
	if err := s.CoversPattern(want); err != nil {
		t.Fatal(err)
	}
	// Negative and wrapped offsets normalize.
	if Shift(8, -1, 10).Steps[0][0].Dst != 7 {
		t.Fatal("negative offset should wrap")
	}
	if Shift(8, 8, 10).NumSteps() != 0 {
		t.Fatal("zero-offset shift should be empty")
	}
}

func TestShiftExecutesWithoutDeadlock(t *testing.T) {
	for _, offset := range []int{1, 3, 7, 15} {
		if d := elapsed(t, "SHIFT", Request{N: 16, Bytes: 512, Offset: offset}); d <= 0 {
			t.Fatalf("offset %d: zero duration", offset)
		}
	}
}

func TestShiftNearNeighborFasterThanFar(t *testing.T) {
	// A shift by 1 stays mostly inside clusters; a shift by N/2 crosses
	// the root with every message and contends on the thinned links.
	near := elapsed(t, "SHIFT", Request{N: 32, Bytes: 4096, Offset: 1})
	far := elapsed(t, "SHIFT", Request{N: 32, Bytes: 4096, Offset: 16})
	if near >= far {
		t.Fatalf("near shift (%v) should beat cross-root shift (%v)", near, far)
	}
}
