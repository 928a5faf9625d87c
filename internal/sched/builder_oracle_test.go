package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pattern"
)

// The oracles below are the step builders as first written: one
// hand-written loop per algorithm, appending to unsized steps. The
// builders share two generators (linear and pairwise) and size every
// step exactly, and must reproduce these schedules exactly.

// lexOracle is the original LEX.
func lexOracle(n, bytesPerPair int) *Schedule {
	checkN(n)
	s := &Schedule{Algorithm: "LEX", N: n}
	for i := 0; i < n; i++ {
		var st Step
		for j := 0; j < n; j++ {
			if j != i {
				st = append(st, Transfer{Src: j, Dst: i, Bytes: bytesPerPair})
			}
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}

// pexOracle is the original PEX.
func pexOracle(n, bytesPerPair int) *Schedule {
	checkN(n)
	s := &Schedule{Algorithm: "PEX", N: n}
	for j := 1; j < n; j++ {
		var st Step
		for lo := 0; lo < n; lo++ {
			hi := PEXPartner(lo, j)
			if lo < hi {
				st = append(st,
					Transfer{Src: hi, Dst: lo, Bytes: bytesPerPair},
					Transfer{Src: lo, Dst: hi, Bytes: bytesPerPair})
			}
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}

// bexOracle is the original BEX.
func bexOracle(n, bytesPerPair int) *Schedule {
	checkN(n)
	s := &Schedule{Algorithm: "BEX", N: n}
	for j := 1; j < n; j++ {
		var st Step
		for lo := 0; lo < n; lo++ {
			hi := BEXPartner(lo, j, n)
			if lo < hi {
				st = append(st,
					Transfer{Src: hi, Dst: lo, Bytes: bytesPerPair},
					Transfer{Src: lo, Dst: hi, Bytes: bytesPerPair})
			}
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}

// rexOracle is the original REX.
func rexOracle(n, bytesPerPair int) *Schedule {
	checkN(n)
	s := &Schedule{Algorithm: "REX", N: n}
	msg := bytesPerPair * n / 2
	for k := 0; n>>uint(k) >= 2; k++ {
		var st Step
		for lo := 0; lo < n; lo++ {
			hi := REXPartner(lo, k, n)
			if lo < hi {
				st = append(st,
					Transfer{Src: hi, Dst: lo, Bytes: msg},
					Transfer{Src: lo, Dst: hi, Bytes: msg})
			}
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}

// lsOracle is the original LS.
func lsOracle(m pattern.Matrix) *Schedule {
	n := m.N()
	s := &Schedule{Algorithm: "LS", N: n}
	for i := 0; i < n; i++ {
		var st Step
		for j := 0; j < n; j++ {
			if j != i && m[j][i] > 0 {
				st = append(st, Transfer{Src: j, Dst: i, Bytes: m[j][i]})
			}
		}
		if len(st) > 0 {
			s.Steps = append(s.Steps, st)
		}
	}
	return s
}

// psOracle and bsOracle are the original PS and BS.
func psOracle(m pattern.Matrix) *Schedule {
	return pairedIrregularOracle(m, "PS", func(lo, j, n int) int { return PEXPartner(lo, j) })
}

func bsOracle(m pattern.Matrix) *Schedule {
	return pairedIrregularOracle(m, "BS", func(lo, j, n int) int { return BEXPartner(lo, j, n) })
}

// pairedIrregularOracle is the original pairedIrregular.
func pairedIrregularOracle(m pattern.Matrix, name string, partner func(lo, j, n int) int) *Schedule {
	n := m.N()
	checkN(n)
	s := &Schedule{Algorithm: name, N: n}
	for j := 1; j < n; j++ {
		var st Step
		for lo := 0; lo < n; lo++ {
			hi := partner(lo, j, n)
			if lo >= hi {
				continue
			}
			// Keep the exchange ordering [hi->lo, lo->hi] when both
			// directions exist; otherwise a single transfer.
			if m[hi][lo] > 0 {
				st = append(st, Transfer{Src: hi, Dst: lo, Bytes: m[hi][lo]})
			}
			if m[lo][hi] > 0 {
				st = append(st, Transfer{Src: lo, Dst: hi, Bytes: m[lo][hi]})
			}
		}
		if len(st) > 0 {
			s.Steps = append(s.Steps, st)
		}
	}
	return s
}

// builderPatterns are the irregular builder cases at one machine size
// and message size: no messages, every message, a funnel, a halo, and
// random 10% and 50% patterns. A message size of 0 makes every pattern
// empty, which keeps "list every transfer" apart from "list the
// positive entries".
func builderPatterns(n, bytes int) []struct {
	name string
	p    pattern.Matrix
} {
	out := []struct {
		name string
		p    pattern.Matrix
	}{
		{"empty", pattern.New(n)},
		{"complete", pattern.CompleteExchange(n, bytes)},
		{"hotspot", pattern.HotSpot(n, 0, bytes)},
		{"stencil3d", pattern.Stencil3D(n, bytes)},
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, d := range []int{10, 50} {
			out = append(out, struct {
				name string
				p    pattern.Matrix
			}{fmt.Sprintf("synthetic%d/seed=%d", d, seed), pattern.Synthetic(n, float64(d)/100, bytes, seed)})
		}
	}
	return out
}

func TestBuildersMatchOracle(t *testing.T) {
	regular := []struct {
		name      string
		got, want func(n, bytesPerPair int) *Schedule
	}{
		{"LEX", LEX, lexOracle},
		{"PEX", PEX, pexOracle},
		{"BEX", BEX, bexOracle},
		{"REX", REX, rexOracle},
	}
	irregular := []struct {
		name      string
		got, want func(pattern.Matrix) *Schedule
	}{
		{"LS", LS, lsOracle},
		{"PS", PS, psOracle},
		{"BS", BS, bsOracle},
	}
	for n := 2; n <= 256; n *= 2 {
		for _, bytes := range []int{0, 1, 256} {
			t.Run(fmt.Sprintf("N=%d/%dB", n, bytes), func(t *testing.T) {
				for _, c := range regular {
					if got, want := c.got(n, bytes), c.want(n, bytes); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: schedule differs from the oracle's (%d vs %d steps, %d vs %d transfers)",
							c.name, got.NumSteps(), want.NumSteps(), got.Messages(), want.Messages())
					}
				}
				for _, p := range builderPatterns(n, bytes) {
					for _, c := range irregular {
						if got, want := c.got(p.p), c.want(p.p); !reflect.DeepEqual(got, want) {
							t.Errorf("%s on %s: schedule differs from the oracle's (%d vs %d steps, %d vs %d transfers)",
								c.name, p.name, got.NumSteps(), want.NumSteps(), got.Messages(), want.Messages())
						}
					}
				}
			})
		}
	}
}

// TestExchangePlanAllocs pins the builders' allocations: the Schedule,
// its Steps, one reused scratch step and one exact-size copy per step.
func TestExchangePlanAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(n, bytesPerPair int) *Schedule
	}{
		{"LEX", LEX}, {"PEX", PEX}, {"BEX", BEX}, {"REX", REX},
	} {
		t.Run(c.name, func(t *testing.T) {
			steps := c.build(256, 256).NumSteps()
			got := testing.AllocsPerRun(5, func() { c.build(256, 256) })
			if max := float64(steps + 3); got > max {
				t.Fatalf("%s(256, 256) allocates %.0f objects, want at most %.0f (%d steps + 3)",
					c.name, got, max, steps)
			}
		})
	}
}
