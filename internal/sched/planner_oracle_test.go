package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/network"
	"repro/internal/pattern"
)

// The oracles below are the planners as first written: GS rescanning
// every partner of every node in every iteration, AS re-ranking every
// remaining transfer in every round. They are slow and plainly right,
// and the planners must reproduce them exactly.

// gsWithOracle is the original GSWith.
func gsWithOracle(m pattern.Matrix, opts GSOptions) *Schedule {
	n := m.N()
	s := &Schedule{Algorithm: "GS", N: n}
	need := m.Clone()
	remaining := need.Messages()
	var rng *rand.Rand
	if opts.RandomTieBreak {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	guard := 0
	for remaining > 0 {
		guard++
		if guard > n*n+n {
			panic(fmt.Sprintf("sched: GS failed to converge with %d messages left", remaining))
		}
		avail := make([]bool, n)
		for i := range avail {
			avail[i] = true
		}
		var st Step
		for i := 0; i < n; i++ {
			if !avail[i] {
				continue
			}
			j := gsPickOracle(need, avail, i, rng)
			if j < 0 {
				continue
			}
			st = append(st, Transfer{Src: i, Dst: j, Bytes: need[i][j]})
			need[i][j] = 0
			remaining--
			if need[j][i] > 0 {
				st = append(st, Transfer{Src: j, Dst: i, Bytes: need[j][i]})
				need[j][i] = 0
				remaining--
			}
			avail[i], avail[j] = false, false
		}
		if len(st) > 0 {
			s.Steps = append(s.Steps, st)
		}
	}
	return s
}

// gsPickOracle is the original gsPick.
func gsPickOracle(need pattern.Matrix, avail []bool, i int, rng *rand.Rand) int {
	n := need.N()
	var candidates []int
	for off := 1; off < n; off++ {
		j := (i + off) % n
		if !avail[j] || need[i][j] == 0 {
			continue
		}
		if rng == nil {
			return j
		}
		candidates = append(candidates, j)
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[rng.Intn(len(candidates))]
}

// planRoundOracle is the original planRound.
func planRoundOracle(ad *adaptivePlanner) Step {
	est := make([]float64, len(ad.remaining))
	order := make([]int, len(ad.remaining))
	for i, tr := range ad.remaining {
		est[i] = ad.estimate(tr)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if est[ia] != est[ib] {
			return est[ia] > est[ib]
		}
		ta, tb := ad.remaining[ia], ad.remaining[ib]
		if ta.Src != tb.Src {
			return ta.Src < tb.Src
		}
		return ta.Dst < tb.Dst
	})
	reverse := make(map[pairKey]int, len(ad.remaining))
	for i, tr := range ad.remaining {
		reverse[pairKey{tr.Src, tr.Dst}] = i
	}
	busy := make([]bool, ad.n)
	taken := make([]bool, len(ad.remaining))
	var st Step
	for _, i := range order {
		tr := ad.remaining[i]
		if taken[i] || busy[tr.Src] || busy[tr.Dst] {
			continue
		}
		busy[tr.Src], busy[tr.Dst] = true, true
		taken[i] = true
		if j, ok := reverse[pairKey{tr.Dst, tr.Src}]; ok && !taken[j] {
			taken[j] = true
			rev := ad.remaining[j]
			if tr.Src > tr.Dst {
				st = append(st, tr, rev)
			} else {
				st = append(st, rev, tr)
			}
		} else {
			st = append(st, tr)
		}
	}
	var rest []Transfer
	for i, tr := range ad.remaining {
		if !taken[i] {
			rest = append(rest, tr)
		}
	}
	ad.remaining = rest
	return st
}

// planPhaseOracle plans one phase from planRoundOracle's rounds, with
// the original phase loop.
func planPhaseOracle(ad *adaptivePlanner) []Step {
	if len(ad.remaining) == 0 {
		return nil
	}
	target := (len(ad.remaining) + 1) / 2
	var steps []Step
	for covered := 0; covered < target; {
		st := planRoundOracle(ad)
		if len(st) == 0 {
			break
		}
		steps = append(steps, st)
		covered += len(st)
	}
	return steps
}

// oraclePatterns are the planner test cases: the dense, funnel, halo
// and random shapes at each size.
//
// -short (the race pass) drops the two dense N=256 cases, where the AS
// oracle re-sorts tens of thousands of transfers every round.
func oraclePatterns() []struct {
	name string
	p    pattern.Matrix
} {
	var out []struct {
		name string
		p    pattern.Matrix
	}
	for _, n := range []int{8, 64, 256} {
		add := func(name string, p pattern.Matrix) {
			out = append(out, struct {
				name string
				p    pattern.Matrix
			}{fmt.Sprintf("%s/N=%d", name, n), p})
		}
		dense := !testing.Short() || n < 256
		if dense {
			add("complete", pattern.CompleteExchange(n, 64))
		}
		add("hotspot", pattern.HotSpot(n, 0, 64))
		add("stencil3d", pattern.Stencil3D(n, 64))
		add("synthetic10", pattern.Synthetic(n, 0.1, 64, int64(n)))
		if dense {
			add("synthetic50", pattern.SyntheticVariable(n, 0.5, 16, 4096, int64(n)+1))
		}
	}
	return out
}

func TestGSMatchesOracle(t *testing.T) {
	for _, c := range oraclePatterns() {
		t.Run(c.name, func(t *testing.T) {
			opts := []GSOptions{{}}
			for seed := int64(1); seed <= 5; seed++ {
				opts = append(opts, GSOptions{RandomTieBreak: true, Seed: seed})
			}
			for _, o := range opts {
				got, want := GSWith(c.p, o), gsWithOracle(c.p, o)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v: GS schedule differs from the oracle's:\ngot  %d steps\nwant %d steps",
						o, got.NumSteps(), want.NumSteps())
				}
			}
		})
	}
}

// TestASPhasesMatchOracle plans every phase of fixed remaining lists
// under fixed rate maps, once with planPhase and once with the oracle
// rounds. The maps give a seeded share of the pairs slower measured
// rates, some tied, so the ranking exercises both the estimate order
// and the (src, dst) tie-break.
func TestASPhasesMatchOracle(t *testing.T) {
	cfg := network.DefaultConfig()
	for _, c := range oraclePatterns() {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.p.N())))
			rates := []float64{cfg.NodeLinkRate / 2, cfg.NodeLinkRate / 4, cfg.NodeLinkRate / 8}
			ad := newAdaptivePlanner(c.p, cfg)
			for _, tr := range ad.remaining {
				k := pairKey{tr.Src, tr.Dst}
				switch rng.Intn(4) {
				case 0:
					ad.wireRate[k] = rates[rng.Intn(len(rates))]
				case 1:
					ad.nodeRate[k] = rates[rng.Intn(len(rates))] / 1.25
				}
			}
			oracle := newAdaptivePlanner(c.p, cfg)
			oracle.wireRate, oracle.nodeRate = ad.wireRate, ad.nodeRate
			for k := 0; ; k++ {
				got, want := ad.phase(k, 0), planPhaseOracle(oracle)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("phase %d: %d rounds, oracle %d rounds, or their transfers differ",
						k, len(got), len(want))
				}
				if len(got) == 0 {
					break
				}
			}
			if len(ad.remaining) != 0 || len(oracle.remaining) != 0 {
				t.Fatalf("transfers left: %d planned, %d oracle", len(ad.remaining), len(oracle.remaining))
			}
		})
	}
}
