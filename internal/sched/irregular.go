package sched

import (
	"math/rand"

	"repro/internal/pattern"
)

// LS builds the Linear Scheduling schedule for an irregular pattern
// (paper Section 4.1, Table 7): linear exchange restricted to the
// messages the communication matrix requires. In step i the processors
// with data for processor i send it; everyone else is idle. Steps with no
// communication are dropped.
func LS(m pattern.Matrix) *Schedule {
	return linear("LS", m.N(), sizes{pat: m})
}

// PS builds the Pairwise Scheduling schedule (paper Section 4.2,
// Table 8): pairwise-exchange pairings, with each pair performing an
// exchange, a single send, or nothing, according to the communication
// matrix. Empty steps are dropped (the paper's pattern P completes in 6
// steps rather than PEX's 7).
func PS(m pattern.Matrix) *Schedule {
	n := m.N()
	checkN(n)
	return pairwise("PS", n, 1, n, PEXPartner, sizes{pat: m})
}

// BS builds the Balanced Scheduling schedule (paper Section 4.3,
// Table 9): the balanced-exchange pairings filtered by the communication
// matrix.
func BS(m pattern.Matrix) *Schedule {
	n := m.N()
	checkN(n)
	bex := func(lo, j int) int { return BEXPartner(lo, j, n) }
	return pairwise("BS", n, 1, n, bex, sizes{pat: m})
}

// GSOptions tunes the greedy scheduler.
type GSOptions struct {
	// RandomTieBreak selects candidate partners pseudo-randomly (seeded
	// by Seed) instead of the deterministic next-available scan. Used by
	// the ablation study.
	RandomTieBreak bool
	Seed           int64
}

// GS builds the Greedy Scheduling schedule (paper Section 4.4,
// Figure 12, Table 10) with default options.
func GS(m pattern.Matrix) *Schedule { return GSWith(m, GSOptions{}) }

// GSWith runs the greedy matching of Figure 12: in each iteration every
// processor, in rank order, grabs the next available processor it still
// has to send to; if that partner also has data queued in return, the
// pair performs an exchange. Matched processors are unavailable for the
// rest of the iteration. Iterations repeat until no messages remain.
//
// For a complete exchange this degenerates to pairwise exchange; for
// sparse patterns it usually needs fewer steps than PS/BS because idle
// pairings are never scheduled.
//
// Each processor's pending destinations are listed once, in the scan
// order pick walks, so an iteration costs the destinations still
// pending rather than N per processor. Every iteration schedules at
// least one transfer: the lowest processor with pending messages finds
// every partner available.
func GSWith(m pattern.Matrix, opts GSOptions) *Schedule {
	n := m.N()
	s := &Schedule{Algorithm: "GS", N: n}
	g := newGSRows(m)
	if opts.RandomTieBreak {
		g.rng = rand.New(rand.NewSource(opts.Seed))
	}
	need := g.need
	avail := make([]bool, n)
	for g.remaining > 0 {
		for i := range avail {
			avail[i] = true
		}
		var st Step
		for i := 0; i < n; i++ {
			if !avail[i] {
				continue
			}
			j := g.pick(i, avail)
			if j < 0 {
				continue
			}
			st = append(st, Transfer{Src: i, Dst: j, Bytes: need[i][j]})
			need[i][j] = 0
			g.remaining--
			if need[j][i] > 0 {
				st = append(st, Transfer{Src: j, Dst: i, Bytes: need[j][i]})
				need[j][i] = 0
				g.remaining--
			}
			avail[i], avail[j] = false, false
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}

// gsRows is GS's pending work: the bytes each pair still has to send
// and, per processor, its pending destinations in scan order (upward
// from i+1, wrapping). A destination whose bytes went as the return
// half of an exchange stays listed until a walk passes it.
type gsRows struct {
	need      pattern.Matrix
	rows      [][]int32
	remaining int
	rng       *rand.Rand // nil: deterministic next-available scan
	cands     []int32    // RandomTieBreak scratch
}

func newGSRows(m pattern.Matrix) *gsRows {
	n := m.N()
	g := &gsRows{need: m.Clone(), rows: make([][]int32, n)}
	dsts := make([]int32, 0, m.Messages()) // exact but for self-messages, so never regrown
	for i := 0; i < n; i++ {
		start := len(dsts)
		for off := 1; off < n; off++ {
			if j := (i + off) % n; m[i][j] > 0 {
				dsts = append(dsts, int32(j))
			}
		}
		g.rows[i] = dsts[start:len(dsts):len(dsts)]
	}
	g.remaining = len(dsts)
	return g
}

// pick selects the partner processor i sends to this iteration: the
// next available destination in scan order, or a random available
// destination under RandomTieBreak. The ascending scan makes GS reduce
// to the round-robin pairwise schedule on a complete exchange, the
// equivalence the paper notes in Section 4.4. The walk compacts away
// the destinations already sent to.
func (g *gsRows) pick(i int, avail []bool) int {
	need, row := g.need[i], g.rows[i]
	g.cands = g.cands[:0]
	w := 0
	for r, j := range row {
		if need[j] == 0 {
			continue
		}
		row[w] = j
		w++
		if !avail[j] {
			continue
		}
		if g.rng == nil {
			if w <= r {
				w += copy(row[w:], row[r+1:])
			} else {
				w = len(row)
			}
			g.rows[i] = row[:w]
			return int(j)
		}
		g.cands = append(g.cands, j)
	}
	g.rows[i] = row[:w]
	if len(g.cands) == 0 {
		return -1
	}
	return int(g.cands[g.rng.Intn(len(g.cands))])
}
