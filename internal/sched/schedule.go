// Package sched implements the paper's contribution: communication
// schedules for regular and irregular patterns on the CM-5.
//
// Regular complete-exchange algorithms (Section 3):
//
//	LEX — Linear Exchange:    N steps, step i funnels into processor i
//	PEX — Pairwise Exchange:  N-1 steps of XOR pairings (Figure 2)
//	REX — Recursive Exchange: lg N store-and-forward steps (Figure 3)
//	BEX — Balanced Exchange:  PEX over virtual numbering (Figure 4),
//	      spreading root-crossing traffic evenly across steps
//
// Broadcast algorithms (Section 3.6): LIB (linear), REB (recursive
// doubling, Figure 9), and the CMMD system broadcast on the control
// network.
//
// Irregular schedulers (Section 4): LS, PS, BS (the three exchange
// algorithms filtered by a communication matrix) and GS (greedy matching,
// Figure 12).
//
// Beyond the paper, AS (adaptive.go) schedules the same irregular
// patterns in greedy-matching phases that are re-planned mid-run from
// observed wire and end-to-end transfer rates, so it reacts to link
// failures, degraded capacity and stragglers injected by a
// network.FaultPlan where the static schedulers cannot.
//
// A Schedule is an explicit list of steps, each an ordered list of
// point-to-point transfers; the executor in exec.go runs one on a
// simulated machine.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pattern"
	"repro/internal/topo"
)

// Transfer is one point-to-point message within a step.
type Transfer struct {
	Src, Dst int
	Bytes    int
}

// Step is an ordered list of transfers. A node executes its transfers in
// list order: for an exchange pair listed [hi->lo, lo->hi], the lower
// rank receives before sending — the deadlock-free ordering of the
// paper's Figure 2.
type Step []Transfer

// Schedule is a complete communication schedule.
type Schedule struct {
	Algorithm string // "LEX", "PEX", ...
	N         int    // number of processors
	Steps     []Step
}

// NumSteps returns the number of (non-empty) steps.
func (s *Schedule) NumSteps() int { return len(s.Steps) }

// Messages returns the total number of transfers across all steps.
func (s *Schedule) Messages() int {
	total := 0
	for _, st := range s.Steps {
		total += len(st)
	}
	return total
}

// TotalBytes returns the sum of transfer sizes over the schedule.
func (s *Schedule) TotalBytes() int64 {
	var total int64
	for _, st := range s.Steps {
		for _, tr := range st {
			total += int64(tr.Bytes)
		}
	}
	return total
}

// MaxFanIn returns the largest number of transfers converging on one
// node within a single step — the receiver-side serialization bound
// under CMMD's synchronous sends (N-1 for LEX's funnel, 1 for the
// pairwise schedules).
func (s *Schedule) MaxFanIn() int {
	counts := make([]int, s.N)
	max := 0
	for _, st := range s.Steps {
		for _, tr := range st {
			counts[tr.Dst]++
			if counts[tr.Dst] > max {
				max = counts[tr.Dst]
			}
		}
		for _, tr := range st {
			counts[tr.Dst] = 0
		}
	}
	return max
}

// Validate checks structural sanity: endpoints in range, no self
// transfers, non-negative sizes, and no empty steps.
func (s *Schedule) Validate() error {
	for si, st := range s.Steps {
		if len(st) == 0 {
			return fmt.Errorf("sched: %s step %d is empty", s.Algorithm, si)
		}
		for _, tr := range st {
			if tr.Src < 0 || tr.Src >= s.N || tr.Dst < 0 || tr.Dst >= s.N {
				return fmt.Errorf("sched: %s step %d transfer %d->%d out of range",
					s.Algorithm, si, tr.Src, tr.Dst)
			}
			if tr.Src == tr.Dst {
				return fmt.Errorf("sched: %s step %d self transfer at node %d",
					s.Algorithm, si, tr.Src)
			}
			if tr.Bytes < 0 {
				return fmt.Errorf("sched: %s step %d negative size %d",
					s.Algorithm, si, tr.Bytes)
			}
		}
	}
	return nil
}

// CoversPattern verifies the schedule delivers exactly the messages of
// the given pattern: every m[i][j] > 0 appears as exactly one transfer of
// that size, and nothing else appears. Store-and-forward schedules (REX)
// do not satisfy this — their messages are combined — so this check
// applies to the direct algorithms only.
func (s *Schedule) CoversPattern(m pattern.Matrix) error {
	if m.N() != s.N {
		return fmt.Errorf("sched: pattern for %d processors, schedule for %d", m.N(), s.N)
	}
	seen := pattern.New(s.N)
	for si, st := range s.Steps {
		for _, tr := range st {
			if seen[tr.Src][tr.Dst] > 0 {
				return fmt.Errorf("sched: %s duplicates %d->%d at step %d",
					s.Algorithm, tr.Src, tr.Dst, si)
			}
			seen[tr.Src][tr.Dst] = tr.Bytes
		}
	}
	for i := 0; i < s.N; i++ {
		for j := 0; j < s.N; j++ {
			if seen[i][j] != m[i][j] {
				return fmt.Errorf("sched: %s schedules %d bytes for %d->%d, pattern wants %d",
					s.Algorithm, seen[i][j], i, j, m[i][j])
			}
		}
	}
	return nil
}

// CheckPairwise verifies that within every step each node communicates
// with at most one counterpart (the property of PEX/BEX/PS/BS/GS
// schedules; LEX/LS-style funnel schedules intentionally violate it).
func (s *Schedule) CheckPairwise() error {
	for si, st := range s.Steps {
		partner := make(map[int]int)
		for _, tr := range st {
			for node, other := range map[int]int{tr.Src: tr.Dst, tr.Dst: tr.Src} {
				if prev, ok := partner[node]; ok && prev != other {
					return fmt.Errorf("sched: %s step %d node %d talks to both %d and %d",
						s.Algorithm, si, node, prev, other)
				}
				partner[node] = other
			}
		}
	}
	return nil
}

// GlobalExchangesPerStep counts, for each step, the unordered
// communicating pairs whose traffic crosses the top of the fat tree.
// This is the metric behind the paper's Section 3.4 claim: PEX packs all
// global exchanges into 3N/4 of its steps while BEX spreads them evenly
// across all N-1 steps.
func (s *Schedule) GlobalExchangesPerStep(tree *topo.FatTree) []int {
	counts := make([]int, len(s.Steps))
	for si, st := range s.Steps {
		type pair struct{ a, b int }
		seen := make(map[pair]bool)
		for _, tr := range st {
			a, b := tr.Src, tr.Dst
			if a > b {
				a, b = b, a
			}
			p := pair{a, b}
			if seen[p] {
				continue
			}
			seen[p] = true
			if tree.CrossesTop(tr.Src, tr.Dst) {
				counts[si]++
			}
		}
	}
	return counts
}

// NodeOps returns the ordered transfers involving the given node in the
// given step (as the executor will run them).
func (s *Schedule) NodeOps(step, node int) []Transfer {
	var ops []Transfer
	for _, tr := range s.Steps[step] {
		if tr.Src == node || tr.Dst == node {
			ops = append(ops, tr)
		}
	}
	return ops
}

// Table renders the schedule in the style of the paper's schedule tables
// (Tables 1-4 and 7-10): one column per step, entries "i<->j" for
// exchanges and "i->j" for one-way transfers.
func (s *Schedule) Table() string {
	cols := make([][]string, len(s.Steps))
	height := 0
	for si, st := range s.Steps {
		cols[si] = stepEntries(st)
		if len(cols[si]) > height {
			height = len(cols[si])
		}
	}
	var b strings.Builder
	// Header.
	for si := range s.Steps {
		if si > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-7s", fmt.Sprintf("Step %d", si+1))
	}
	b.WriteByte('\n')
	for r := 0; r < height; r++ {
		for si := range cols {
			if si > 0 {
				b.WriteString("  ")
			}
			cell := ""
			if r < len(cols[si]) {
				cell = cols[si][r]
			}
			fmt.Fprintf(&b, "%-7s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Listing renders the schedule under a title line naming the algorithm
// and its step count: one block of cmexp's schedules listing.
func (s *Schedule) Listing() string {
	return fmt.Sprintf("%s schedule (%d steps):\n%s\n", s.Algorithm, s.NumSteps(), s.Table())
}

// stepEntries folds a step's transfers into display entries, pairing
// opposite transfers into "a<->b" exchanges.
func stepEntries(st Step) []string {
	type pair struct{ a, b int }
	fwd := make(map[pair]bool)
	for _, tr := range st {
		fwd[pair{tr.Src, tr.Dst}] = true
	}
	var entries []string
	done := make(map[pair]bool)
	for _, tr := range st {
		p := pair{tr.Src, tr.Dst}
		if done[p] {
			continue
		}
		rp := pair{tr.Dst, tr.Src}
		if fwd[rp] {
			a, b := tr.Src, tr.Dst
			if a > b {
				a, b = b, a
			}
			entries = append(entries, fmt.Sprintf("%d<->%d", a, b))
			done[p], done[rp] = true, true
		} else {
			entries = append(entries, fmt.Sprintf("%d->%d", tr.Src, tr.Dst))
			done[p] = true
		}
	}
	sort.Strings(entries)
	return entries
}
