package sched

import "fmt"

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
