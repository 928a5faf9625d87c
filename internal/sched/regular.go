package sched

import (
	"fmt"

	"repro/internal/pattern"
)

// checkN validates a processor count for the regular algorithms.
func checkN(n int) {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("sched: processor count %d must be a power of two >= 2", n))
	}
}

// sizes is a step generator's size rule: the bytes a src->dst transfer
// carries and whether it is listed at all. The complete exchanges list
// every transfer at one size, 0-byte ones included; the irregular
// schedulers list only a pattern's positive entries.
type sizes struct {
	bytes int            // every transfer's size when pat is nil
	pat   pattern.Matrix // per-pair sizes
}

func (z sizes) of(src, dst int) (int, bool) {
	if z.pat == nil {
		return z.bytes, true
	}
	b := z.pat[src][dst]
	return b, b > 0
}

// keep appends a generator's filled scratch step to the schedule as an
// exact-size copy, and drops it when the size rule left it empty. Steps
// is sized for maxSteps when the first step is kept, so a schedule with
// no transfers keeps Steps nil. Each step is its own allocation: cutting
// every step from one backing array makes a plan one large object, and
// raised the peak RSS of runs of complete exchanges.
func (s *Schedule) keep(st Step, maxSteps int) {
	if len(st) == 0 {
		return
	}
	if s.Steps == nil {
		s.Steps = make([]Step, 0, maxSteps)
	}
	s.Steps = append(s.Steps, append(make(Step, 0, len(st)), st...))
}

// linear generates Linear Exchange steps (Section 3.1): step i lists
// every j != i sending to i, in rank order.
func linear(name string, n int, z sizes) *Schedule {
	s := &Schedule{Algorithm: name, N: n}
	st := make(Step, 0, n)
	for i := 0; i < n; i++ {
		st = st[:0]
		for j := 0; j < n; j++ {
			if b, ok := z.of(j, i); ok && j != i {
				st = append(st, Transfer{Src: j, Dst: i, Bytes: b})
			}
		}
		s.keep(st, n)
	}
	return s
}

// pairwise generates steps of pairings (Sections 3.2-3.4): step k, for
// k in [first, last), lists every pair lo < partner(lo, k), in rank
// order of lo, as [hi->lo, lo->hi], so the lower rank receives first:
// Figure 2's deadlock-free ordering under synchronous sends. A pair
// whose size rule lists one direction only is a single transfer.
func pairwise(name string, n, first, last int, partner func(lo, k int) int, z sizes) *Schedule {
	s := &Schedule{Algorithm: name, N: n}
	st := make(Step, 0, n)
	for k := first; k < last; k++ {
		st = st[:0]
		for lo := 0; lo < n; lo++ {
			hi := partner(lo, k)
			if lo >= hi {
				continue
			}
			if b, ok := z.of(hi, lo); ok {
				st = append(st, Transfer{Src: hi, Dst: lo, Bytes: b})
			}
			if b, ok := z.of(lo, hi); ok {
				st = append(st, Transfer{Src: lo, Dst: hi, Bytes: b})
			}
		}
		s.keep(st, last-first)
	}
	return s
}

// LEX builds the Linear Exchange schedule for a complete exchange of
// bytesPerPair bytes between every processor pair (paper Section 3.1,
// Table 1): N steps; in step i every other processor sends its message to
// processor i. Under CMMD's synchronous communication the receiver
// serializes the whole step, which is why LEX performs worst.
func LEX(n, bytesPerPair int) *Schedule {
	checkN(n)
	return linear("LEX", n, sizes{bytes: bytesPerPair})
}

// PEXPartner returns processor i's partner in step j (1 <= j <= N-1) of
// the Pairwise Exchange algorithm: the exclusive-or of its number with j.
func PEXPartner(i, j int) int { return i ^ j }

// PEX builds the Pairwise Exchange schedule (paper Section 3.2, Figure 2,
// Table 2): N-1 steps; in step j processor i exchanges with i XOR j.
func PEX(n, bytesPerPair int) *Schedule {
	checkN(n)
	return pairwise("PEX", n, 1, n, PEXPartner, sizes{bytes: bytesPerPair})
}

// BEXPartner returns processor i's partner in step j of the Balanced
// Exchange algorithm (paper Section 3.4, Figure 4): pairwise exchange
// applied to the virtual numbering virtual = (physical+1) mod N, with the
// -1 result wrapping to N-1.
func BEXPartner(i, j, n int) int {
	virtual := (i + 1) % n
	node := (virtual ^ j) - 1
	if node == -1 {
		node = n - 1
	}
	return node
}

// BEX builds the Balanced Exchange schedule (paper Section 3.4, Figure 4,
// Table 4). The virtual renumbering staggers cluster boundaries so every
// step mixes intra-cluster and cross-cluster exchanges instead of
// saturating the fat-tree root in a block of steps as PEX does.
func BEX(n, bytesPerPair int) *Schedule {
	checkN(n)
	bex := func(lo, j int) int { return BEXPartner(lo, j, n) }
	return pairwise("BEX", n, 1, n, bex, sizes{bytes: bytesPerPair})
}

// REXPartner returns processor i's partner in step k (0-based) of the
// Recursive Exchange algorithm on n processors: the node k/2 positions
// away in the shrinking halves of Figure 3.
func REXPartner(i, k, n int) int {
	span := n >> uint(k) // N / 2^k
	if i%span < span/2 {
		return i + span/2
	}
	return i - span/2
}

// REX builds the Recursive Exchange schedule view (paper Section 3.3,
// Figure 3, Table 3): lg N steps; each message carries bytesPerPair*N/2
// bytes because data for half the machine is forwarded and reshuffled at
// every step. The returned schedule describes the message pattern; the
// registry runs REX as the ExecuteREXNode program, which additionally
// charges the store-and-forward pack and unpack costs.
func REX(n, bytesPerPair int) *Schedule {
	checkN(n)
	rex := func(lo, k int) int { return REXPartner(lo, k, n) }
	return pairwise("REX", n, 0, LgN(n), rex, sizes{bytes: bytesPerPair * n / 2})
}

// Shift builds the circular-shift pattern the paper lists among the
// regular communications (Section 3): every processor sends bytes to
// (i + offset) mod N in a single step. Transfers are ordered two-phase
// around each cycle of the shift permutation (alternating send-first and
// receive-first processors), so the whole shift completes in two
// parallel waves under synchronous sends instead of cascading serially
// around the ring. N is a power of two, so every cycle has even length
// and the alternation is always consistent.
func Shift(n, offset, bytes int) *Schedule {
	checkN(n)
	offset = ((offset % n) + n) % n
	s := &Schedule{Algorithm: "SHIFT", N: n}
	if offset == 0 {
		return s
	}
	var wave0, wave1 []Transfer
	seen := make([]bool, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		for i, pos := start, 0; !seen[i]; i, pos = (i+offset)%n, pos+1 {
			seen[i] = true
			tr := Transfer{Src: i, Dst: (i + offset) % n, Bytes: bytes}
			if pos%2 == 0 {
				wave0 = append(wave0, tr)
			} else {
				wave1 = append(wave1, tr)
			}
		}
	}
	s.Steps = []Step{append(wave0, wave1...)}
	return s
}

// LgN returns log2(n) for power-of-two n.
func LgN(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return lg
}
