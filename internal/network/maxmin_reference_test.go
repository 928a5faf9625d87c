package network

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// referenceRates is the full water-filling solve: every active flow in
// creation order, every link starting from its capacity, and each
// bottleneck's flows found by scanning all flows. It reads the
// network's routes and capacities and writes nothing, so it can judge
// the component-local solve DataNet actually runs.
func referenceRates(t *testing.T, d *DataNet) map[*Flow]float64 {
	t.Helper()
	flows := append([]*Flow(nil), d.flows...)
	sort.Slice(flows, func(i, j int) bool { return flows[i].seq < flows[j].seq })
	type linkState struct {
		avail   float64
		unfixed int
	}
	state := map[*link]*linkState{}
	var links []*link // first-touch order
	for _, f := range flows {
		for _, l := range f.links {
			s := state[l]
			if s == nil {
				s = &linkState{avail: l.cap}
				state[l] = s
				links = append(links, l)
			}
			s.unfixed++
		}
	}
	rates := make(map[*Flow]float64, len(flows))
	for unfixed := len(flows); unfixed > 0; {
		var bottleneck *link
		share := math.Inf(1)
		for _, l := range links {
			s := state[l]
			if s.unfixed == 0 {
				continue
			}
			if v := s.avail / float64(s.unfixed); v < share {
				share, bottleneck = v, l
			}
		}
		if bottleneck == nil {
			t.Fatal("reference solve: unfixed flows but no constraining link")
		}
		for _, f := range flows {
			if _, fixed := rates[f]; fixed || !crosses(f, bottleneck) {
				continue
			}
			rates[f] = share
			unfixed--
			for _, l := range f.links {
				s := state[l]
				s.avail -= share
				if s.avail < 0 {
					s.avail = 0
				}
				s.unfixed--
			}
		}
	}
	return rates
}

func crosses(f *Flow, l *link) bool {
	for _, fl := range f.links {
		if fl == l {
			return true
		}
	}
	return false
}

// TestIncrementalMatchesReferenceSolve drives randomized flow sets over
// every topology family through starts, completions, link failures,
// degradations and background bursts, and after each one requires every
// active flow's rate to equal the full reference solve bit for bit: the
// component-local re-solve must be exactly the full solve, not an
// approximation of it. Every start is solved on its own (flush).
func TestIncrementalMatchesReferenceSolve(t *testing.T) { checkAgainstReference(t, false) }

// TestBurstMatchesReferenceSolve is the same drive with the starts left
// to the solve Start defers: every start event and completion starts a
// burst of flows in one instant, and the rates are compared only after
// that instant's single solve ran.
func TestBurstMatchesReferenceSolve(t *testing.T) { checkAgainstReference(t, true) }

func checkAgainstReference(t *testing.T, burst bool) {
	const n = 32
	checks := map[string]int{}
	for ti, tp := range maxminTopologies(t, n) {
		for trial := 0; trial < 12; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*ti + trial)))
			eng := sim.NewEngine()
			net := NewDataNet(eng, tp, DefaultConfig())
			down := map[int]bool{}
			check := func(op string) {
				t.Helper()
				checks[op]++
				if net.solve != nil && net.solve.Active() {
					t.Fatalf("%s trial %d after %s: a solve is still pending", tp.Name(), trial, op)
				}
				ref := referenceRates(t, net)
				if len(ref) != net.ActiveFlows() {
					t.Fatalf("%s trial %d after %s: reference solved %d flows, %d active",
						tp.Name(), trial, op, len(ref), net.ActiveFlows())
				}
				for _, f := range net.flows {
					if got, want := f.Rate(), ref[f]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s trial %d after %s: flow %d->%d (seq %d) rate %v, reference %v",
							tp.Name(), trial, op, f.Src, f.Dst, f.seq, got, want)
					}
				}
			}
			// settle checks op's rates: at once after a flush, or in
			// burst mode once no solve is pending, from an event queued
			// behind the pending one.
			var settle func(op string)
			settle = func(op string) {
				switch {
				case !burst:
					flush(net)
					check(op)
				case net.solve != nil && net.solve.Active():
					eng.Schedule(eng.Now(), func() { settle(op) })
				default:
					check(op)
				}
			}
			// Each completion checks the re-solve and, while the budget
			// lasts, starts replacement flows: one, or in burst mode up
			// to four in the same instant.
			budget := 40 + rng.Intn(40)
			var start func()
			start = func() {
				src := rng.Intn(n)
				dst := (src + 1 + rng.Intn(n-1)) % n
				net.Start(src, dst, 2000+rng.Intn(12000), func() {
					settle("completion")
					k := 1
					if burst {
						k += rng.Intn(4)
					}
					for ; k > 0 && budget > 0; k-- {
						budget--
						start()
					}
					if burst {
						settle("start")
					}
				})
				if !burst {
					settle("start")
				}
			}
			eng.Schedule(0, func() {
				for i := 0; i < 8+rng.Intn(24); i++ {
					start()
				}
				if burst {
					settle("start")
				}
			})
			// A link on some active flow's route, so the fault lands on
			// live traffic.
			liveLink := func(interiorOnly bool) (int, bool) {
				if net.ActiveFlows() == 0 {
					return 0, false
				}
				f := net.flows[rng.Intn(len(net.flows))]
				l := f.links[rng.Intn(len(f.links))]
				if interiorOnly && tp.Link(l.idx).Level < 1 {
					return 0, false
				}
				return l.idx, true
			}
			for i := 0; i < 12; i++ {
				at := sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
				switch rng.Intn(3) {
				case 0:
					eng.Schedule(at, func() {
						idx, ok := liveLink(true)
						if !ok || down[idx] || !killSurvivable(tp, down, idx) {
							return
						}
						down[idx] = true
						net.FailLink(idx)
						check("FailLink")
					})
				case 1:
					factor := 0.1 + 0.8*rng.Float64()
					eng.Schedule(at, func() {
						if idx, ok := liveLink(false); ok {
							net.DegradeLink(idx, factor)
							check("DegradeLink")
						}
					})
				case 2:
					count, seed := 1+rng.Intn(4), rng.Int63()
					eng.Schedule(at, func() {
						net.InjectBackground(count, 1000+rng.Intn(6000), seed)
						settle("InjectBackground")
					})
				}
			}
			if _, err := eng.Run(); err != nil {
				t.Fatalf("%s trial %d: %v", tp.Name(), trial, err)
			}
			if net.ActiveFlows() != 0 {
				t.Fatalf("%s trial %d: %d flows never finished", tp.Name(), trial, net.ActiveFlows())
			}
		}
	}
	for _, op := range []string{"start", "completion", "FailLink", "DegradeLink", "InjectBackground"} {
		if checks[op] == 0 {
			t.Errorf("no check ran after %s", op)
		}
	}
}
