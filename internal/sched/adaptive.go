package sched

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// Adaptive Scheduling (registry entry AS) goes beyond the paper's
// static schedulers: instead of planning every step up front, it plans
// the pattern in phases and re-plans each phase mid-run from feedback.
// A phase covers about half the remaining transfers as a sequence of
// greedy matchings (every node in at most one pairwise exchange per
// round), chosen longest-estimated-first. Within a phase nodes run
// their rounds with no global synchronization — every round is a
// matching executed in a pairwise-consistent global order, so
// rendezvous waits only ever point at earlier rounds and can never
// cycle — and a control-network barrier separates phases, so each
// re-plan sees every measurement the finished phase produced.
//
// Two feedback signals size the estimates. The data network's
// FlowObserver reports each flow's achieved wire rate, which exposes
// dead-link detours, degraded links and cross-traffic congestion; the
// node programs time each transfer end to end (rendezvous wait and
// overheads included), which exposes stragglers — their slowdown is
// node-local and invisible to wire rates. A transfer's estimate uses
// the slower of the two signals for its pair, so a pair flagged slow
// by either gets front-loaded, overlapping with healthy pairs instead
// of stretching the schedule's tail.
//
// The planner is shared by every node program. The simulation engine
// runs exactly one process at an instant with happens-before edges on
// every control transfer, so the shared state needs no locking and the
// schedule stays bit-deterministic: plans are computed from
// deterministic simulation observations at deterministic points.

// pairKey addresses one directed (src, dst) pair.
type pairKey struct{ src, dst int }

// adaptivePlanner holds the shared re-planning state of one AS run.
type adaptivePlanner struct {
	cfg       network.Config
	n         int
	remaining []Transfer
	wireRate  map[pairKey]float64 // measured wire bytes/s, latest flow wins
	nodeRate  map[pairKey]float64 // end-to-end bytes/s timed by the sender
	phases    [][]Step            // memoized phase plans; last one empty
	starts    []int               // each phase's first global round number
	rounds    int                 // total rounds planned so far

	// Observability sinks (both nil-safe; see Request.Met/Timeline).
	met *obs.SimMetrics
	tl  *obs.Timeline
}

func newAdaptivePlanner(p pattern.Matrix, cfg network.Config) *adaptivePlanner {
	n := p.N()
	ad := &adaptivePlanner{
		cfg: cfg, n: n,
		wireRate: map[pairKey]float64{},
		nodeRate: map[pairKey]float64{},
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if p[i][j] > 0 {
				ad.remaining = append(ad.remaining, Transfer{Src: i, Dst: j, Bytes: p[i][j]})
			}
		}
	}
	return ad
}

// FlowStarted implements network.FlowObserver.
func (ad *adaptivePlanner) FlowStarted(network.FlowInfo) {}

// FlowFinished records the pair's achieved wire rate. Background
// cross-traffic flows count too: they carry the same information about
// the pair's path.
func (ad *adaptivePlanner) FlowFinished(f network.FlowInfo) {
	if d := (f.End - f.Start).Seconds(); d > 0 {
		ad.wireRate[pairKey{f.Src, f.Dst}] = float64(f.WireBytes) / d
	}
}

// transferTimed records a sender's end-to-end measurement of one
// transfer: user bytes over the full Send duration.
func (ad *adaptivePlanner) transferTimed(src, dst, bytes int, took sim.Time) {
	if d := took.Seconds(); d > 0 {
		ad.nodeRate[pairKey{src, dst}] = float64(bytes) / d
	}
}

// estimate returns the transfer's expected seconds under the slower of
// its pair's two measured rates (the node interface rate until a
// measurement exists). Wire rates apply to wire bytes, end-to-end
// rates to user bytes; the estimate only ranks transfers, so the two
// scales mixing is fine — slow is slow.
func (ad *adaptivePlanner) estimate(tr Transfer) float64 {
	k := pairKey{tr.Src, tr.Dst}
	est := float64(ad.cfg.WireBytes(tr.Bytes)) / ad.cfg.NodeLinkRate
	if r, ok := ad.wireRate[k]; ok && r > 0 {
		if e := float64(ad.cfg.WireBytes(tr.Bytes)) / r; e > est {
			est = e
		}
	}
	if r, ok := ad.nodeRate[k]; ok && r > 0 {
		if e := float64(tr.Bytes) / r; e > est {
			est = e
		}
	}
	return est
}

// phase returns phase k's rounds, planning on first request. Nodes
// only ask for phase k after the barrier that ends phase k-1, so the
// plan sees every flow and transfer measurement the previous phases
// produced. now is the asking node's current sim time, stamping the
// re-plan instant when this call plans. An empty phase means the
// schedule is complete.
func (ad *adaptivePlanner) phase(k int, now sim.Time) []Step {
	for len(ad.phases) <= k {
		ad.planPhase(now)
	}
	return ad.phases[k]
}

// planPhase plans the next phase: enough greedy-matching rounds to
// cover at least half the transfers still unscheduled, under the
// current rate estimates.
//
// Each round is a greedy matching over the remaining transfers sorted
// longest estimate first (ties by (src, dst) so the order is total).
// No simulation event runs while a phase is planned, so the estimates
// hold still: one sort serves every round of the phase, each round
// walking the transfers the earlier rounds left.
func (ad *adaptivePlanner) planPhase(now sim.Time) {
	ad.starts = append(ad.starts, ad.rounds)
	if len(ad.remaining) == 0 {
		ad.phases = append(ad.phases, nil)
		return
	}
	target := (len(ad.remaining) + 1) / 2
	order := ad.rank()
	reverse := make(map[pairKey]int, len(ad.remaining))
	for i, tr := range ad.remaining {
		reverse[pairKey{tr.Src, tr.Dst}] = i
	}
	busy := make([]bool, ad.n)
	taken := make([]bool, len(ad.remaining))
	var steps []Step
	for covered := 0; covered < target && len(order) > 0; {
		clear(busy)
		st := ad.matchRound(order, reverse, busy, taken)
		order = slices.DeleteFunc(order, func(i int) bool { return taken[i] })
		steps = append(steps, st)
		covered += len(st)
	}
	var rest []Transfer
	for i, tr := range ad.remaining {
		if !taken[i] {
			rest = append(rest, tr)
		}
	}
	ad.remaining = rest
	ad.rounds += len(steps)
	ad.phases = append(ad.phases, steps)
	if ad.met != nil {
		ad.met.ASReplans.Add(1)
		ad.met.SchedPhases.Add(1)
	}
	ad.tl.RecordInstant(obs.Instant{
		Cat: "sched", Name: fmt.Sprintf("replan phase %d", len(ad.phases)), Tid: -1,
		At: int64(now), Args: []obs.Arg{{Key: "rounds", Val: int64(len(steps))}},
	})
}

// rank returns the indices of the remaining transfers, longest estimate
// first, ties by (src, dst).
func (ad *adaptivePlanner) rank() []int {
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
	return order
}

// matchRound builds one round: a greedy matching over free nodes,
// taking untaken transfers in rank order. When both directions of a
// pair remain they travel together in the paper's Figure-2 order — the
// higher rank's send listed first, so the lower rank receives before
// sending and the exchange cannot deadlock.
func (ad *adaptivePlanner) matchRound(order []int, reverse map[pairKey]int, busy, taken []bool) Step {
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
	return st
}

// runNode executes one node's share of the adaptive schedule: its
// transfers of each phase, rounds in plan order (tagged by global
// round number, so both parties of a pair name the same rendezvous),
// then the control-network barrier that lets the planner fold the
// phase's measurements into the next plan.
func (ad *adaptivePlanner) runNode(nd *cmmd.Node) {
	me := nd.ID()
	for k := 0; ; k++ {
		start := nd.Now()
		steps := ad.phase(k, start)
		if len(steps) == 0 {
			return
		}
		base := ad.starts[k]
		for j, st := range steps {
			tag := base + j
			for _, tr := range st {
				switch me {
				case tr.Src:
					before := nd.Now()
					nd.SendN(tr.Dst, tag, tr.Bytes)
					ad.transferTimed(tr.Src, tr.Dst, tr.Bytes, nd.Now()-before)
				case tr.Dst:
					nd.Recv(tr.Src, tag)
				}
			}
		}
		nd.Barrier()
		// One node records the phase span — from its entry into the
		// phase to the barrier that ends it — on the run-scoped track.
		if me == 0 {
			ad.tl.RecordSpan(obs.Span{
				Cat: "sched", Name: fmt.Sprintf("phase %d", k+1), Tid: -1,
				Start: int64(start), End: int64(nd.Now()),
				Args: []obs.Arg{{Key: "rounds", Val: int64(len(steps))}},
			})
		}
	}
}

// teeObserver feeds the adaptive planner and the caller's observer (if
// any) from one flow event stream.
type teeObserver struct {
	planner *adaptivePlanner
	obs     network.FlowObserver
}

func (t *teeObserver) FlowStarted(f network.FlowInfo) {
	t.planner.FlowStarted(f)
	if t.obs != nil {
		t.obs.FlowStarted(f)
	}
}

func (t *teeObserver) FlowFinished(f network.FlowInfo) {
	t.planner.FlowFinished(f)
	if t.obs != nil {
		t.obs.FlowFinished(f)
	}
}

// runAdaptiveMetrics executes the adaptive scheduler on the request
// pattern. Messages and TotalBytes describe the pattern's direct
// deliveries (AS never forwards), so background fault traffic does not
// leak into the schedule statistics; Steps is the number of matching
// rounds the run actually took — under faults, usually different from
// GS's static step count.
func runAdaptiveMetrics(req Request) (*Metrics, error) {
	p := req.Pattern
	m, err := newMachine(p.N(), req)
	if err != nil {
		return nil, err
	}
	ad := newAdaptivePlanner(p, req.Cfg)
	ad.met = req.Met
	ad.tl = req.Timeline
	m.Net().SetObserver(&teeObserver{planner: ad, obs: req.Obs})
	elapsed, err := m.Run(func(nd *cmmd.Node) { ad.runNode(nd) })
	if err != nil {
		return nil, err
	}
	met := &Metrics{
		Steps:      ad.rounds,
		Messages:   p.Messages(),
		TotalBytes: p.TotalBytes(),
		MaxFanIn:   1, // every round is a matching
	}
	finishMetrics(met, m, elapsed)
	return met, nil
}
