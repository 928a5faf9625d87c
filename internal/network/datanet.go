package network

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// completionSlack pads each flow-completion event by one nanosecond so
// floating-point rounding can never schedule a completion fractionally
// before the flow's remaining bytes reach zero.
const completionSlack = sim.Nanosecond

// remainingEpsilon is the residual byte count below which a flow counts
// as finished (absorbs float rounding across rate changes).
const remainingEpsilon = 1e-3

// link is one directed link of the topology graph with a finite
// capacity.
type link struct {
	idx     int
	cap     float64
	down    bool    // dead link: routing avoids it, no flow may cross it
	flows   []*Flow // flows crossing the link, in creation-seq order
	carried float64 // total bytes carried, for utilization reports
	dirty   bool    // changed since the last solve (queued in DataNet.dirty)

	// maxmin scratch state (valid only within one call).
	avail   float64
	unfixed int
	share   float64 // avail / unfixed, recomputed when stale
	stale   bool    // avail or unfixed changed since share was computed
	touched bool
	seen    bool // reached by the changed-component search
}

// Flow is one in-flight message transfer on the data network.
type Flow struct {
	Src, Dst  int
	WireBytes int
	seq       int // creation order; makes allocation order deterministic

	remaining float64
	rate      float64
	links     []*link
	done      func()
	fixed     bool // maxmin scratch (valid only within one call)
	seen      bool // maxmin scratch: in the changed component
	started   sim.Time
}

// Rate returns the flow's current bandwidth allocation in bytes/s.
// It is only meaningful while the flow is active.
func (f *Flow) Rate() float64 { return f.rate }

// DataNet is the flow-level data-network simulator: each in-flight
// message is a flow routed over the topology's link graph, its
// instantaneous rate the max-min fair allocation subject to the
// per-link capacities. All methods must be called from engine context
// (an event callback or a running process).
type DataNet struct {
	eng   *sim.Engine
	top   topo.Topology
	cfg   Config
	links []*link // indexed by topology link index; nil until first touched
	flows []*Flow // active flows in creation-seq order
	dirty []*link // links whose flows or capacity changed since the last solve

	lastAdvance sim.Time
	tick        *sim.Timer // single re-armed earliest-completion event
	solve       *sim.Timer // the solve Start defers to the end of its instant
	obs         FlowObserver
	met         *obs.SimMetrics
	tl          *obs.Timeline

	// Fault state: how many links are down (the routing fast path skips
	// the clean check while zero) and the fault counters FaultStats
	// reports.
	downLinks int
	fstats    FaultStats

	// Reusable scratch buffers: routing and reallocation run on every
	// flow start and finish, so they must not allocate.
	routeScratch  []int
	directScratch []int   // isDirect's direct route
	flowScratch   []*Flow // maxmin's component flows
	doneScratch   []*Flow // reallocate's finished flows
	victimScratch []*Flow // FailLink's rerouted flows
	linkScratch   []*link
	compScratch   []*link

	// free holds finished flows for Start to reuse, link lists included.
	// The engine runs one body at a time, so a plain slice serves.
	free []*Flow

	// Stats.
	totalFlows     int
	totalWireBytes int64
}

// NewDataNet creates a data network over the given topology's link
// graph.
func NewDataNet(eng *sim.Engine, t topo.Topology, cfg Config) *DataNet {
	return &DataNet{
		eng:   eng,
		top:   t,
		cfg:   cfg,
		links: make([]*link, t.NumLinks()),
	}
}

// Topology returns the link graph the network runs over.
func (d *DataNet) Topology() topo.Topology { return d.top }

// Config returns the timing constants in use.
func (d *DataNet) Config() Config { return d.cfg }

// TotalFlows returns the number of flows ever started.
func (d *DataNet) TotalFlows() int { return d.totalFlows }

// TotalWireBytes returns the sum of wire bytes over all started flows.
func (d *DataNet) TotalWireBytes() int64 { return d.totalWireBytes }

func (d *DataNet) linkFor(idx int) *link {
	l := d.links[idx]
	if l == nil {
		l = &link{idx: idx, cap: d.top.Link(idx).Cap}
		d.links[idx] = l
	}
	return l
}

// Start begins transferring userBytes from src to dst. When the last byte
// arrives, done runs in engine context. Start returns the new flow,
// which is valid only until its done callback has returned: the network
// then recycles it for a later Start. src must differ from dst:
// node-local copies never enter the network.
//
// The flow's rate is not solved here: Start queues one engine event at
// the current instant, which every Start of the instant shares, and the
// max-min solve runs there. The rates a solve per Start would set in
// between act over no simulated time, so deferring them changes nothing
// but the solver's host cost.
func (d *DataNet) Start(src, dst, userBytes int, done func()) *Flow {
	if src == dst {
		panic(fmt.Sprintf("network: self-flow %d->%d", src, dst))
	}
	wire := d.cfg.WireBytes(userBytes)
	var f *Flow
	if k := len(d.free); k > 0 {
		f = d.free[k-1]
		d.free[k-1] = nil
		d.free = d.free[:k-1]
	} else {
		f = &Flow{}
	}
	*f = Flow{
		Src:       src,
		Dst:       dst,
		WireBytes: wire,
		seq:       d.totalFlows,
		remaining: float64(wire),
		links:     f.links[:0],
		done:      done,
		started:   d.eng.Now(),
	}
	d.attach(f)
	d.advance()
	d.flows = append(d.flows, f)
	d.totalFlows++
	d.totalWireBytes += int64(wire)
	if d.obs != nil {
		d.obs.FlowStarted(FlowInfo{Src: src, Dst: dst, WireBytes: wire, Start: f.started})
	}
	if d.met != nil {
		d.met.FlowsStarted.Add(1)
	}
	if d.solve == nil {
		d.solve = d.eng.NewTimer(d.reallocate)
	}
	if !d.solve.Active() {
		d.solve.Reset(d.eng.Now())
	}
	return f
}

// advance applies the current rates over the time elapsed since the last
// call, decrementing every active flow's remaining bytes. Flows are
// visited in creation order, so every link's carried total is summed in
// a fixed order and per-link results are bit-reproducible.
func (d *DataNet) advance() {
	now := d.eng.Now()
	if now == d.lastAdvance {
		return
	}
	dt := (now - d.lastAdvance).Seconds()
	for _, f := range d.flows {
		moved := f.rate * dt
		f.remaining -= moved
		for _, l := range f.links {
			l.carried += moved
		}
	}
	d.lastAdvance = now
}

// LevelUtilization returns, per topology level, carried bytes divided
// by the level's aggregate capacity x elapsed time — the fraction of
// the level's capacity the run actually used. Elapsed must be the
// simulation's makespan. Only levels with traffic appear, and only
// links that carried traffic count toward a level's capacity.
func (d *DataNet) LevelUtilization(elapsed sim.Time) map[int]float64 {
	secs := elapsed.Seconds()
	out := make(map[int]float64)
	if secs <= 0 {
		return out
	}
	capacity := make(map[int]float64)
	for idx, l := range d.links {
		if l == nil || l.carried == 0 {
			continue
		}
		level := d.top.Link(idx).Level
		out[level] += l.carried
		capacity[level] += l.cap
	}
	for level := range out {
		out[level] /= capacity[level] * secs
	}
	return out
}

// LinkUtil is one link's utilization over a run, for the per-link view
// the Result API surfaces alongside the per-level aggregate.
type LinkUtil struct {
	Name        string  // topology link name, e.g. "L2/0/up" or "global/g0-g1"
	Level       int     // topology reporting tier (0 = node links)
	Cap         float64 // capacity, bytes/s
	Carried     float64 // wire bytes carried over the run
	Utilization float64 // Carried / (Cap * elapsed)
}

// LinkUtilization returns the per-link utilization of every link that
// carried traffic, in topology index order (deterministic). Elapsed
// must be the simulation's makespan.
func (d *DataNet) LinkUtilization(elapsed sim.Time) []LinkUtil {
	secs := elapsed.Seconds()
	var out []LinkUtil
	for idx, l := range d.links {
		if l == nil || l.carried == 0 {
			continue
		}
		meta := d.top.Link(idx)
		u := LinkUtil{Name: meta.Name, Level: meta.Level, Cap: l.cap, Carried: l.carried}
		if secs > 0 {
			u.Utilization = l.carried / (l.cap * secs)
		}
		out = append(out, u)
	}
	return out
}

// attach routes a flow over the surviving link graph and joins it to
// every link on the route, marking each dirty. With no dead links this
// is the direct route, allocation-free; with failures the flow detours
// around them (topo.DetourRoute) and counts as rerouted.
func (d *DataNet) attach(f *Flow) {
	if d.downLinks == 0 {
		d.routeScratch = d.top.RouteAppend(d.routeScratch[:0], f.Src, f.Dst)
	} else {
		route, ok := topo.DetourRoute(d.top, d.routeScratch[:0], f.Src, f.Dst, d.linkDown)
		if !ok {
			panic(fmt.Sprintf("network: no fault-free route %d->%d: link failures cut the network",
				f.Src, f.Dst))
		}
		d.routeScratch = route
		if len(route) > 0 && !d.isDirect(route, f.Src, f.Dst) {
			d.fstats.Rerouted++
			if d.met != nil {
				d.met.Reroutes.Add(1)
			}
		}
	}
	if cap(f.links) < len(d.routeScratch) {
		f.links = make([]*link, 0, len(d.routeScratch))
	}
	for _, idx := range d.routeScratch {
		l := d.linkFor(idx)
		l.flows = slices.Insert(l.flows, seqIndex(l.flows, f), f)
		d.markDirty(l)
		f.links = append(f.links, l)
	}
}

// detach removes a flow from every link on its route, marking each
// dirty.
func (d *DataNet) detach(f *Flow) {
	for _, l := range f.links {
		i := seqIndex(l.flows, f)
		l.flows = slices.Delete(l.flows, i, i+1)
		d.markDirty(l)
	}
	f.links = f.links[:0]
}

// markDirty queues l for the next max-min solve, which re-solves every
// flow connected to it through shared links.
func (d *DataNet) markDirty(l *link) {
	if !l.dirty {
		l.dirty = true
		d.dirty = append(d.dirty, l)
	}
}

// seqIndex returns the position of f in the seq-ordered fs, or where it
// would be inserted. A new flow has the largest seq and lands at the
// end; only rerouted flows land in the middle.
func seqIndex(fs []*Flow, f *Flow) int {
	i, _ := slices.BinarySearchFunc(fs, f.seq, func(g *Flow, seq int) int { return cmp.Compare(g.seq, seq) })
	return i
}

// isDirect reports whether route equals the topology's direct route for
// the pair (used only to count detours, off the healthy fast path).
func (d *DataNet) isDirect(route []int, src, dst int) bool {
	d.directScratch = d.top.RouteAppend(d.directScratch[:0], src, dst)
	return slices.Equal(d.directScratch, route)
}

// linkDown reports whether topology link idx is dead.
func (d *DataNet) linkDown(idx int) bool {
	l := d.links[idx]
	return l != nil && l.down
}

// FailLink kills a link: routing avoids it from now on, and every
// in-flight flow crossing it is rerouted over the surviving graph, the
// max-min solver re-solving over the new link set. Failing a dead link
// is a no-op. Must run in engine context, and panics if the failure
// disconnects an active flow's endpoints (plans validated against the
// topology only fail interior links, which the detour router can
// always route around short of a full partition).
func (d *DataNet) FailLink(idx int) {
	l := d.linkFor(idx)
	if l.down {
		return
	}
	d.advance()
	l.down = true
	d.downLinks++
	d.fstats.LinksDown++
	if d.met != nil {
		d.met.LinksDown.Add(1)
	}
	// Reroute the victims in creation order (the order of l.flows; a copy,
	// since detaching edits it) so reallocation stays deterministic.
	victims := append(d.victimScratch[:0], l.flows...)
	for _, f := range victims {
		d.detach(f)
		d.attach(f) // counts the detour via fstats.Rerouted
	}
	clear(victims)
	d.victimScratch = victims[:0]
	d.reallocate()
}

// DegradeLink multiplies a link's capacity by factor in (0, 1],
// re-solving the max-min allocation over the reduced capacity. Repeated
// degrades compound. Must run in engine context.
func (d *DataNet) DegradeLink(idx int, factor float64) {
	if !(factor > 0 && factor <= 1) {
		panic(fmt.Sprintf("network: degrade factor %v outside (0, 1]", factor))
	}
	d.advance()
	l := d.linkFor(idx)
	l.cap *= factor
	d.markDirty(l)
	d.fstats.LinksDegraded++
	d.reallocate()
}

// InjectBackground starts a burst of seed-deterministic background
// cross-traffic: count flows of userBytes each between distinct random
// node pairs. Background flows compete with scheduled traffic for link
// bandwidth like any other flow (they appear in TotalFlows and the
// utilization reports) and are additionally counted in FaultStats.
// Must run in engine context.
func (d *DataNet) InjectBackground(count, userBytes int, seed int64) {
	n := d.top.N()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		f := d.Start(src, dst, userBytes, nil)
		d.fstats.BackgroundFlows++
		d.fstats.BackgroundWireBytes += int64(f.WireBytes)
	}
}

// FaultStats returns the fault counters accumulated so far (the zero
// value for a fault-free run).
func (d *DataNet) FaultStats() FaultStats { return d.fstats }

// reallocate recomputes max-min fair rates, completes any finished flows,
// and schedules the next completion event. It takes over a solve Start
// queued.
func (d *DataNet) reallocate() {
	if d.solve != nil {
		d.solve.Stop()
	}
	// Complete flows whose remaining bytes have hit zero, compacting
	// them out of the active list in one pass. The scratch is taken out
	// of d while the done callbacks run, so a callback that re-entered
	// reallocate would get a list of its own.
	finished := d.doneScratch[:0]
	d.doneScratch = nil
	live := d.flows[:0]
	for _, f := range d.flows {
		if f.remaining > remainingEpsilon {
			live = append(live, f)
			continue
		}
		finished = append(finished, f)
		f.rate = 0
		d.detach(f)
	}
	clear(d.flows[len(live):])
	d.flows = live
	// Run completion callbacks by (src, dst), not creation order: the
	// callbacks start new flows and wake node processes, so this order
	// fixes every later flow's seq and event, and the pinned simulated
	// results were produced in it. The sort is stable, so equal pairs
	// keep creation order.
	sortFlows(finished)
	if d.met != nil {
		d.met.MaxminSolves.Add(1)
		if d.met.MaxminWall != nil {
			t0 := time.Now()
			d.maxmin()
			d.met.MaxminWall.Observe(time.Since(t0).Seconds())
		} else {
			d.maxmin()
		}
		d.met.FlowsFinished.Add(int64(len(finished)))
	} else {
		d.maxmin()
	}
	d.scheduleNextCompletion()
	for _, f := range finished {
		if d.obs != nil {
			d.obs.FlowFinished(FlowInfo{
				Src: f.Src, Dst: f.Dst, WireBytes: f.WireBytes,
				Start: f.started, End: d.eng.Now(),
			})
		}
		if d.tl != nil {
			d.tl.RecordSpan(obs.Span{
				Cat:  "flow",
				Name: "flow " + strconv.Itoa(f.Src) + "->" + strconv.Itoa(f.Dst),
				Tid:  f.Src, Start: int64(f.started), End: int64(d.eng.Now()),
				Args: []obs.Arg{{Key: "wire_bytes", Val: int64(f.WireBytes)}},
			})
		}
		if f.done != nil {
			f.done()
		}
		f.done = nil
		d.free = append(d.free, f)
	}
	clear(finished)
	d.doneScratch = finished[:0]
}

// maxmin computes the max-min fair allocation by iterative water-filling
// over the links (each flow is additionally capped by its node links,
// which are part of its route, so no separate per-flow cap is needed).
//
// Only the changed component is re-solved: the flows joined to a dirty
// link through shared links. Water-filling on disjoint components
// touches disjoint link state, and within a component the bottleneck
// order (first-touch tie-breaks included) and every avail -= share are
// those of a solve over all flows, so every other flow's rate is
// already the one a full solve would give it, bit for bit. All
// iteration follows deterministic orders — flows by creation sequence,
// links by first touch — so floating-point results are bit-identical
// across runs.
func (d *DataNet) maxmin() {
	// Mark the changed component's flows: a breadth-first search from
	// the dirty links over the link-flow incidence.
	comp := d.compScratch[:0]
	for _, l := range d.dirty {
		l.dirty = false
		l.seen = true
		comp = append(comp, l)
	}
	d.dirty = d.dirty[:0]
	nflows := 0
	for i := 0; i < len(comp); i++ {
		for _, f := range comp[i].flows {
			if f.seen {
				continue
			}
			f.seen = true
			nflows++
			for _, l := range f.links {
				if !l.seen {
					l.seen = true
					comp = append(comp, l)
				}
			}
		}
	}
	for _, l := range comp {
		l.seen = false
	}
	d.compScratch = comp
	if nflows == 0 {
		return
	}
	// The marked flows in creation order.
	flowList := d.flowScratch[:0]
	for _, f := range d.flows {
		if f.seen {
			f.seen = false
			flowList = append(flowList, f)
		}
	}

	// links holds the touched links that still carry unfixed flows, in
	// first-touch order; each round drops the links it finds done. A
	// link's share is recomputed only after its avail or unfixed changed,
	// from the same operands, so every share compared is the one a fresh
	// division gives.
	links := d.linkScratch[:0]
	unfixed := len(flowList)
	for _, f := range flowList {
		f.rate = 0
		f.fixed = false
		for _, l := range f.links {
			if !l.touched {
				l.touched = true
				l.avail = l.cap
				l.unfixed = 0
				l.stale = true
				links = append(links, l)
			}
			l.unfixed++
		}
	}
	for unfixed > 0 {
		// Find the bottleneck link: minimum fair share among links that
		// still carry unfixed flows (ties resolved by first touch).
		var bottleneck *link
		share := math.Inf(1)
		open := 0
		for _, l := range links {
			if l.unfixed == 0 {
				l.touched = false
				continue
			}
			links[open] = l
			open++
			if l.stale {
				l.share = l.avail / float64(l.unfixed)
				l.stale = false
			}
			if l.share < share {
				share = l.share
				bottleneck = l
			}
		}
		links = links[:open]
		if bottleneck == nil {
			// No constraining link (cannot happen: every flow crosses
			// its node links). Guard against an infinite loop anyway.
			for _, f := range flowList {
				if !f.fixed {
					f.rate = d.cfg.NodeLinkRate
					f.fixed = true
				}
			}
			break
		}
		// Fix every unfixed flow crossing the bottleneck at the share,
		// in creation order.
		for _, f := range bottleneck.flows {
			if f.fixed {
				continue
			}
			f.rate = share
			f.fixed = true
			unfixed--
			for _, l := range f.links {
				l.avail -= share
				if l.avail < 0 {
					l.avail = 0
				}
				l.unfixed--
				l.stale = true
			}
		}
	}
	for _, l := range links {
		l.touched = false
	}
	d.flowScratch = flowList
	d.linkScratch = links[:0]
}

// scheduleNextCompletion arms a single timer at the earliest projected
// flow completion. Rate changes re-arm the same timer in place, so no
// stale events ever sit in the engine's queue.
func (d *DataNet) scheduleNextCompletion() {
	if len(d.flows) == 0 {
		if d.tick != nil {
			d.tick.Stop()
		}
		return
	}
	soonest := math.Inf(1)
	for _, f := range d.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		// All rates zero with active flows: model bug.
		panic("network: active flows with zero total rate")
	}
	if d.tick == nil {
		d.tick = d.eng.NewTimer(func() {
			d.advance()
			d.reallocate()
		})
	}
	d.tick.Reset(d.eng.Now() + sim.FromSeconds(soonest) + completionSlack)
}

// sortFlows orders flows deterministically by (src, dst).
func sortFlows(fs []*Flow) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && lessFlow(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func lessFlow(a, b *Flow) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}
