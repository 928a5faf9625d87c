package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/cm5"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

// span is one host-time interval recorded around a call into a layer.
// Name is "<layer>.<what>"; Parent is the span that caused it (0 for the
// root span of one operation).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record files the span id (reserved with t.id) under parent.
func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// selfTimes returns each layer's self time in seconds — a span's
// duration minus the part of it its child spans cover — and the summed
// duration of the root spans, the host time of every operation.
func (t *tracer) selfTimes() (self map[string]float64, rootS float64) {
	children := map[int64][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self = map[string]float64{}
	for _, s := range t.spans {
		d := s.End - s.Start
		if s.Parent == 0 {
			rootS += float64(d) / 1e9
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(d-covered(s, children[s.ID])) / 1e9
	}
	return self, rootS
}

// covered returns how many nanoseconds of s the union of kids covers.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	end := s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, s.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// writeFile writes the spans and the per-layer numbers as JSON.
func (t *tracer) writeFile(path string, doc map[string]any) error {
	doc["spans"] = t.spans
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// simCounts are the simulator-side counters a metrics registry holds
// after the jobs attached to it ran.
type simCounts struct {
	flows, solves, reroutes, events, steps, replans int64
	heapHighWater, maxminS                          float64
}

func readSim(r *obs.Registry) simCounts {
	return simCounts{
		flows:         r.Counter("net_flows_started_total").Value(),
		solves:        r.Counter("net_maxmin_solves_total").Value(),
		reroutes:      r.Counter("net_reroutes_total").Value(),
		events:        r.Counter("sim_events_fired_total").Value(),
		steps:         r.Counter("sched_steps_total").Value(),
		replans:       r.Counter("sched_as_replans_total").Value(),
		heapHighWater: r.Gauge("sim_heap_depth_high_water").Value(),
		maxminS:       r.Histogram("net_maxmin_solve_seconds", obs.SecondsBuckets()).Sum(),
	}
}

// add sums two readings; the heap high-water mark takes the larger.
func (c simCounts) add(o simCounts) simCounts {
	return simCounts{
		flows: c.flows + o.flows, solves: c.solves + o.solves, reroutes: c.reroutes + o.reroutes,
		events: c.events + o.events, steps: c.steps + o.steps, replans: c.replans + o.replans,
		heapHighWater: max(c.heapHighWater, o.heapHighWater), maxminS: c.maxminS + o.maxminS,
	}
}

// sub is the difference of two readings of one registry; the heap
// high-water mark keeps the later reading.
func (c simCounts) sub(o simCounts) simCounts {
	return simCounts{
		flows: c.flows - o.flows, solves: c.solves - o.solves, reroutes: c.reroutes - o.reroutes,
		events: c.events - o.events, steps: c.steps - o.steps, replans: c.replans - o.replans,
		heapHighWater: c.heapHighWater, maxminS: c.maxminS - o.maxminS,
	}
}

// layerCounts are the per-layer counts of one traced measurement. first
// covers only its first pass (or, for serve-open-loop, its open-loop
// phase), so the deterministic counts repeat exactly for a seed however
// many passes fit in the run; all covers every traced pass and is the
// base of the per-event and per-solve times.
type layerCounts struct {
	first, all                  simCounts
	cellsSimulated, cellsReplay int64
	gets, puts                  int64
	misses, hits, coalesced     int64
	rejected                    int64
}

// layerMetrics turns a traced measurement into the per_layer metrics.
// The solver's time comes from the registry, not from spans: it is
// carved out of the self time of the spans that ran the simulation.
func layerMetrics(tr *tracer, lc layerCounts, probeUS []float64) []metric {
	self, rootS := tr.selfTimes()
	netS := lc.all.maxminS
	simS := self["sim"] - netS
	share := func(s float64) float64 { return s / rootS }
	ms := []metric{
		{name: "network.flows", value: float64(lc.first.flows), unit: "count"},
		{name: "network.maxmin_solves", value: float64(lc.first.solves), unit: "count"},
		{name: "network.reroutes", value: float64(lc.first.reroutes), unit: "count"},
		{name: "network.solve_us", value: netS / float64(max(lc.all.solves, 1)) * 1e6, unit: "us", n: int(lc.all.solves)},
		{name: "network.share", value: share(netS), unit: "ratio"},
	}
	for i, f := range probeFlows {
		ms = append(ms, metric{name: fmt.Sprintf("network.start_us_f%d", f), value: probeUS[i], unit: "us", n: f})
	}
	return append(ms, []metric{
		{name: "sim.events", value: float64(lc.first.events), unit: "count"},
		{name: "sim.heap_high_water", value: lc.first.heapHighWater, unit: "count"},
		{name: "sim.ns_per_event", value: simS / float64(max(lc.all.events, 1)) * 1e9, unit: "ns", n: int(lc.all.events)},
		{name: "sim.share", value: share(simS), unit: "ratio"},
		{name: "sched.steps", value: float64(lc.first.steps), unit: "count"},
		{name: "sched.as_replans", value: float64(lc.first.replans), unit: "count"},
		{name: "sched.share", value: share(self["sched"]), unit: "ratio"},
		{name: "exp.cells_simulated", value: float64(lc.cellsSimulated), unit: "count"},
		{name: "exp.cells_replayed", value: float64(lc.cellsReplay), unit: "count"},
		{name: "exp.share", value: share(self["exp"]), unit: "ratio"},
		{name: "store.gets", value: float64(lc.gets), unit: "count"},
		{name: "store.puts", value: float64(lc.puts), unit: "count"},
		{name: "store.share", value: share(self["store"]), unit: "ratio"},
		{name: "serve.misses", value: float64(lc.misses), unit: "count"},
		{name: "serve.hits", value: float64(lc.hits), unit: "count"},
		{name: "serve.coalesced", value: float64(lc.coalesced), unit: "count"},
		{name: "serve.rejected", value: float64(lc.rejected), unit: "count"},
		{name: "serve.share", value: share(self["serve"]), unit: "ratio"},
		{name: "http.share", value: share(self["http"]), unit: "ratio"},
		{name: "bench.share", value: share(self["bench"]), unit: "ratio"},
	}...)
}

// solverProbe times the max-min solver alone: it starts f flows with
// seeded endpoints and sizes at t=0 on the N=1024 fat tree through
// DataNet.Start, drains them, and returns host microseconds per start.
// Every start re-solves max-min over all flows in flight, so the cost
// per start grows with f.
func solverProbe(f int, seed int64) (float64, error) {
	const n = 1024
	cfg := cm5.DefaultConfig()
	tp, err := cm5.NewTopology("fat-tree", n)
	if err != nil {
		return 0, err
	}
	eng := sim.NewEngine()
	dn := network.NewDataNet(eng, tp, cfg)
	rng := rand.New(rand.NewSource(seed))
	var took time.Duration
	eng.Schedule(0, func() {
		t0 := time.Now()
		for i := 0; i < f; i++ {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			dn.Start(src, dst, 256+rng.Intn(4096), func() {})
		}
		took = time.Since(t0)
	})
	if _, err := eng.Run(); err != nil {
		return 0, err
	}
	return float64(took.Nanoseconds()) / 1e3 / float64(f), nil
}
