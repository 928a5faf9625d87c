package network

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// mustHypercube builds an n-node hypercube — the fault tests' topology
// of choice, because its path diversity makes link kills survivable.
func mustHypercube(n int) topo.Topology {
	tp, err := topo.New("hypercube", n, DefaultConfig().TopologyRates())
	if err != nil {
		panic(err)
	}
	return tp
}

// interiorOnRoute returns the first interior (level >= 1) link on the
// direct src -> dst route.
func interiorOnRoute(t *testing.T, tp topo.Topology, src, dst int) int {
	t.Helper()
	for _, l := range tp.RouteAppend(nil, src, dst) {
		if tp.Link(l).Level >= 1 {
			return l
		}
	}
	t.Fatalf("no interior link on route %d->%d of %s", src, dst, tp.Name())
	return -1
}

func TestHealthyPlanIsEmpty(t *testing.T) {
	p := NewHealthyPlan()
	if p.Version != FaultPlanVersion {
		t.Fatalf("Version = %d, want %d", p.Version, FaultPlanVersion)
	}
	if len(p.Events) != 0 {
		t.Fatalf("healthy plan has %d events", len(p.Events))
	}
	if err := p.Validate(mustFatTree(8)); err != nil {
		t.Fatal(err)
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(mustFatTree(8)); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
}

func TestFaultPlanValidateRejects(t *testing.T) {
	tp := mustFatTree(8)
	nodeLink := 0 // link 2*node is node 0's injection link, level 0
	interior := interiorOnRoute(t, tp, 0, 7)
	cases := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"bad version", FaultPlan{Version: FaultPlanVersion + 1}, "version"},
		{"negative time", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{At: -1, Kind: FaultDegrade, Link: interior, Factor: 0.5}}}, "negative time"},
		{"unknown kind", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{Kind: "meteor"}}}, "unknown kind"},
		{"link out of range", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{Kind: FaultLinkDown, Link: tp.NumLinks()}}}, "outside"},
		{"node link down", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{Kind: FaultLinkDown, Link: nodeLink}}}, "interior"},
		{"degrade factor zero", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{Kind: FaultDegrade, Link: interior, Factor: 0}}}, "factor"},
		{"degrade factor above one", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{Kind: FaultDegrade, Link: interior, Factor: 1.5}}}, "factor"},
		{"straggler node out of range", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{Kind: FaultStraggler, Node: 8, Factor: 2}}}, "outside"},
		{"straggler speedup", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{Kind: FaultStraggler, Node: 1, Factor: 0.5}}}, ">= 1"},
		{"empty background burst", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{Kind: FaultBackground, Flows: 0}}}, "flows"},
		{"negative background bytes", FaultPlan{Version: FaultPlanVersion,
			Events: []FaultEvent{{Kind: FaultBackground, Flows: 1, Bytes: -1}}}, "negative"},
	}
	for _, c := range cases {
		err := c.plan.Validate(tp)
		if err == nil {
			t.Errorf("%s: Validate accepted the plan", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestNewFaultPlanUnknownProfile(t *testing.T) {
	_, err := NewFaultPlan("meteor", mustFatTree(8), 1)
	if !errors.Is(err, ErrUnknownFaultProfile) {
		t.Fatalf("err = %v, want ErrUnknownFaultProfile", err)
	}
	for _, name := range FaultProfiles() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list profile %q", err, name)
		}
	}
}

func TestFaultProfileDocs(t *testing.T) {
	names := FaultProfiles()
	if len(names) != 5 {
		t.Fatalf("FaultProfiles() = %v, want 5 names", names)
	}
	for _, name := range names {
		if FaultProfileDoc(name) == "" {
			t.Errorf("profile %q has no doc", name)
		}
	}
	if FaultProfileDoc("meteor") != "" {
		t.Error("unknown profile has a doc")
	}
}

// TestFaultProfilesDeterministic pins the profile contract the result
// store depends on: the same (profile, topology, seed) always builds
// the identical plan, down to the canonical JSON bytes that feed the
// content hash.
func TestFaultProfilesDeterministic(t *testing.T) {
	for _, tp := range []topo.Topology{mustFatTree(64), mustHypercube(64)} {
		for _, name := range FaultProfiles() {
			a, err := NewFaultPlan(name, tp, 42)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, tp.Name(), err)
			}
			b, err := NewFaultPlan(name, tp, 42)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s on %s: plans differ across builds", name, tp.Name())
			}
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if string(ja) != string(jb) {
				t.Errorf("%s on %s: JSON differs across builds", name, tp.Name())
			}
			if name == "healthy" {
				continue
			}
			c, err := NewFaultPlan(name, tp, 43)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s on %s: seeds 42 and 43 build the same plan", name, tp.Name())
			}
		}
	}
}

// TestLinkDownProfileFatTreeBrownsOut: the fat tree is a tree, so every
// interior link is a cut edge — the link-down profile must demote every
// kill there to a 20% brown-out instead of cutting the network.
func TestLinkDownProfileFatTreeBrownsOut(t *testing.T) {
	tp := mustFatTree(64)
	p, err := NewFaultPlan("link-down", tp, 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 64/64; len(p.Events) != want {
		t.Fatalf("%d events, want %d", len(p.Events), want)
	}
	for i, ev := range p.Events {
		if ev.Kind != FaultDegrade {
			t.Errorf("event %d on the fat tree is %s, want the degrade fallback", i, ev.Kind)
		}
		if ev.Factor != 0.2 {
			t.Errorf("event %d brown-out factor %v, want 0.2", i, ev.Factor)
		}
	}
}

// TestLinkDownProfileHypercubeKills: with path diversity the profile
// kills links for real, the last one mid-run.
func TestLinkDownProfileHypercubeKills(t *testing.T) {
	tp := mustHypercube(64)
	p, err := NewFaultPlan("link-down", tp, 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 64/64; len(p.Events) != want {
		t.Fatalf("%d events, want %d", len(p.Events), want)
	}
	kills := 0
	for i, ev := range p.Events {
		if ev.Kind == FaultLinkDown {
			kills++
		}
		wantAt := sim.Time(0)
		if i == len(p.Events)-1 {
			wantAt = 100 * sim.Microsecond
		}
		if ev.At != wantAt {
			t.Errorf("event %d at %d, want %d", i, ev.At, wantAt)
		}
	}
	if kills == 0 {
		t.Fatal("no real link kills on the hypercube")
	}
}

// startFlow schedules one src -> dst flow at time 0 and returns a
// pointer to its completion time (set when the flow's done callback
// fires).
func startFlow(eng *sim.Engine, net *DataNet, src, dst, bytes int) *sim.Time {
	doneAt := new(sim.Time)
	*doneAt = -1
	eng.Schedule(0, func() {
		net.Start(src, dst, bytes, func() { *doneAt = eng.Now() })
	})
	return doneAt
}

func TestFailLinkBeforeStartDetours(t *testing.T) {
	tp := mustHypercube(8)
	link := interiorOnRoute(t, tp, 0, 1)
	eng := sim.NewEngine()
	net := NewDataNet(eng, tp, DefaultConfig())
	net.FailLink(link)
	doneAt := startFlow(eng, net, 0, 1, 65536)
	run(t, eng)
	if *doneAt < 0 {
		t.Fatal("flow never completed")
	}
	st := net.FaultStats()
	if st.LinksDown != 1 || st.Rerouted != 1 {
		t.Fatalf("stats = %+v, want 1 link down, 1 reroute", st)
	}
}

func TestFailLinkReroutesInFlight(t *testing.T) {
	tp := mustHypercube(8)
	link := interiorOnRoute(t, tp, 0, 1)

	// Healthy baseline.
	eng := sim.NewEngine()
	net := NewDataNet(eng, tp, DefaultConfig())
	healthyAt := startFlow(eng, net, 0, 1, 65536)
	run(t, eng)

	// Same flow, its link dying under it mid-transfer.
	eng2 := sim.NewEngine()
	net2 := NewDataNet(eng2, tp, DefaultConfig())
	doneAt := startFlow(eng2, net2, 0, 1, 65536)
	eng2.Schedule(*healthyAt/2, func() { net2.FailLink(link) })
	run(t, eng2)

	if *doneAt < 0 {
		t.Fatal("flow never completed after reroute")
	}
	st := net2.FaultStats()
	if st.LinksDown != 1 || st.Rerouted != 1 {
		t.Fatalf("stats = %+v, want 1 link down, 1 in-flight reroute", st)
	}
	// The detour relays through a via node's interface links, so the
	// rerouted flow cannot finish earlier than the direct one.
	if *doneAt < *healthyAt {
		t.Fatalf("rerouted flow finished at %d, before the healthy %d", *doneAt, *healthyAt)
	}
}

// TestFailLinkCutPanics: routing a flow over a cut network is a
// programming error (plans that can do this never validate), and the
// data network fails loudly rather than silently dropping traffic.
func TestFailLinkCutPanics(t *testing.T) {
	tp := mustFatTree(8) // a tree: any interior link cut disconnects it
	link := interiorOnRoute(t, tp, 0, 7)
	eng := sim.NewEngine()
	net := NewDataNet(eng, tp, DefaultConfig())
	net.FailLink(link)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Start over a cut network did not panic")
		}
		if !strings.Contains(toString(r), "no fault-free route") {
			t.Fatalf("panic = %v, want a no-fault-free-route message", r)
		}
	}()
	eng.Schedule(0, func() { net.Start(0, 7, 1024, nil) })
	run(t, eng)
}

func toString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return ""
}

func TestDegradeLinkStretchesFlow(t *testing.T) {
	tp := mustFatTree(8)
	link := interiorOnRoute(t, tp, 0, 7)

	eng := sim.NewEngine()
	net := NewDataNet(eng, tp, DefaultConfig())
	healthyAt := startFlow(eng, net, 0, 7, 65536)
	run(t, eng)

	eng2 := sim.NewEngine()
	net2 := NewDataNet(eng2, tp, DefaultConfig())
	net2.DegradeLink(link, 0.25)
	slowAt := startFlow(eng2, net2, 0, 7, 65536)
	run(t, eng2)

	if !(*slowAt > *healthyAt) {
		t.Fatalf("degraded flow at %d, healthy at %d: degrade did not slow it", *slowAt, *healthyAt)
	}
	st := net2.FaultStats()
	if st.LinksDegraded != 1 {
		t.Fatalf("stats = %+v, want 1 degraded link", st)
	}
}

func TestInjectBackgroundDeterministic(t *testing.T) {
	runOnce := func() (sim.Time, int64, FaultStats) {
		eng := sim.NewEngine()
		net := NewDataNet(eng, mustHypercube(16), DefaultConfig())
		eng.Schedule(0, func() { net.InjectBackground(16, 2048, 7) })
		end := run(t, eng)
		return end, net.TotalWireBytes(), net.FaultStats()
	}
	end1, bytes1, st1 := runOnce()
	end2, bytes2, st2 := runOnce()
	if end1 != end2 || bytes1 != bytes2 || st1 != st2 {
		t.Fatalf("background runs differ: (%d %d %+v) vs (%d %d %+v)",
			end1, bytes1, st1, end2, bytes2, st2)
	}
	if st1.BackgroundFlows != 16 {
		t.Fatalf("stats = %+v, want 16 background flows", st1)
	}
	if bytes1 == 0 {
		t.Fatal("background traffic carried no wire bytes")
	}
}

// TestMaxMinFairnessOnResidualGraph re-checks the max-min bottleneck
// property after link failures and degradations: the solver must be
// max-min fair over the surviving graph — actual (possibly detoured)
// routes and effective (possibly degraded) capacities — not the
// original one.
func TestMaxMinFairnessOnResidualGraph(t *testing.T) {
	const n = 32
	tp := mustHypercube(n)
	interior := interiorLinks(tp)
	for trial := 0; trial < 10; trial++ {
		seed := int64(100 + trial)
		plan, err := NewFaultPlan("link-down", tp, seed)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		net := NewDataNet(eng, tp, DefaultConfig())
		for _, ev := range plan.Events {
			switch ev.Kind {
			case FaultLinkDown:
				net.FailLink(ev.Link)
			case FaultDegrade:
				net.DegradeLink(ev.Link, ev.Factor)
			}
		}
		// Degrade a few more links so both fault kinds shape the residual
		// graph at once.
		net.DegradeLink(interior[trial%len(interior)], 0.5)
		eng.Schedule(0, func() {
			var flows []*Flow
			for i := 0; i < 24; i++ {
				src := (i * 7) % n
				dst := (i*13 + 5) % n
				if src == dst {
					continue
				}
				flows = append(flows, net.Start(src, dst, 4096, nil))
			}
			flush(net)
			checkResidualMaxMin(t, net, flows)
		})
		if _, err := eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// checkResidualMaxMin is checkMaxMin over the network's live state:
// each flow's actual route (detours included) and each link's effective
// capacity (degradations included).
func checkResidualMaxMin(t *testing.T, net *DataNet, flows []*Flow) {
	t.Helper()
	const tol = 1e-6
	usage := map[*link]float64{}
	maxRate := map[*link]float64{}
	for _, f := range flows {
		for _, l := range f.links {
			usage[l] += f.Rate()
			if f.Rate() > maxRate[l] {
				maxRate[l] = f.Rate()
			}
		}
	}
	for l, u := range usage {
		if l.down {
			t.Fatalf("link %d carries flows while down", l.idx)
		}
		if u > l.cap*(1+tol) {
			t.Fatalf("link %d oversubscribed on residual graph: %g > %g", l.idx, u, l.cap)
		}
	}
	for _, f := range flows {
		if f.Rate() <= 0 {
			t.Fatalf("flow %d->%d has non-positive rate %g", f.Src, f.Dst, f.Rate())
		}
		hasBottleneck := false
		for _, l := range f.links {
			if usage[l] >= l.cap*(1-tol) && f.Rate() >= maxRate[l]*(1-tol) {
				hasBottleneck = true
				break
			}
		}
		if !hasBottleneck {
			t.Fatalf("flow %d->%d (rate %g) has no saturated bottleneck on the residual graph",
				f.Src, f.Dst, f.Rate())
		}
	}
}
