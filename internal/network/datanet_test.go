package network

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

// mustFatTree builds the calibrated CM-5 fat tree over n nodes.
func mustFatTree(n int) topo.Topology {
	ft, err := DefaultConfig().FatTree(n)
	if err != nil {
		panic(err)
	}
	return ft
}

func newNet(t *testing.T, n int) (*sim.Engine, *DataNet) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewDataNet(eng, mustFatTree(n), DefaultConfig())
}

func run(t *testing.T, eng *sim.Engine) sim.Time {
	t.Helper()
	end, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return end
}

func TestWireBytes(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct{ user, wire int }{
		{0, 20}, {1, 20}, {15, 20}, {16, 20}, {17, 40},
		{32, 40}, {256, 320}, {512, 640}, {1920, 2400}, {-5, 20},
	}
	for _, c := range cases {
		if got := cfg.WireBytes(c.user); got != c.wire {
			t.Errorf("WireBytes(%d) = %d, want %d", c.user, got, c.wire)
		}
	}
}

func TestFatTreeLinkRates(t *testing.T) {
	tp, err := DefaultConfig().FatTree(256)
	if err != nil {
		t.Fatal(err)
	}
	// Node links 20 MB/s, cluster-of-4 uplinks 40 MB/s, and 4^l * 5 MB/s
	// above level 1 (the 256-node tree has no level-4 uplink).
	want := map[int]float64{0: 20e6, 1: 40e6, 2: 16 * 5e6, 3: 64 * 5e6}
	seen := map[int]bool{}
	for i := 0; i < tp.NumLinks(); i++ {
		l := tp.Link(i)
		if l.Cap != want[l.Level] {
			t.Fatalf("link %s: cap %v, want %v", l.Name, l.Cap, want[l.Level])
		}
		seen[l.Level] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("levels seen %v, want 0-3", seen)
	}
}

func TestMemCopyAndComputeTime(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MemCopyTime(0) != 0 || cfg.MemCopyTime(-4) != 0 {
		t.Error("non-positive copies cost nothing")
	}
	want := sim.FromSeconds(1000 / cfg.MemCopyRate)
	if cfg.MemCopyTime(1000) != want {
		t.Error("MemCopyTime(1000)")
	}
	if cfg.ComputeTime(0) != 0 {
		t.Error("zero flops")
	}
	if cfg.ComputeTime(cfg.FlopRate) != sim.Second {
		t.Error("FlopRate flops should take 1s")
	}
}

func TestSingleFlowGetsNodeRate(t *testing.T) {
	eng, net := newNet(t, 32)
	var doneAt sim.Time
	var rate float64
	eng.Schedule(0, func() {
		f := net.Start(0, 16, 16000, func() { doneAt = eng.Now() })
		rate = f.Rate()
	})
	run(t, eng)
	// A single flow, even across the root, runs at the 20 MB/s node rate.
	if math.Abs(rate-20e6) > 1 {
		t.Fatalf("single flow rate = %g, want 20e6", rate)
	}
	wire := DefaultConfig().WireBytes(16000) // 16000/16*20 = 20000
	wantSec := float64(wire) / 20e6
	if got := doneAt.Seconds(); math.Abs(got-wantSec) > 1e-6 {
		t.Fatalf("completion at %gs, want %gs", got, wantSec)
	}
}

func TestSelfFlowPanics(t *testing.T) {
	eng, net := newNet(t, 8)
	eng.Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("self flow should panic")
			}
		}()
		net.Start(3, 3, 100, nil)
	})
	run(t, eng)
}

func TestTwoFlowsShareNodeLink(t *testing.T) {
	eng, net := newNet(t, 8)
	var r1, r2 float64
	eng.Schedule(0, func() {
		f1 := net.Start(0, 1, 100000, nil)
		f2 := net.Start(0, 2, 100000, nil)
		r1, r2 = f1.Rate(), f2.Rate()
	})
	run(t, eng)
	// Both flows leave node 0: its 20 MB/s injection link is the bottleneck.
	if math.Abs(r1-10e6) > 1 || math.Abs(r2-10e6) > 1 {
		t.Fatalf("rates = %g, %g, want 10e6 each", r1, r2)
	}
}

func TestFourFlowsOutOfClusterGet10Each(t *testing.T) {
	// All 4 nodes of cluster 0 send to cluster 1: the 40 MB/s cluster
	// uplink caps each at 10 MB/s - the CM-5's published cluster-of-16
	// figure emerges from contention.
	eng, net := newNet(t, 32)
	rates := make([]float64, 4)
	eng.Schedule(0, func() {
		flows := make([]*Flow, 4)
		for i := 0; i < 4; i++ {
			flows[i] = net.Start(i, i+4, 100000, nil)
		}
		for i, f := range flows {
			rates[i] = f.Rate()
		}
	})
	run(t, eng)
	for i, r := range rates {
		if math.Abs(r-10e6) > 1 {
			t.Fatalf("flow %d rate = %g, want 10e6", i, r)
		}
	}
}

func TestRootContentionGives5PerNode(t *testing.T) {
	// All 16 nodes of the left half of a 32-node partition send across
	// the root: the level-2 uplink (80 MB/s) caps each at 5 MB/s - the
	// machine's guaranteed minimum emerges.
	eng, net := newNet(t, 32)
	rates := make([]float64, 16)
	eng.Schedule(0, func() {
		flows := make([]*Flow, 16)
		for i := 0; i < 16; i++ {
			flows[i] = net.Start(i, i+16, 100000, nil)
		}
		for i, f := range flows {
			rates[i] = f.Rate()
		}
	})
	run(t, eng)
	for i, r := range rates {
		if math.Abs(r-5e6) > 1 {
			t.Fatalf("flow %d rate = %g, want 5e6", i, r)
		}
	}
}

func TestIntraClusterPairsFullRate(t *testing.T) {
	// Pairwise exchange inside clusters: no shared links, all flows at 20.
	eng, net := newNet(t, 32)
	var rates []float64
	eng.Schedule(0, func() {
		for c := 0; c < 8; c++ {
			base := 4 * c
			f := net.Start(base, base+1, 100000, nil)
			rates = append(rates, f.Rate())
		}
	})
	run(t, eng)
	for i, r := range rates {
		if math.Abs(r-20e6) > 1 {
			t.Fatalf("flow %d rate = %g, want 20e6", i, r)
		}
	}
}

func TestRateReallocationOnCompletion(t *testing.T) {
	// Two flows share node 0's uplink at 10 MB/s each; when the short one
	// finishes, the long one speeds up to 20 MB/s. Total time for the
	// long flow (wire 40000B): phase 1 transfers 20000B in 2ms, remaining
	// 20000B at 20 MB/s takes 1ms: total 3ms.
	eng, net := newNet(t, 8)
	var longDone sim.Time
	eng.Schedule(0, func() {
		net.Start(0, 1, 16000, nil)                             // wire 20000
		net.Start(0, 2, 32000, func() { longDone = eng.Now() }) // wire 40000
	})
	run(t, eng)
	want := 3e-3
	if got := longDone.Seconds(); math.Abs(got-want) > 1e-5 {
		t.Fatalf("long flow done at %gs, want %gs", got, want)
	}
}

func TestCompletionCallbackOrderDeterministic(t *testing.T) {
	results := func() []int {
		eng, net := newNet(t, 8)
		var order []int
		eng.Schedule(0, func() {
			// Same size, same start: all finish simultaneously.
			for i := 1; i < 8; i++ {
				i := i
				net.Start(0, i, 160, func() { order = append(order, i) })
			}
		})
		run(t, eng)
		return order
	}
	a := results()
	b := results()
	if len(a) != 7 || len(b) != 7 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic completion order: %v vs %v", a, b)
		}
	}
}

func TestZeroByteFlowStillOnePacket(t *testing.T) {
	eng, net := newNet(t, 8)
	var doneAt sim.Time
	eng.Schedule(0, func() {
		net.Start(0, 1, 0, func() { doneAt = eng.Now() })
	})
	run(t, eng)
	want := 20.0 / 20e6 // one packet at node rate
	if got := doneAt.Seconds(); math.Abs(got-want) > 1e-7 {
		t.Fatalf("0-byte flow done at %gs, want %gs", got, want)
	}
}

func TestStats(t *testing.T) {
	eng, net := newNet(t, 8)
	eng.Schedule(0, func() {
		net.Start(0, 1, 16, nil)
		net.Start(2, 3, 32, nil)
		if net.ActiveFlows() != 2 {
			t.Errorf("ActiveFlows = %d", net.ActiveFlows())
		}
	})
	run(t, eng)
	if net.ActiveFlows() != 0 {
		t.Errorf("flows still active at end")
	}
	if net.TotalFlows() != 2 {
		t.Errorf("TotalFlows = %d", net.TotalFlows())
	}
	if net.TotalWireBytes() != 20+40 {
		t.Errorf("TotalWireBytes = %d", net.TotalWireBytes())
	}
}

func TestControlNetTimes(t *testing.T) {
	ctrl := NewControlNet(3, DefaultConfig()) // a 32-node tree
	bt := ctrl.BarrierTime()
	if bt < 2*sim.Microsecond || bt > 10*sim.Microsecond {
		t.Fatalf("barrier = %v ns, want a few microseconds", int64(bt))
	}
	if ctrl.BcastTime(0) != bt {
		t.Error("0-byte bcast should equal barrier time")
	}
	if ctrl.BcastTime(1024) <= ctrl.BcastTime(128) {
		t.Error("bcast time must grow with size")
	}
	if ctrl.CombineTime(8) <= 0 {
		t.Error("combine must take time")
	}
	if ctrl.BcastTime(-1) != bt {
		t.Error("negative bytes clamp to zero")
	}
}

func TestControlNetLatencyGrowsWithMachine(t *testing.T) {
	cfg := DefaultConfig()
	small := NewControlNet(2, cfg) // 16 nodes
	big := NewControlNet(5, cfg)   // 1024 nodes
	if big.BarrierTime() <= small.BarrierTime() {
		t.Fatal("bigger machine should have slightly higher control latency")
	}
}

// Property: for any flow set on a 32-node machine, the max-min allocation
// never exceeds any link capacity and every flow gets a positive rate.
func TestQuickMaxMinFeasible(t *testing.T) {
	f := func(pairsRaw []uint16) bool {
		if len(pairsRaw) == 0 || len(pairsRaw) > 64 {
			return true
		}
		eng := sim.NewEngine()
		ft := mustFatTree(32)
		net := NewDataNet(eng, ft, DefaultConfig())
		ok := true
		eng.Schedule(0, func() {
			var flows []*Flow
			for _, pr := range pairsRaw {
				src := int(pr) % 32
				dst := int(pr>>5) % 32
				if src == dst {
					continue
				}
				flows = append(flows, net.Start(src, dst, 1000, nil))
			}
			if len(flows) == 0 {
				return
			}
			// Check per-link feasibility.
			usage := make(map[int]float64)
			for _, fl := range flows {
				if fl.Rate() <= 0 {
					ok = false
				}
				for _, idx := range ft.RouteAppend(nil, fl.Src, fl.Dst) {
					usage[idx] += fl.Rate()
				}
			}
			for idx, u := range usage {
				if u > ft.Link(idx).Cap*(1+1e-9) {
					ok = false
				}
			}
		})
		if _, err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: total transfer time of a lone flow equals wire bytes / node
// rate regardless of distance.
func TestQuickLoneFlowTime(t *testing.T) {
	f := func(sr, dr uint8, sizeRaw uint16) bool {
		src, dst := int(sr)%64, int(dr)%64
		if src == dst {
			return true
		}
		size := int(sizeRaw)
		eng := sim.NewEngine()
		net := NewDataNet(eng, mustFatTree(64), DefaultConfig())
		var doneAt sim.Time
		eng.Schedule(0, func() {
			net.Start(src, dst, size, func() { doneAt = eng.Now() })
		})
		if _, err := eng.Run(); err != nil {
			return false
		}
		want := float64(net.Config().WireBytes(size)) / 20e6
		return math.Abs(doneAt.Seconds()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkCarriedAccounting(t *testing.T) {
	eng, net := newNet(t, 8)
	eng.Schedule(0, func() {
		net.Start(0, 1, 16000, nil) // wire 20000, intra-cluster
	})
	end := run(t, eng)
	carried := net.LinkCarried()
	up := carried[2*0]     // node 0's injection link
	down := carried[2*1+1] // node 1's ejection link
	if math.Abs(up-20000) > 1 || math.Abs(down-20000) > 1 {
		t.Fatalf("carried: up %g down %g, want 20000", up, down)
	}
	levels := net.LevelCarried()
	if math.Abs(levels[0]-40000) > 2 {
		t.Fatalf("level 0 carried %g", levels[0])
	}
	util := net.LevelUtilization(end)
	// One flow at full node rate on 2 of 16 node links: the level-0
	// utilization is carried/(totalcap*T) where only touched links count.
	if util[0] <= 0 || util[0] > 1.01 {
		t.Fatalf("level-0 utilization %g out of range", util[0])
	}
}

func TestLevelUtilizationCrossCluster(t *testing.T) {
	eng, net := newNet(t, 32)
	eng.Schedule(0, func() {
		for i := 0; i < 16; i++ {
			net.Start(i, i+16, 100000, nil)
		}
	})
	end := run(t, eng)
	util := net.LevelUtilization(end)
	// Saturating cross-root traffic: the level-2 uplinks/downlinks run
	// at essentially full utilization for the whole makespan.
	if util[2] < 0.95 || util[2] > 1.01 {
		t.Fatalf("level-2 utilization %g, want ~1.0", util[2])
	}
	if util[0] >= util[2] {
		t.Fatalf("node links (%g) cannot be busier than the bottleneck (%g)", util[0], util[2])
	}
	if net.LevelUtilization(0)[2] != 0 {
		t.Fatal("zero elapsed must yield empty utilization")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
	mutate := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	bad := []struct {
		name string
		cfg  Config
	}{
		{"zero node rate", mutate(func(c *Config) { c.NodeLinkRate = 0 })},
		{"negative cluster rate", mutate(func(c *Config) { c.Cluster4UpRate = -1 })},
		{"zero thin rate", mutate(func(c *Config) { c.ThinRatePerNode = 0 })},
		{"NaN flop rate", mutate(func(c *Config) { c.FlopRate = math.NaN() })},
		{"zero memcpy", mutate(func(c *Config) { c.MemCopyRate = 0 })},
		{"zero packet", mutate(func(c *Config) { c.PacketSize = 0 })},
		{"payload over packet", mutate(func(c *Config) { c.PacketPayload = 64 })},
		{"negative latency", mutate(func(c *Config) { c.WireLatency = -1 })},
		{"zero ctrl bcast", mutate(func(c *Config) { c.CtrlBcastRate = 0 })},
	}
	for _, c := range bad {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad config", c.name)
		}
	}
}
