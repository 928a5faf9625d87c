package sched

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sim"
)

func cfg() network.Config { return network.DefaultConfig() }

// elapsed runs the named registry algorithm on the default CM-5 model
// and returns its makespan.
func elapsed(t *testing.T, name string, req Request) sim.Time {
	t.Helper()
	inf, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	req.Cfg = cfg()
	met, err := inf.Execute(req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return met.Elapsed
}

func TestRunPEXCompletes(t *testing.T) {
	d := elapsed(t, "PEX", Request{N: 8, Bytes: 256})
	if d <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestRunLEXCompletes(t *testing.T) {
	d := elapsed(t, "LEX", Request{N: 8, Bytes: 256})
	if d <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestRunBEXCompletes(t *testing.T) {
	elapsed(t, "BEX", Request{N: 8, Bytes: 256})
}

func TestLEXMuchSlowerThanPEX(t *testing.T) {
	// The paper's headline synchronous-communication effect: LEX
	// serializes each step at one receiver.
	lex := elapsed(t, "LEX", Request{N: 32, Bytes: 256})
	pex := elapsed(t, "PEX", Request{N: 32, Bytes: 256})
	if lex < 4*pex {
		t.Fatalf("LEX (%v) should be >= 4x PEX (%v)", lex, pex)
	}
}

func TestBEXNoSlowerThanPEXLargeMessages(t *testing.T) {
	pex := elapsed(t, "PEX", Request{N: 32, Bytes: 1920})
	bex := elapsed(t, "BEX", Request{N: 32, Bytes: 1920})
	// Paper Figure 5: BEX beats PEX for large messages on 32 nodes.
	if bex > pex {
		t.Fatalf("BEX (%v) slower than PEX (%v) at 1920B", bex, pex)
	}
}

func TestREXRunCompletes(t *testing.T) {
	if d := elapsed(t, "REX", Request{N: 8, Bytes: 256}); d <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestREXBestAtZeroBytes(t *testing.T) {
	// Paper Figure 6: at 0 bytes REX wins for all machine sizes (lg N
	// rendezvous instead of N-1).
	rex := elapsed(t, "REX", Request{N: 32})
	pex := elapsed(t, "PEX", Request{N: 32})
	bex := elapsed(t, "BEX", Request{N: 32})
	if rex >= pex || rex >= bex {
		t.Fatalf("REX (%v) should beat PEX (%v) and BEX (%v) at 0 bytes", rex, pex, bex)
	}
}

func TestExchangeDispatcher(t *testing.T) {
	for _, alg := range FamilyNames(KindExchange) {
		if d := elapsed(t, alg, Request{N: 8, Bytes: 64}); d <= 0 {
			t.Fatalf("%s: zero duration", alg)
		}
	}
	if _, err := Lookup("WTF"); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("unknown algorithm: got %v, want ErrUnknownAlgorithm", err)
	}
}

func TestRunOnSizeMismatch(t *testing.T) {
	m, err := cmmd.NewMachine(4, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOn(m, PEX(8, 1), DataHooks{}); err == nil {
		t.Fatal("size mismatch should error")
	}
}

func TestRunWithDataHooksDelivery(t *testing.T) {
	// Move real payloads through a PS schedule and verify every message
	// arrives with the right content.
	p := pattern.PaperP(8)
	s := PS(p)
	m, err := cmmd.NewMachine(8, cfg())
	if err != nil {
		t.Fatal(err)
	}
	received := make([][]bool, 8)
	for i := range received {
		received[i] = make([]bool, 8)
	}
	hooks := DataHooks{
		OnSend: func(step, src, dst int) []byte {
			b := make([]byte, p[src][dst])
			for k := range b {
				b[k] = byte(src*8 + dst)
			}
			return b
		},
		OnRecv: func(step int, msg cmmd.Message) {
			if len(msg.Data) == 0 {
				return
			}
			src := int(msg.Data[0]) / 8
			dst := int(msg.Data[0]) % 8
			received[src][dst] = true
		},
	}
	if _, err := RunOn(m, s, hooks); err != nil {
		t.Fatalf("RunOn: %v", err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if (p[i][j] > 0) != received[i][j] {
				t.Fatalf("message %d->%d: pattern %d, received %v", i, j, p[i][j], received[i][j])
			}
		}
	}
}

func TestIrregularSchedulesExecute(t *testing.T) {
	p := pattern.Synthetic(16, 0.4, 256, 11)
	for _, alg := range FamilyNames(KindIrregular) {
		if d := elapsed(t, alg, Request{Pattern: p}); d <= 0 {
			t.Fatalf("%s: zero duration", alg)
		}
	}
}

func TestGreedyBeatsLinearOnSparsePatterns(t *testing.T) {
	// Paper Table 11 shape at low density: GS < PS/BS << LS.
	p := pattern.Synthetic(32, 0.25, 256, 7)
	ls := elapsed(t, "LS", Request{Pattern: p})
	gs := elapsed(t, "GS", Request{Pattern: p})
	if gs >= ls {
		t.Fatalf("GS (%v) should beat LS (%v) at 25%% density", gs, ls)
	}
}

func TestBroadcastAlgorithms(t *testing.T) {
	for _, alg := range FamilyNames(KindBroadcast) {
		if d := elapsed(t, alg, Request{N: 32, Bytes: 1024}); d <= 0 {
			t.Fatalf("%s: zero duration", alg)
		}
	}
	if _, err := Lookup("NOPE"); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("unknown broadcast: got %v, want ErrUnknownAlgorithm", err)
	}
	reb, _ := Lookup("REB")
	if _, err := reb.Execute(Request{N: 32, Root: 99, Cfg: cfg()}); err == nil {
		t.Fatal("bad root should error")
	}
}

func TestLIBMuchSlowerThanREB(t *testing.T) {
	// Paper Figure 10: "the LIB algorithm performs much worse than the
	// REB algorithm".
	lib := elapsed(t, "LIB", Request{N: 32, Bytes: 1024})
	reb := elapsed(t, "REB", Request{N: 32, Bytes: 1024})
	if lib < 3*reb {
		t.Fatalf("LIB (%v) should be >= 3x REB (%v)", lib, reb)
	}
}

func TestSystemBcastWinsSmallREBWinsLarge(t *testing.T) {
	// Paper Figures 10/11: the system broadcast wins for small messages;
	// REB overtakes beyond about 1 KB on 32 nodes.
	sysSmall := elapsed(t, "SYS", Request{N: 32, Bytes: 64})
	rebSmall := elapsed(t, "REB", Request{N: 32, Bytes: 64})
	if sysSmall >= rebSmall {
		t.Fatalf("system bcast (%v) should beat REB (%v) at 64B", sysSmall, rebSmall)
	}
	sysBig := elapsed(t, "SYS", Request{N: 32, Bytes: 4096})
	rebBig := elapsed(t, "REB", Request{N: 32, Bytes: 4096})
	if rebBig >= sysBig {
		t.Fatalf("REB (%v) should beat system bcast (%v) at 4KB", rebBig, sysBig)
	}
}

func TestREBCrossoverGrowsWithMachineSize(t *testing.T) {
	// Paper Figure 11: at 256 nodes REB only wins for messages over
	// ~2KB; the crossover moves right as N grows.
	crossover := func(n int) int {
		for _, size := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
			sys := elapsed(t, "SYS", Request{N: n, Bytes: size})
			reb := elapsed(t, "REB", Request{N: n, Bytes: size})
			if reb < sys {
				return size
			}
		}
		return 1 << 20
	}
	c32, c256 := crossover(32), crossover(256)
	if c32 >= c256 {
		t.Fatalf("crossover should grow with N: 32 nodes %dB, 256 nodes %dB", c32, c256)
	}
}

func TestREBNonZeroRoot(t *testing.T) {
	if d := elapsed(t, "REB", Request{N: 16, Bytes: 512, Root: 5}); d <= 0 {
		t.Fatal("zero duration")
	}
}

func TestREBPeerTable(t *testing.T) {
	// n=8: step 1 sends 0->4; step 2: 0->2, 4->6; step 3: evens->odds.
	cases := []struct {
		r, j, n  int
		peer     int
		send, ok bool
	}{
		{0, 1, 8, 4, true, true},
		{4, 1, 8, 0, false, true},
		{2, 1, 8, -1, false, false},
		{0, 2, 8, 2, true, true},
		{4, 2, 8, 6, true, true},
		{2, 2, 8, 0, false, true},
		{6, 3, 8, 7, true, true},
		{7, 3, 8, 6, false, true},
	}
	for _, c := range cases {
		peer, send := REBPeer(c.r, c.j, c.n)
		if !c.ok {
			if peer >= 0 {
				t.Fatalf("REBPeer(%d,%d,%d) = %d, want idle", c.r, c.j, c.n, peer)
			}
			continue
		}
		if peer != c.peer || send != c.send {
			t.Fatalf("REBPeer(%d,%d,%d) = (%d,%v), want (%d,%v)", c.r, c.j, c.n, peer, send, c.peer, c.send)
		}
	}
}

// Property: every irregular schedule for random patterns executes to
// completion (no rendezvous deadlock) with a positive makespan.
func TestQuickSchedulesExecuteWithoutDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	f := func(seed int64, dRaw uint8, algRaw uint8) bool {
		d := float64(dRaw%101) / 100
		p := pattern.Synthetic(8, d, 64, seed)
		if p.Messages() == 0 {
			return true
		}
		algs := FamilyNames(KindIrregular)
		return elapsed(t, algs[int(algRaw)%len(algs)], Request{Pattern: p}) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
