package repro

// Full-stack integration tests tying the public API, the simulator, and
// the experiment harness together.

import (
	"context"
	"testing"

	"repro/cm5"
	"repro/internal/exp"
	"repro/internal/network"
)

// elapsed runs the job and returns its makespan; any error fails the
// test, so a broken run can never satisfy a comparison vacuously.
func elapsed(t *testing.T, job cm5.Job) cm5.Duration {
	t.Helper()
	res, err := cm5.Run(job)
	if err != nil {
		t.Fatalf("%s: %v", job.Algorithm(), err)
	}
	return res.Elapsed
}

// job describes the named algorithm on an n-node machine with nbytes
// per message; irregular describes the named scheduler over a pattern.
func job(alg string, n, nbytes int) cm5.Job {
	return cm5.NewJob(cm5.MustAlgorithm(alg), n, nbytes)
}

func irregular(alg string, p cm5.Pattern) cm5.Job {
	return cm5.PatternJob(cm5.MustAlgorithm(alg), p)
}

// TestEndToEndDeterminism re-runs a representative slice of every
// experiment family and requires bit-identical simulated times: the
// whole stack (engine, flow network, rendezvous, schedulers) must be
// deterministic.
func TestEndToEndDeterminism(t *testing.T) {
	sample := func() []cm5.Duration {
		var out []cm5.Duration
		for _, alg := range cm5.ExchangeAlgorithms() {
			out = append(out, elapsed(t, job(alg, 16, 512)))
		}
		for _, alg := range cm5.BroadcastAlgorithms() {
			out = append(out, elapsed(t, job(alg, 16, 2048)))
		}
		p := cm5.SyntheticPattern(16, 0.4, 256, 11)
		for _, alg := range cm5.IrregularAlgorithms() {
			s, err := cm5.Plan(irregular(alg, p))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, elapsed(t, cm5.ScheduleJob(s)))
		}
		return append(out, elapsed(t, irregular("CRYSTAL", p)))
	}
	a := sample()
	b := sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic result %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPaperConclusionsHold asserts the paper's Section 5 conclusions as
// a single executable statement over the simulator.
func TestPaperConclusionsHold(t *testing.T) {
	// "For a large number of processors, the Recursive Exchange
	// algorithm performs the best" — true at small message sizes, where
	// the per-message overhead dominates.
	rex := elapsed(t, job("REX", 256, 0))
	pex := elapsed(t, job("PEX", 256, 0))
	if rex >= pex {
		t.Errorf("REX (%v) should beat PEX (%v) at 0 B on 256 procs", rex, pex)
	}

	// "Balanced exchange performs the best for small message sizes" (on
	// 32 nodes, among the N-1-step algorithms).
	bex256 := elapsed(t, job("BEX", 32, 256))
	pex256 := elapsed(t, job("PEX", 32, 256))
	if bex256 > pex256 {
		t.Errorf("BEX (%v) should not lose to PEX (%v) at 256 B", bex256, pex256)
	}

	// "For large message sizes in a small multiprocessor system,
	// pairwise exchange performs better than [recursive]".
	pexBig := elapsed(t, job("PEX", 16, 1920))
	rexBig := elapsed(t, job("REX", 16, 1920))
	if pexBig >= rexBig {
		t.Errorf("PEX (%v) should beat REX (%v) at 1920 B on 16 procs", pexBig, rexBig)
	}

	// "The recursive broadcast algorithm ... is also better than the
	// system broadcast functions when the message size is large."
	reb := elapsed(t, job("REB", 32, 8192))
	sys := elapsed(t, job("SYS", 32, 8192))
	if reb >= sys {
		t.Errorf("REB (%v) should beat system broadcast (%v) at 8 KB", reb, sys)
	}

	// "The linear scheduling algorithm suffers because of the
	// synchronous communication constraint."
	p := cm5.SyntheticPattern(32, 0.25, 256, 3)
	ls := elapsed(t, irregular("LS", p))
	gs := elapsed(t, irregular("GS", p))
	if ls < 2*gs {
		t.Errorf("LS (%v) should be at least 2x GS (%v)", ls, gs)
	}
}

// TestExperimentIndexComplete checks that every table/figure the paper
// reports has a working runner (the README.md experiment catalogue).
func TestExperimentIndexComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	cfg := network.DefaultConfig()
	table12, _, err := exp.Table12Spec(cfg)
	if err != nil {
		t.Fatalf("table12: %v", err)
	}
	specs := map[string]*exp.TableSpec{
		"fig5":         exp.Fig5Spec(cfg),
		"fig10":        exp.Fig10Spec(cfg),
		"fig11":        exp.Fig11Spec(cfg),
		"table11":      exp.Table11Spec(cfg),
		"table12":      table12,
		"table5-small": exp.Table5Spec(32, 256, cfg),
	}
	for name, spec := range specs {
		if _, err := exp.NewRunner(0).RunTable(context.Background(), spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if exp.ScheduleTables() == "" {
		t.Fatal("schedule tables empty")
	}
}
