package cm5_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/cm5"
)

func TestRegistryQueries(t *testing.T) {
	all := cm5.Algorithms()
	if len(all) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.IsZero() {
			t.Fatal("registry returned a zero Algorithm")
		}
		if a.Doc() == "" {
			t.Errorf("%s: empty doc string", a.Name())
		}
		if seen[a.Name()] {
			t.Errorf("%s: duplicate registry name", a.Name())
		}
		seen[a.Name()] = true
		got, err := cm5.LookupAlgorithm(a.Name())
		if err != nil {
			t.Errorf("LookupAlgorithm(%s): %v", a.Name(), err)
		}
		if got.Name() != a.Name() || got.Kind() != a.Kind() {
			t.Errorf("LookupAlgorithm(%s) round trip mismatch", a.Name())
		}
	}
	// Every kind is populated and AlgorithmsOf partitions the registry.
	total := 0
	for _, k := range []cm5.Kind{cm5.KindExchange, cm5.KindBroadcast, cm5.KindIrregular, cm5.KindCollective} {
		of := cm5.AlgorithmsOf(k)
		if len(of) == 0 {
			t.Errorf("no algorithms of kind %s", k)
		}
		for _, a := range of {
			if a.Kind() != k {
				t.Errorf("%s: kind %s in AlgorithmsOf(%s)", a.Name(), a.Kind(), k)
			}
		}
		total += len(of)
	}
	if total != len(all) {
		t.Errorf("kinds partition %d algorithms, registry has %d", total, len(all))
	}
	// The family queries list the paper's comparison sets, auxiliary
	// algorithms excluded.
	for _, c := range []struct {
		got, want []string
	}{
		{cm5.ExchangeAlgorithms(), []string{"LEX", "PEX", "REX", "BEX"}},
		{cm5.BroadcastAlgorithms(), []string{"LIB", "REB", "SYS"}},
		{cm5.IrregularAlgorithms(), []string{"LS", "PS", "BS", "GS"}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("family query = %v, want %v", c.got, c.want)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, name := range []string{"pex", "PEX", "Pex"} {
		a, err := cm5.LookupAlgorithm(name)
		if err != nil {
			t.Fatalf("LookupAlgorithm(%q): %v", name, err)
		}
		if a.Name() != "PEX" {
			t.Errorf("LookupAlgorithm(%q) = %s", name, a.Name())
		}
	}
	_, err := cm5.LookupAlgorithm("QEX")
	if !errors.Is(err, cm5.ErrUnknownAlgorithm) {
		t.Fatalf("want ErrUnknownAlgorithm, got %v", err)
	}
	if !strings.Contains(err.Error(), "PEX") || !strings.Contains(err.Error(), "allgather") {
		t.Errorf("miss should list known names, got: %v", err)
	}
}

func TestRunResultMetrics(t *testing.T) {
	res, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("BEX"), 16, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if res.Steps != 15 || res.Messages != 16*15 || res.TotalBytes != int64(16*15*1024) {
		t.Errorf("schedule stats: steps=%d msgs=%d bytes=%d", res.Steps, res.Messages, res.TotalBytes)
	}
	if res.MaxFanIn != 1 {
		t.Errorf("BEX fan-in = %d, want 1", res.MaxFanIn)
	}
	if len(res.StepTimes) != res.Steps {
		t.Fatalf("StepTimes has %d entries, want %d", len(res.StepTimes), res.Steps)
	}
	prev := cm5.Duration(0)
	for i, at := range res.StepTimes {
		if at <= prev {
			t.Errorf("step %d completion %v not after previous %v", i, at, prev)
		}
		prev = at
	}
	if got := res.StepTimes[len(res.StepTimes)-1]; got > res.Elapsed {
		t.Errorf("last step done at %v, after makespan %v", got, res.Elapsed)
	}
	if len(res.LevelUtilization) == 0 {
		t.Error("no level utilization")
	}
	for level, u := range res.LevelUtilization {
		if u <= 0 || u > 1 {
			t.Errorf("level %d utilization %f out of (0,1]", level, u)
		}
	}
	if res.Flows != res.Messages {
		t.Errorf("synchronous schedule: flows %d != messages %d", res.Flows, res.Messages)
	}
	if res.WireBytes <= res.TotalBytes {
		t.Errorf("wire bytes %d should exceed user bytes %d (packetization)", res.WireBytes, res.TotalBytes)
	}
	if res.Trace != nil {
		t.Error("trace collected without WithTrace")
	}
	if res.Algorithm.Name() != "BEX" {
		t.Errorf("result algorithm %q", res.Algorithm.Name())
	}
}

// Schedule-backed runs report exactly the planned schedule's
// statistics, and on the funnelling linear schedules buffered sends
// beat synchronous ones (the what-if of the paper's Section 3.1).
func TestRunMatchesPlan(t *testing.T) {
	p := cm5.SyntheticPattern(16, 0.4, 256, 3)
	for _, c := range []struct {
		job       cm5.Job
		asyncWins bool
	}{
		{cm5.NewJob(cm5.MustAlgorithm("LEX"), 16, 256), true},
		{cm5.PatternJob(cm5.MustAlgorithm("LS"), p), true},
		{cm5.PatternJob(cm5.MustAlgorithm("PS"), p), false},
		{cm5.PatternJob(cm5.MustAlgorithm("BS"), p), false},
		{cm5.PatternJob(cm5.MustAlgorithm("GS"), p), false},
	} {
		name := c.job.Algorithm().Name()
		s, err := cm5.Plan(c.job)
		if err != nil {
			t.Fatalf("Plan(%s): %v", name, err)
		}
		res, err := cm5.Run(c.job)
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		if res.Steps != s.NumSteps() || res.Messages != s.Messages() ||
			res.TotalBytes != s.TotalBytes() || res.MaxFanIn != s.MaxFanIn() {
			t.Errorf("%s: Result schedule stats disagree with the planned schedule", name)
		}
		if !c.asyncWins {
			continue
		}
		async, err := cm5.Run(cm5.ScheduleJob(s, cm5.WithAsync(true)))
		if err != nil {
			t.Fatalf("Run(%s, async): %v", name, err)
		}
		if async.Elapsed >= res.Elapsed {
			t.Errorf("buffered %s (%v) should beat synchronous %s (%v)", name, async.Elapsed, name, res.Elapsed)
		}
	}
}

func TestRunLEXFanIn(t *testing.T) {
	res, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("LEX"), 16, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFanIn != 15 {
		t.Errorf("LEX fan-in = %d, want 15", res.MaxFanIn)
	}
}

func TestRunWithTrace(t *testing.T) {
	res, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("PEX"), 16, 256, cm5.WithTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	if got := len(res.Trace.Events); got != res.Messages {
		t.Errorf("trace has %d events, schedule has %d messages", got, res.Messages)
	}
	// Observation must not change the simulation.
	plain, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("PEX"), 16, 256))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elapsed != res.Elapsed {
		t.Errorf("tracing changed the makespan: %v vs %v", res.Elapsed, plain.Elapsed)
	}
}

type countingObserver struct {
	started, finished int
	lastEnd           cm5.Duration
}

func (o *countingObserver) FlowStarted(f cm5.FlowInfo) { o.started++ }
func (o *countingObserver) FlowFinished(f cm5.FlowInfo) {
	o.finished++
	if f.End < f.Start {
		panic("flow finished before it started")
	}
	o.lastEnd = f.End
}

func TestRunWithObserver(t *testing.T) {
	obs := &countingObserver{}
	res, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("PEX"), 16, 256, cm5.WithObserver(obs)))
	if err != nil {
		t.Fatal(err)
	}
	if obs.started != res.Messages || obs.finished != res.Messages {
		t.Errorf("observer saw %d/%d flows, schedule has %d messages",
			obs.started, obs.finished, res.Messages)
	}
	if obs.lastEnd > res.Elapsed {
		t.Errorf("last flow ended at %v, after makespan %v", obs.lastEnd, res.Elapsed)
	}
	// Observation must not change the simulation.
	plain, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("PEX"), 16, 256))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elapsed != res.Elapsed {
		t.Errorf("observing changed the makespan: %v vs %v", res.Elapsed, plain.Elapsed)
	}
}

func TestRunGSRSeeded(t *testing.T) {
	p := cm5.SyntheticPattern(16, 0.5, 256, 11)
	gsr := cm5.MustAlgorithm("GSR")
	a1, err := cm5.Run(cm5.PatternJob(gsr, p, cm5.WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cm5.Run(cm5.PatternJob(gsr, p, cm5.WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Elapsed != a2.Elapsed || a1.Steps != a2.Steps {
		t.Error("GSR not deterministic for a fixed seed")
	}
	// Some seed in a small scan must produce a different schedule.
	differs := false
	for seed := int64(2); seed < 12 && !differs; seed++ {
		b, err := cm5.Run(cm5.PatternJob(gsr, p, cm5.WithSeed(seed)))
		if err != nil {
			t.Fatal(err)
		}
		differs = b.Elapsed != a1.Elapsed || b.Steps != a1.Steps
	}
	if !differs {
		t.Error("GSR ignored its seed across 10 values")
	}
}

// TestRepeatedRunsBitIdentical: rerunning a job reproduces its whole
// Result bit for bit, per-link carried bytes and utilizations included,
// not just the makespan. Many flows sharing links make the per-link sums
// sensitive to the order the network accumulates them in.
func TestRepeatedRunsBitIdentical(t *testing.T) {
	gs := cm5.MustAlgorithm("GS")
	for _, workload := range []string{"transpose", "stencil3d"} {
		p, err := cm5.WorkloadPattern(workload, 64, 1024, 64)
		if err != nil {
			t.Fatal(err)
		}
		var first cm5.Result
		for i := 0; i < 30; i++ {
			res, err := cm5.Run(cm5.PatternJob(gs, p))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = res
				if len(first.LinkUtilization) == 0 {
					t.Fatalf("%s: no per-link utilization to compare", workload)
				}
				continue
			}
			if !reflect.DeepEqual(res, first) {
				t.Fatalf("%s: run %d differs from run 0", workload, i)
			}
		}
	}
}

func TestRunProgramBacked(t *testing.T) {
	// REX: program-backed with a logical step count and no step times.
	rex, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("REX"), 16, 256))
	if err != nil {
		t.Fatal(err)
	}
	if rex.Steps != 4 { // lg 16
		t.Errorf("REX steps = %d, want 4", rex.Steps)
	}
	if rex.StepTimes != nil {
		t.Error("REX should have no per-step times")
	}
	if rex.Messages != 16*4 {
		t.Errorf("REX messages = %d, want 64 combined trains", rex.Messages)
	}
	// Collectives run through the same path.
	red, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("reduce"), 16, 256))
	if err != nil {
		t.Fatal(err)
	}
	if red.Messages != 15 || red.Elapsed <= 0 {
		t.Errorf("reduce: %d messages in %v", red.Messages, red.Elapsed)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := cm5.Run(cm5.Job{}); err == nil {
		t.Error("empty job should error")
	}
	if _, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("PEX"), 15, 64)); err == nil {
		t.Error("non-power-of-two machine should error")
	}
	if _, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("GS"), 16, 64)); err == nil {
		t.Error("irregular algorithm without a pattern should error")
	}
	if _, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("REB"), 16, 64, cm5.WithRoot(16))); err == nil {
		t.Error("out-of-range root should error")
	}
	if _, err := cm5.Plan(cm5.NewJob(cm5.MustAlgorithm("SYS"), 16, 64)); err == nil {
		t.Error("Plan of a program-backed algorithm should error")
	}
}

func TestScheduleJobNamesAlgorithm(t *testing.T) {
	s, err := cm5.Plan(cm5.NewJob(cm5.MustAlgorithm("PEX"), 16, 128))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cm5.Run(cm5.ScheduleJob(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm.Name() != "PEX" {
		t.Errorf("ScheduleJob result algorithm %q, want PEX", res.Algorithm.Name())
	}
}
