package sched

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sim"
)

func TestLookupKnownAndUnknown(t *testing.T) {
	for _, name := range Names() {
		inf, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if inf.Name != name {
			t.Errorf("Lookup(%s) returned %s", name, inf.Name)
		}
	}
	_, err := Lookup("NOPE")
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("want ErrUnknownAlgorithm, got %v", err)
	}
	for _, known := range []string{"LEX", "GS", "halo"} {
		if !strings.Contains(err.Error(), known) {
			t.Errorf("miss message should list %s: %v", known, err)
		}
	}
}

func TestFamilyNames(t *testing.T) {
	cases := map[Kind][]string{
		KindExchange:   {"LEX", "PEX", "REX", "BEX"},
		KindBroadcast:  {"LIB", "REB", "SYS"},
		KindIrregular:  {"LS", "PS", "BS", "GS"},
		KindCollective: {"scatter", "gather", "allgather", "reduce", "allreduce", "transpose", "cshift", "halo"},
	}
	for kind, want := range cases {
		if got := FamilyNames(kind); !reflect.DeepEqual(got, want) {
			t.Errorf("FamilyNames(%s) = %v, want %v", kind, got, want)
		}
	}
}

func TestExecuteValidates(t *testing.T) {
	cfg := network.DefaultConfig()
	pex, _ := Lookup("PEX")
	if _, err := pex.Execute(Request{N: 12, Bytes: 1, Cfg: cfg}); err == nil {
		t.Error("non-power-of-two N should error, not panic")
	}
	gs, _ := Lookup("GS")
	if _, err := gs.Execute(Request{N: 16, Cfg: cfg}); err == nil {
		t.Error("irregular without pattern should error")
	}
	reb, _ := Lookup("REB")
	if _, err := reb.Execute(Request{N: 16, Root: -1, Cfg: cfg}); err == nil {
		t.Error("negative root should error")
	}
}

// A machine larger than the CM-5's 16384 nodes is rejected before
// anything is planned: LEX alone would build N*(N-1) transfers.
func TestOversizedMachineRejectedBeforePlanning(t *testing.T) {
	req := Request{N: 32768, Bytes: 1, Cfg: network.DefaultConfig()}
	for _, name := range FamilyNames(KindExchange) {
		inf, _ := Lookup(name)
		if _, err := inf.Plan(req); err == nil || !strings.Contains(err.Error(), "[2, 16384]") {
			t.Errorf("%s Plan at N=32768: %v, want an error naming [2, 16384]", name, err)
		}
		if _, err := inf.Execute(req); err == nil || !strings.Contains(err.Error(), "[2, 16384]") {
			t.Errorf("%s Execute at N=32768: %v, want an error naming [2, 16384]", name, err)
		}
	}
}

// The registry's executor must agree exactly with the classic
// standalone exchange and crystal-router runners it replaced: these
// are the makespans those runners produced at N=16, in nanoseconds.
func TestExecuteMatchesClassicRunners(t *testing.T) {
	for _, c := range []struct {
		name string
		req  Request
		want sim.Time
	}{
		{"LEX", Request{N: 16, Bytes: 512}, 15169191},
		{"PEX", Request{N: 16, Bytes: 512}, 3570030},
		{"REX", Request{N: 16, Bytes: 512}, 5078728},
		{"BEX", Request{N: 16, Bytes: 512}, 3623010},
		{"CRYSTAL", Request{Pattern: pattern.Synthetic(16, 0.3, 256, 5)}, 1146878},
	} {
		if got := elapsed(t, c.name, c.req); got != c.want {
			t.Errorf("%s: Execute %d ns, classic runner %d ns", c.name, got, c.want)
		}
	}
}

func TestScheduleMaxFanIn(t *testing.T) {
	if got := LEX(8, 1).MaxFanIn(); got != 7 {
		t.Errorf("LEX(8) fan-in = %d, want 7", got)
	}
	for _, s := range []*Schedule{PEX(8, 1), BEX(8, 1), REX(8, 1)} {
		if got := s.MaxFanIn(); got != 1 {
			t.Errorf("%s fan-in = %d, want 1", s.Algorithm, got)
		}
	}
	if got := (&Schedule{N: 4}).MaxFanIn(); got != 0 {
		t.Errorf("empty schedule fan-in = %d, want 0", got)
	}
}

// A malformed hand-built schedule must come back as an error from the
// metrics executor, exactly like the classic Run path — never a panic
// from the stats pass.
func TestExecuteScheduleValidates(t *testing.T) {
	cfg := network.DefaultConfig()
	bad := &Schedule{Algorithm: "BAD", N: 4,
		Steps: []Step{{Transfer{Src: 0, Dst: 7, Bytes: 1}}}}
	if _, err := ExecuteSchedule(bad, Request{Cfg: cfg}); err == nil {
		t.Error("out-of-range transfer should error")
	}
	empty := &Schedule{Algorithm: "BAD", N: 4, Steps: []Step{{}}}
	if _, err := ExecuteSchedule(empty, Request{Cfg: cfg}); err == nil {
		t.Error("empty step should error")
	}
}

// Step completion times must be monotone and reach the makespan for a
// barrier-free pairwise schedule.
func TestExecuteScheduleStepTimes(t *testing.T) {
	cfg := network.DefaultConfig()
	s := BEX(16, 1024)
	met, err := ExecuteSchedule(s, Request{Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(met.StepDone) != s.NumSteps() {
		t.Fatalf("%d step times for %d steps", len(met.StepDone), s.NumSteps())
	}
	for i := 1; i < len(met.StepDone); i++ {
		if met.StepDone[i] <= met.StepDone[i-1] {
			t.Errorf("step %d done at %v, not after step %d at %v",
				i, met.StepDone[i], i-1, met.StepDone[i-1])
		}
	}
	last := met.StepDone[len(met.StepDone)-1]
	if last > met.Elapsed {
		t.Errorf("last step %v after makespan %v", last, met.Elapsed)
	}
}
