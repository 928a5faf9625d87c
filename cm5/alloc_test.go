package cm5_test

import (
	"math"
	"testing"

	"repro/cm5"
)

// TestRunAllocationsPinned pins the heap allocations of one cm5.Run,
// measured after a warm-up run. The message path is allocation-free in
// steady state (per-node rendezvous records, recycled flows, a per-node
// transfer index), so what remains is per-node and per-link setup. The
// counts move by a few objects run to run, hence the 0.1% tolerance; a
// change that lowers one updates its pin, and a rise fails. A -race
// build allocates more, so it checks only the per-message bound.
func TestRunAllocationsPinned(t *testing.T) {
	sparse := cm5.SyntheticPattern(64, 0.25, 256, 1)
	for _, c := range []struct {
		name string
		job  cm5.Job
		want float64 // allocations of one run
		// perMsg bounds allocations per simulated message (0: no bound).
		perMsg float64
	}{
		{"PEX/N64", cm5.NewJob(cm5.MustAlgorithm("PEX"), 64, 256), 2976, 1},
		{"BEX/N128", cm5.NewJob(cm5.MustAlgorithm("BEX"), 128, 256), 5928, 1},
		{"GS/N64", cm5.PatternJob(cm5.MustAlgorithm("GS"), sparse), 3152, 0},
		{"LS/N64", cm5.PatternJob(cm5.MustAlgorithm("LS"), sparse), 3102, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var msgs int
			got := testing.AllocsPerRun(1, func() {
				res, err := cm5.Run(c.job)
				if err != nil {
					t.Fatal(err)
				}
				msgs = res.Messages
			})
			if tol := math.Ceil(c.want / 1000); !raceEnabled && math.Abs(got-c.want) > tol {
				t.Errorf("one run allocates %.0f objects, pinned %.0f ± %.0f: update the pin if the change is meant",
					got, c.want, tol)
			}
			if c.perMsg > 0 && got > c.perMsg*float64(msgs) {
				t.Errorf("%.0f allocations for %d messages, want at most %g per message", got, msgs, c.perMsg)
			}
		})
	}
}
