package sched

import (
	"testing"

	"repro/internal/network"
	"repro/internal/pattern"
)

// BenchmarkExchangePlan times the step generators alone at N=256: the
// complete exchanges of 256 B messages and the linear and balanced
// schedules of the 10% synthetic pattern.
func BenchmarkExchangePlan(b *testing.B) {
	p := pattern.Synthetic(256, 0.1, 256, 1)
	for _, c := range []struct {
		name string
		plan func() *Schedule
	}{
		{"LEX/N=256", func() *Schedule { return LEX(256, 256) }},
		{"PEX/N=256", func() *Schedule { return PEX(256, 256) }},
		{"BEX/N=256", func() *Schedule { return BEX(256, 256) }},
		{"LS/synthetic10/N=256", func() *Schedule { return LS(p) }},
		{"BS/synthetic10/N=256", func() *Schedule { return BS(p) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.plan()
			}
		})
	}
}

// BenchmarkGSPlan times Figure 12's greedy planner alone at N=256: the
// many-to-one funnel, where one row holds every pending message, and
// the 10% synthetic pattern of the paper's Section 4 comparison.
func BenchmarkGSPlan(b *testing.B) {
	for _, c := range []struct {
		name string
		p    pattern.Matrix
	}{
		{"hotspot/N=256", pattern.HotSpot(256, 0, 256)},
		{"synthetic10/N=256", pattern.Synthetic(256, 0.1, 256, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GS(c.p)
			}
		})
	}
}

// BenchmarkASPlan times the adaptive planner alone: every phase of the
// N=256 10% synthetic pattern under the node-rate estimates a run
// starts from, with no simulation in between.
func BenchmarkASPlan(b *testing.B) {
	p := pattern.Synthetic(256, 0.1, 256, 1)
	cfg := network.DefaultConfig()
	b.Run("synthetic10/N=256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ad := newAdaptivePlanner(p, cfg)
			for k := 0; len(ad.phase(k, 0)) > 0; k++ {
			}
		}
	})
}
