package exp

import (
	"context"
	"fmt"

	"repro/cm5"
	"repro/internal/network"
	"repro/internal/store"
	"repro/internal/topo"
)

// The faults family goes beyond the paper's evaluation: the butterfly
// workload run under an unreliable machine. Every cell injects one
// named fault profile (healthy, link-down, degrade, straggler,
// crosstraffic) into the run and compares the paper's static
// schedulers LS/PS/BS/GS against the adaptive scheduler AS, which
// re-plans the remaining transfers phase by phase from observed
// transfer rates. The sweep runs
// over the hypercube interconnect: its path diversity is what lets the
// link-down profile kill links outright and reroute around them — on
// the fat tree every interior link is a cut edge, so failures there
// only brown out (see the link-down profile doc).

// FaultSizes are the machine sizes of the faults sweep.
var FaultSizes = []int{16, 64, 256}

// FaultBytes is the per-message size of the faults sweep (the scenario
// sweep's, so healthy rows cross-check against the other families).
const FaultBytes = ScenarioBytes

// FaultWorkload is the communication pattern of the faults sweep.
const FaultWorkload = "butterfly"

// FaultTopology is the interconnect of the faults sweep.
const FaultTopology = "hypercube"

// FaultSchedulers are the column algorithms: the paper's irregular
// schedulers plus the adaptive scheduler.
var FaultSchedulers = []string{"LS", "PS", "BS", "GS", "AS"}

// FaultsSpec builds the fault-injection sweep: the butterfly workload
// over the hypercube under every named fault profile, scheduled with
// each of LS/PS/BS/GS/AS at every fault machine size. One cell per
// (profile, size, algorithm). A cell's spec seeds its pattern and its
// fault plan with scenarioSeed, so the healthy row replays the other
// families' patterns exactly. The seed-deterministic plan is also
// built eagerly against the run's topology and filed into the cell's
// content-hash spec, so plans address store records the same way
// machine sizes do.
func FaultsSpec(cfg network.Config) (*TableSpec, error) {
	profiles := cm5.FaultProfiles()
	var cols []string
	for _, n := range FaultSizes {
		for _, alg := range FaultSchedulers {
			cols = append(cols, fmt.Sprintf("%s@N%d", alg, n))
		}
	}
	t := NewTable(fmt.Sprintf("Faults: %s on the %s under fault profiles x schedulers, %d B messages (ms)",
		FaultWorkload, FaultTopology, FaultBytes), profiles, cols)
	spec := &TableSpec{Name: "faults", Table: t}
	for r, profile := range profiles {
		c := 0
		for _, n := range FaultSizes {
			tp, err := topo.New(FaultTopology, n, cfg.TopologyRates())
			if err != nil {
				return nil, err
			}
			plan, err := cm5.NewFaultPlan(profile, tp, scenarioSeed(n))
			if err != nil {
				return nil, err
			}
			for _, alg := range FaultSchedulers {
				key := fmt.Sprintf("faults/%s/%s/%s/%s/N%d", FaultWorkload, FaultTopology, profile, alg, n)
				extra := store.Spec{"faults": plan, "fault_plan_version": network.FaultPlanVersion}
				js := cm5.Spec{Algorithm: alg, N: n, Bytes: FaultBytes, Workload: FaultWorkload,
					Topology: FaultTopology, FaultProfile: profile, Seed: scenarioSeed(n)}
				col := c
				spec.AddCellSpec(key, extra,
					func(ctx context.Context, _ int64, rec *Rec) error {
						res, err := runSpec(ctx, cfg, js, nil)
						if err != nil {
							return err
						}
						rec.Set(r, col, "%.3f", res.Elapsed.Millis())
						rec.PutFloat("elapsed_ms", res.Elapsed.Millis())
						rec.PutInt("steps", res.Steps)
						rec.PutInt("fault_events", res.Faults.Events)
						rec.PutInt("links_down", res.Faults.LinksDown)
						rec.PutInt("links_degraded", res.Faults.LinksDegraded)
						rec.PutInt("stragglers", res.Faults.Stragglers)
						rec.PutInt("rerouted", res.Faults.Rerouted)
						rec.PutInt("background_flows", res.Faults.BackgroundFlows)
						return nil
					})
				c++
			}
		}
	}
	t.Note = "The healthy row is the control: its LS/PS/BS/GS cells at N=64 and N=256 match the " +
		"topology family's hypercube butterfly cells exactly. Under faults the static schedulers " +
		"keep their precomputed pairings regardless of what the machine does; AS re-plans the " +
		"remaining transfers after each phase from observed wire and end-to-end rates, " +
		"front-loading the pairs the faults slowed so they overlap with healthy ones."
	return spec, nil
}
