// Package cm5 is the public API of the CM-5 communication-scheduling
// library: a discrete-event model of the Connection Machine CM-5's data
// and control networks together with the complete-exchange, broadcast,
// and irregular-pattern scheduling algorithms of Ponnusamy, Thakur,
// Choudhary and Fox, "Scheduling Regular and Irregular Communication
// Patterns on the CM-5" (SC 1992).
//
// The API has three nouns. An Algorithm is a typed identifier resolved
// through the central registry (LookupAlgorithm, Algorithms,
// AlgorithmsOf); it carries a Kind — exchange, broadcast, irregular, or
// collective — and a doc string. A Job says what to run: an algorithm
// plus a machine size and message size (NewJob), a communication
// pattern (PatternJob), or an explicit schedule (ScheduleJob), refined
// by functional options such as WithConfig, WithSeed, WithAsync,
// WithObserver, WithTopology and WithTrace. Run executes a Job and
// returns a Result: the simulated makespan plus schedule statistics
// (steps, messages, bytes, max fan-in) and network metrics (per-step
// completion times, per-level and per-link utilization).
//
// The data network is topology-pluggable: by default every Job runs
// over the calibrated CM-5 fat tree, and WithTopology swaps in any
// Topology — a named family from NewTopology (fat-tree, tapered,
// torus2d, torus3d, hypercube, dragonfly; see Topologies) or a custom
// implementation of the interface. The fat tree built by
// NewTopology("fat-tree", n) reproduces the default machine bit for
// bit.
//
// Quick start:
//
//	pex, _ := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("PEX"), 32, 1024))
//	bex, _ := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("BEX"), 32, 1024))
//	fmt.Printf("PEX %.3f ms  BEX %.3f ms\n", pex.Elapsed.Millis(), bex.Elapsed.Millis())
//
// For irregular patterns, build a Pattern (bytes from processor i to j)
// and run it through one of the schedulers:
//
//	p := cm5.SyntheticPattern(32, 0.25, 256, 1)
//	gs, _ := cm5.Run(cm5.PatternJob(cm5.MustAlgorithm("GS"), p))
//	fmt.Printf("GS: %d steps, %.3f ms\n", gs.Steps, gs.Elapsed.Millis())
//
// Plan builds the explicit Schedule a job would run without executing
// it — the registry's planners are the paper's Tables 1-4 and 7-10.
//
// A Spec is a job as plain data — algorithm, sizes, workload or trace,
// topology, seed, faults — in the JSON form the cmserve daemon and
// cmtrace -spec read (DecodeSpec); Spec.Job lowers it onto a Job.
//
// Node-level programming (the CMMD model: synchronous Send/Recv,
// barriers, control-network collectives) is available through
// NewMachine. The collectives library (Collectives, CollectivePattern,
// GhostExchange and the Node methods Scatter, Gather, AllGather,
// ReduceData, AllReduceData, Transpose, CShift, GhostExchange) provides
// every collective both as a registered algorithm (KindCollective) and
// as a schedulable traffic matrix. Workloads and WorkloadPattern expose
// the scenario catalogue the experiment harness sweeps.
package cm5

import (
	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Duration is simulated time in nanoseconds. Use Seconds, Millis or
// Micros for conversions.
type Duration = sim.Time

// Config holds the machine timing constants; DefaultConfig returns the
// calibrated CM-5 model (20/10/5 MB/s fat-tree envelope, 88 us message
// latency, 20-byte packets, control-network collectives).
type Config = network.Config

// DefaultConfig returns the calibrated CM-5 constants.
func DefaultConfig() Config { return network.DefaultConfig() }

// Pattern is an irregular communication pattern: Pattern[i][j] bytes
// flow from processor i to processor j.
type Pattern = pattern.Matrix

// Schedule is an explicit communication schedule (steps of transfers).
type Schedule = sched.Schedule

// Machine is a simulated CM-5 partition programmable with node programs.
type Machine = cmmd.Machine

// Node is one simulated processing node inside a Machine program.
type Node = cmmd.Node

// NewMachine builds an n-node simulated partition (n a power of two).
func NewMachine(n int, cfg Config) (*Machine, error) { return cmmd.NewMachine(n, cfg) }

// NewPattern returns an empty n-processor pattern.
func NewPattern(n int) Pattern { return pattern.New(n) }

// SyntheticPattern generates a random pattern of the given density
// (fraction of processor pairs communicating) with fixed message size.
func SyntheticPattern(n int, density float64, bytesPerMsg int, seed int64) Pattern {
	return pattern.Synthetic(n, density, bytesPerMsg, seed)
}

// PaperPatternP returns the paper's Table 6 example pattern scaled to
// bytesPerMsg per message.
func PaperPatternP(bytesPerMsg int) Pattern { return pattern.PaperP(bytesPerMsg) }

// ExchangeAlgorithms lists the complete-exchange algorithm names — a
// registry query for the non-auxiliary KindExchange entries.
func ExchangeAlgorithms() []string { return sched.FamilyNames(KindExchange) }

// BroadcastAlgorithms lists the broadcast algorithm names.
func BroadcastAlgorithms() []string { return sched.FamilyNames(KindBroadcast) }

// IrregularAlgorithms lists the irregular scheduler names.
func IrregularAlgorithms() []string { return sched.FamilyNames(KindIrregular) }
