package sched

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/topo"
)

// Kind classifies a registered algorithm by the shape of work it runs.
type Kind string

// The four algorithm kinds of the registry.
const (
	KindExchange   Kind = "exchange"   // regular all-to-all / regular patterns
	KindBroadcast  Kind = "broadcast"  // one-to-all
	KindIrregular  Kind = "irregular"  // schedulers for arbitrary patterns
	KindCollective Kind = "collective" // CMMD collective node programs
)

// ErrUnknownAlgorithm is returned (wrapped, with the requested name and
// the registry's known names) by Lookup and everything built on it.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// Request carries every input a registered algorithm may consume. Which
// fields matter depends on the algorithm's kind: exchanges use N and
// Bytes (SHIFT also Offset), broadcasts add Root, irregular schedulers
// take Pattern instead of N/Bytes, and collectives use N and Bytes as
// the per-block size. Seed feeds stochastic planners (GSR); Async,
// Trace and Observer configure the machine the run executes on.
type Request struct {
	N       int            // machine size (power of two)
	Bytes   int            // bytes per message / pair / block
	Root    int            // broadcast root (default 0)
	Offset  int            // SHIFT offset (default 0: no traffic)
	Pattern pattern.Matrix // irregular pattern; implies the machine size
	Seed    int64          // tie-break seed for stochastic planners
	Cfg     network.Config
	Topo    topo.Topology        // data-network topology; nil = the CM-5 fat tree
	Async   bool                 // buffered (non-blocking) sends
	Trace   bool                 // collect per-message trace events
	Obs     network.FlowObserver // live flow observer, or nil
	Faults  *network.FaultPlan   // fault events injected into the run, or nil

	// Observability sinks, both passive and both optional: Met receives
	// engine/network/scheduler counters, Timeline records sim-time spans
	// and instants (flows, messages, steps, faults, AS re-plans).
	Met      *obs.SimMetrics
	Timeline *obs.Timeline
}

// Info describes one registered algorithm. At least one of plan/run is
// set: schedule-backed algorithms plan an explicit Schedule that the
// generic executor runs; program-backed algorithms (the broadcasts,
// the crystal router, the collectives) run a node program directly.
// When both are set (REX), Execute prefers run — the program carries
// costs the schedule view cannot express — while Plan uses plan.
type Info struct {
	Name string
	Kind Kind
	Doc  string // one-line description, paper reference included
	// Aux marks algorithms outside the paper's named comparison sets
	// (SHIFT, CRYSTAL, GSR, AS): reachable through Lookup and Execute,
	// but not listed by FamilyNames.
	Aux bool

	plan func(Request) (*Schedule, error)
	run  func(Request) (*Metrics, error)
}

// registry lists every algorithm in canonical order: the paper's
// exchange, broadcast and irregular families, then the auxiliary
// regular/irregular algorithms, then the collectives.
var registry = []*Info{
	{Name: "LEX", Kind: KindExchange,
		Doc:  "Linear Exchange: N steps, step i funnels into processor i (Section 3.1)",
		plan: func(r Request) (*Schedule, error) { return LEX(r.N, r.Bytes), nil }},
	{Name: "PEX", Kind: KindExchange,
		Doc:  "Pairwise Exchange: N-1 XOR-pairing steps (Section 3.2, Figure 2)",
		plan: func(r Request) (*Schedule, error) { return PEX(r.N, r.Bytes), nil }},
	{Name: "REX", Kind: KindExchange,
		Doc:  "Recursive Exchange: lg N store-and-forward steps with pack/unpack costs (Section 3.3, Figure 3)",
		plan: func(r Request) (*Schedule, error) { return REX(r.N, r.Bytes), nil },
		run:  runREXMetrics},
	{Name: "BEX", Kind: KindExchange,
		Doc:  "Balanced Exchange: PEX over a virtual numbering, spreading root-crossing traffic (Section 3.4, Figure 4)",
		plan: func(r Request) (*Schedule, error) { return BEX(r.N, r.Bytes), nil }},
	{Name: "LIB", Kind: KindBroadcast,
		Doc: "Linear Broadcast: the root sends to the other N-1 nodes one by one (Section 3.6)",
		run: func(r Request) (*Metrics, error) {
			return runProgramMetrics(r.N, 1, r, libProgram(r.Root, r.Bytes))
		}},
	{Name: "REB", Kind: KindBroadcast,
		Doc: "Recursive Broadcast: lg N doubling steps over the data network (Section 3.6, Figure 9)",
		run: func(r Request) (*Metrics, error) {
			return runProgramMetrics(r.N, LgN(r.N), r, func(nd *cmmd.Node) {
				ExecuteREBNode(nd, r.Root, r.Bytes)
			})
		}},
	{Name: "SYS", Kind: KindBroadcast,
		Doc: "CMMD system broadcast over the control network's broadcast bandwidth",
		run: func(r Request) (*Metrics, error) {
			return runProgramMetrics(r.N, 1, r, sysProgram(r.Root, r.Bytes))
		}},
	{Name: "LS", Kind: KindIrregular,
		Doc:  "Linear Scheduling: linear exchange filtered by the communication matrix (Section 4.1)",
		plan: func(r Request) (*Schedule, error) { return LS(r.Pattern), nil }},
	{Name: "PS", Kind: KindIrregular,
		Doc:  "Pairwise Scheduling: pairwise-exchange pairings filtered by the matrix (Section 4.2)",
		plan: func(r Request) (*Schedule, error) { return PS(r.Pattern), nil }},
	{Name: "BS", Kind: KindIrregular,
		Doc:  "Balanced Scheduling: balanced-exchange pairings filtered by the matrix (Section 4.3)",
		plan: func(r Request) (*Schedule, error) { return BS(r.Pattern), nil }},
	{Name: "GS", Kind: KindIrregular,
		Doc:  "Greedy Scheduling: greedy matching with the deterministic next-available scan (Section 4.4, Figure 12)",
		plan: func(r Request) (*Schedule, error) { return GS(r.Pattern), nil }},
	{Name: "SHIFT", Kind: KindExchange, Aux: true,
		Doc: "Circular shift by Offset in two deadlock-free waves (Section 3's regular patterns)",
		plan: func(r Request) (*Schedule, error) {
			return Shift(r.N, r.Offset, r.Bytes), nil
		}},
	{Name: "CRYSTAL", Kind: KindIrregular, Aux: true,
		Doc: "Crystal router: hypercube store-and-forward baseline (Fox et al. 1988)",
		run: runCrystalMetrics},
	{Name: "GSR", Kind: KindIrregular, Aux: true,
		Doc: "Greedy Scheduling with seeded random tie-breaking (the paper's ablation variant)",
		plan: func(r Request) (*Schedule, error) {
			return GSWith(r.Pattern, GSOptions{RandomTieBreak: true, Seed: r.Seed}), nil
		}},
	{Name: "AS", Kind: KindIrregular, Aux: true,
		Doc: "Adaptive Scheduling: greedy-matching phases re-planned mid-run from observed wire and end-to-end transfer rates (fault-aware; beyond the paper)",
		run: runAdaptiveMetrics},
}

// collectiveDocs captures one line per collective for the registry.
var collectiveDocs = map[string]string{
	"scatter":   "root distributes one distinct block to every node (linear sends)",
	"gather":    "every node sends its block to the root (linear receives)",
	"allgather": "ring all-gather: every node ends holding all N blocks",
	"reduce":    "binomial-tree reduction of float64 vectors to the root",
	"allreduce": "recursive-doubling butterfly all-reduce of float64 vectors",
	"transpose": "all-to-all personalized exchange via PEX pairing",
	"cshift":    "circular shift by one in two deadlock-free waves",
	"halo":      "2-D stencil ghost exchange of the machine size",
}

var byName = map[string]*Info{}

func init() {
	for _, name := range cmmd.CollectiveNames() {
		name := name
		registry = append(registry, &Info{
			Name: name, Kind: KindCollective, Doc: collectiveDocs[name],
			run: func(r Request) (*Metrics, error) { return runCollectiveMetrics(name, r) },
		})
	}
	for _, inf := range registry {
		if _, dup := byName[inf.Name]; dup {
			panic("sched: duplicate algorithm " + inf.Name)
		}
		byName[inf.Name] = inf
	}
}

// Lookup resolves an algorithm name to its registry entry. The match is
// exact first, then case-folded, so "pex" and "PEX" both resolve. A miss
// returns an error wrapping ErrUnknownAlgorithm that lists every known
// name.
func Lookup(name string) (*Info, error) {
	if inf, ok := byName[name]; ok {
		return inf, nil
	}
	if inf, ok := byName[strings.ToUpper(name)]; ok {
		return inf, nil
	}
	if inf, ok := byName[strings.ToLower(name)]; ok {
		return inf, nil
	}
	return nil, fmt.Errorf("sched: %w %q (known: %s)",
		ErrUnknownAlgorithm, name, strings.Join(Names(), " "))
}

// Algorithms returns every registry entry in canonical order.
func Algorithms() []*Info { return append([]*Info(nil), registry...) }

// Names returns every registered algorithm name in canonical order.
func Names() []string {
	out := make([]string, len(registry))
	for i, inf := range registry {
		out[i] = inf.Name
	}
	return out
}

// FamilyNames returns the non-auxiliary names of one kind in canonical
// order — the paper's named comparison sets (LEX/PEX/REX/BEX and so on).
func FamilyNames(kind Kind) []string {
	var out []string
	for _, inf := range registry {
		if inf.Kind == kind && !inf.Aux {
			out = append(out, inf.Name)
		}
	}
	return out
}

// Plan builds the algorithm's explicit schedule for the request, without
// running it. Program-backed algorithms with no static schedule (the
// broadcasts, the crystal router, the collectives) return an error.
func (a *Info) Plan(req Request) (*Schedule, error) {
	if a.plan == nil {
		return nil, fmt.Errorf("sched: %s is program-backed and has no explicit schedule", a.Name)
	}
	if err := a.validate(req); err != nil {
		return nil, err
	}
	return a.plan(req)
}

// Execute runs the algorithm for the request and returns its metrics.
func (a *Info) Execute(req Request) (*Metrics, error) {
	if err := a.validate(req); err != nil {
		return nil, err
	}
	if a.run != nil {
		return a.run(req)
	}
	s, err := a.plan(req)
	if err != nil {
		return nil, err
	}
	return ExecuteSchedule(s, req)
}

// validate rejects requests the algorithm's planner or runner would
// otherwise panic on, or that no machine could run: machine sizes that
// are not powers of two in [2, topo.MaxNodes] (checked before planning,
// since an oversized LEX alone plans N*(N-1) transfers), missing
// patterns, out-of-range broadcast roots.
func (a *Info) validate(req Request) error {
	if a.Kind == KindIrregular {
		if req.Pattern == nil {
			return fmt.Errorf("sched: %s needs a communication pattern", a.Name)
		}
		if n := req.Pattern.N(); !validMachineSize(n) {
			return fmt.Errorf("sched: %s pattern size %d must be a power of two in [2, %d]", a.Name, n, topo.MaxNodes)
		}
		return nil
	}
	if !validMachineSize(req.N) {
		return fmt.Errorf("sched: %s machine size %d must be a power of two in [2, %d]", a.Name, req.N, topo.MaxNodes)
	}
	if a.Kind == KindBroadcast && (req.Root < 0 || req.Root >= req.N) {
		return fmt.Errorf("sched: %s root %d out of range [0,%d)", a.Name, req.Root, req.N)
	}
	return nil
}

func validMachineSize(n int) bool { return n >= 2 && n <= topo.MaxNodes && n&(n-1) == 0 }
