package sched

import (
	"fmt"

	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Metrics is the full measurement of one algorithm run: the makespan
// plus schedule statistics and the network-level signals the rich
// Result API surfaces.
type Metrics struct {
	Elapsed sim.Time // completion time of the slowest node

	// Schedule statistics. For schedule-backed algorithms they describe
	// the executed schedule exactly; for program-backed algorithms
	// Steps is the algorithm's logical step count (0 when it has none)
	// and Messages/TotalBytes count the wire messages the program
	// actually sent — which for store-and-forward algorithms (REX, the
	// crystal router) include forwarded traffic.
	Steps      int
	Messages   int
	TotalBytes int64
	MaxFanIn   int // max simultaneous inbound transfers at one node in a step

	// StepDone[i] is the virtual time at which the last node finished
	// step i's transfers. Non-nil only for schedule-backed runs.
	StepDone []sim.Time

	// LevelUtilization maps each topology level to carried bytes over
	// level capacity x makespan; level 0 is the node links. For the
	// default fat tree the levels are the tree levels.
	LevelUtilization map[int]float64

	// LinkUtilization lists every link that carried traffic, in
	// topology index order — the per-link view behind the per-level
	// aggregate above.
	LinkUtilization []network.LinkUtil

	// Data-network totals: flow count and wire bytes (user bytes plus
	// packetization overhead) across the run.
	Flows     int
	WireBytes int64

	// Faults reports what Request.Faults did to the run (the zero value
	// for a fault-free run): events applied, links killed/degraded,
	// stragglers, flows rerouted, background traffic injected.
	Faults network.FaultStats

	// Trace holds per-message events when Request.Trace was set.
	Trace *cmmd.Trace
}

// newMachine builds a machine configured per the request: the data
// topology (the CM-5 fat tree when unset), async sends, tracing, and
// the flow observer attached before anything runs.
func newMachine(n int, req Request) (*cmmd.Machine, error) {
	var (
		m   *cmmd.Machine
		err error
	)
	if req.Topo != nil {
		if req.Topo.N() != n {
			return nil, fmt.Errorf("sched: topology %s has %d nodes, run needs %d",
				req.Topo.Name(), req.Topo.N(), n)
		}
		m, err = cmmd.NewMachineOn(req.Topo, req.Cfg)
	} else {
		m, err = cmmd.NewMachine(n, req.Cfg)
	}
	if err != nil {
		return nil, err
	}
	if req.Async {
		m.SetAsyncSends(true)
	}
	if req.Trace {
		m.EnableTrace()
	}
	if req.Obs != nil {
		m.Net().SetObserver(req.Obs)
	}
	if req.Met != nil {
		m.SetMetrics(req.Met)
	}
	// Timeline before faults: ApplyFaults wraps its events with instant
	// recorders only when a timeline is already attached.
	if req.Timeline != nil {
		m.SetTimeline(req.Timeline)
	}
	if err := m.ApplyFaults(req.Faults); err != nil {
		return nil, err
	}
	return m, nil
}

// finishMetrics fills the network-side fields common to every run.
func finishMetrics(met *Metrics, m *cmmd.Machine, elapsed sim.Time) {
	met.Elapsed = elapsed
	met.LevelUtilization = m.Net().LevelUtilization(elapsed)
	met.LinkUtilization = m.Net().LinkUtilization(elapsed)
	met.Flows = m.Net().TotalFlows()
	met.WireBytes = m.Net().TotalWireBytes()
	met.Faults = m.FaultStats()
	met.Trace = m.Trace()
}

// ExecuteSchedule runs an explicit schedule on a fresh machine
// configured per the request and returns the full metrics. This is the
// generic executor behind every schedule-backed registry algorithm, and
// the path raw schedules (cm5.ScheduleJob) run through.
func ExecuteSchedule(s *Schedule, req Request) (*Metrics, error) {
	// Validate before computing stats: MaxFanIn indexes by transfer
	// endpoint, so a malformed schedule must error here, not panic.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, err := newMachine(s.N, req)
	if err != nil {
		return nil, err
	}
	met := &Metrics{
		Steps:      s.NumSteps(),
		Messages:   s.Messages(),
		TotalBytes: s.TotalBytes(),
		MaxFanIn:   s.MaxFanIn(),
		StepDone:   make([]sim.Time, len(s.Steps)),
	}
	hooks := DataHooks{OnStepDone: func(step, node int, at sim.Time) {
		if at > met.StepDone[step] {
			met.StepDone[step] = at
		}
	}}
	elapsed, err := RunOn(m, s, hooks)
	if err != nil {
		return nil, err
	}
	finishMetrics(met, m, elapsed)
	if req.Met != nil {
		req.Met.SchedSteps.Add(int64(met.Steps))
	}
	// Step spans derive from the executor's StepDone marks: step i runs
	// from the previous step's completion (the schedule is globally
	// step-synchronized) to its own.
	if req.Timeline != nil {
		prev := sim.Time(0)
		for i, at := range met.StepDone {
			if at > 0 {
				req.Timeline.RecordSpan(obs.Span{
					Cat: "sched", Name: fmt.Sprintf("step %d", i+1), Tid: -1,
					Start: int64(prev), End: int64(at),
				})
				prev = at
			}
		}
	}
	return met, nil
}

// runProgramMetrics runs a node program on a fresh machine configured
// per the request. steps is the algorithm's logical step count.
func runProgramMetrics(n, steps int, req Request, program func(*cmmd.Node)) (*Metrics, error) {
	m, err := newMachine(n, req)
	if err != nil {
		return nil, err
	}
	elapsed, err := m.Run(program)
	if err != nil {
		return nil, err
	}
	met := &Metrics{Steps: steps}
	met.Messages = m.Net().TotalFlows()
	met.TotalBytes = m.UserBytesSent()
	finishMetrics(met, m, elapsed)
	if req.Met != nil {
		req.Met.SchedSteps.Add(int64(steps))
	}
	return met, nil
}

// runREXMetrics executes the store-and-forward recursive exchange; the
// schedule view supplies the fan-in bound while the counters report the
// combined messages actually sent.
func runREXMetrics(req Request) (*Metrics, error) {
	met, err := runProgramMetrics(req.N, LgN(req.N), req, func(nd *cmmd.Node) {
		ExecuteREXNode(nd, req.Bytes)
	})
	if err != nil {
		return nil, err
	}
	met.MaxFanIn = 1 // pairwise at every step
	return met, nil
}

// runCollectiveMetrics executes a collective node program.
func runCollectiveMetrics(name string, req Request) (*Metrics, error) {
	program, err := cmmd.CollectiveProgram(name, req.N, req.Bytes)
	if err != nil {
		return nil, err
	}
	return runProgramMetrics(req.N, 0, req, program)
}
