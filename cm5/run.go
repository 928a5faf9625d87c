package cm5

import (
	"errors"

	"repro/internal/cmmd"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Trace holds per-message events (post, wire start, arrival) recorded
// when a Job ran with WithTrace; see Result.Trace.
type Trace = cmmd.Trace

// MsgEvent is one traced message's lifecycle.
type MsgEvent = cmmd.MsgEvent

// FlowInfo describes one data-network flow to an Observer.
type FlowInfo = network.FlowInfo

// Observer receives live flow events from the data network during a
// run (attach with WithObserver). Callbacks run synchronously with the
// simulation and must not block; observation never changes simulated
// timing.
type Observer = network.FlowObserver

// Job describes one run: which Algorithm (or explicit Schedule), on
// how many nodes, moving how many bytes, under which options. Build
// one with NewJob, PatternJob or ScheduleJob and pass it to Run.
type Job struct {
	alg      Algorithm
	n        int
	bytes    int
	root     int
	offset   int
	pattern  Pattern
	schedule *Schedule
	topo     Topology
	cfg      Config
	cfgSet   bool
	seed     int64
	async    bool
	trace    bool
	obs      Observer
	faults   *FaultPlan
	reg      *MetricsRegistry
	timeline *Timeline
	// optErr defers an option-construction failure (e.g. an invalid
	// trace passed to WithTraceWorkload) to Run/Plan, which cannot
	// otherwise report it: JobOption returns nothing.
	optErr error
}

// JobOption configures a Job.
type JobOption func(*Job)

// WithConfig sets the machine timing constants (default:
// DefaultConfig, the calibrated CM-5 model).
func WithConfig(cfg Config) JobOption {
	return func(j *Job) { j.cfg, j.cfgSet = cfg, true }
}

// WithSeed seeds stochastic planners — today the GSR scheduler's
// randomized tie-breaking. Deterministic algorithms ignore it.
func WithSeed(seed int64) JobOption {
	return func(j *Job) { j.seed = seed }
}

// WithAsync switches the run to buffered (non-blocking) sends — the
// what-if of the paper's Section 3.1 (real CMMD 1.x was
// synchronous-only).
func WithAsync(on bool) JobOption {
	return func(j *Job) { j.async = on }
}

// WithObserver attaches a live flow observer to the run's data network.
func WithObserver(o Observer) JobOption {
	return func(j *Job) { j.obs = o }
}

// WithFaults injects a fault plan into the run: link failures with
// reroute, degraded links, straggler nodes and background cross-traffic
// at scheduled simulation times. Build plans with NewFaultPlan (the
// named profiles) or assemble FaultEvents by hand; nil means a healthy
// machine. The plan is validated against the run's topology before
// anything executes, and Result.Faults reports what it did.
func WithFaults(p *FaultPlan) JobOption {
	return func(j *Job) { j.faults = p }
}

// WithRoot sets the broadcast root (default 0). Non-broadcast
// algorithms ignore it.
func WithRoot(root int) JobOption {
	return func(j *Job) { j.root = root }
}

// WithOffset sets the SHIFT algorithm's circular-shift offset (default
// 0, which moves nothing). Other algorithms ignore it.
func WithOffset(offset int) JobOption {
	return func(j *Job) { j.offset = offset }
}

// WithTrace records every message's lifecycle; the trace is returned
// in Result.Trace.
func WithTrace() JobOption {
	return func(j *Job) { j.trace = true }
}

// WithPattern sets the communication pattern for irregular algorithms
// (PatternJob is the usual shorthand).
func WithPattern(p Pattern) JobOption {
	return func(j *Job) { j.pattern = p }
}

// WithTopology runs the job's data network over the given topology
// instead of the default CM-5 fat tree. The topology's node count must
// match the job's machine size. Build one with NewTopology or implement
// the Topology interface directly.
func WithTopology(t Topology) JobOption {
	return func(j *Job) { j.topo = t }
}

// NewJob describes a run of alg on an n-node machine with nbytes per
// message (per processor pair for the exchanges, per block for the
// collectives, total message size for the broadcasts).
func NewJob(alg Algorithm, n, nbytes int, opts ...JobOption) Job {
	j := Job{alg: alg, n: n, bytes: nbytes}
	for _, opt := range opts {
		opt(&j)
	}
	return j
}

// PatternJob describes a run of an irregular algorithm (LS, PS, BS,
// GS, GSR, CRYSTAL) over a communication pattern; the machine size and
// message sizes come from the pattern itself.
func PatternJob(alg Algorithm, p Pattern, opts ...JobOption) Job {
	return NewJob(alg, 0, 0, append([]JobOption{WithPattern(p)}, opts...)...)
}

// ScheduleJob describes a run of an explicit, already-built Schedule
// through the generic executor, bypassing the registry's planners.
func ScheduleJob(s *Schedule, opts ...JobOption) Job {
	j := Job{schedule: s}
	for _, opt := range opts {
		opt(&j)
	}
	return j
}

// Algorithm returns the job's algorithm (zero for ScheduleJob).
func (j Job) Algorithm() Algorithm { return j.alg }

// Pattern returns the job's communication pattern (nil for jobs
// without one).
func (j Job) Pattern() Pattern { return j.pattern }

// Topology returns the job's data-network topology (nil for the
// default CM-5 fat tree).
func (j Job) Topology() Topology { return j.topo }

// request lowers the job onto the internal registry request.
func (j Job) request() sched.Request {
	cfg := j.cfg
	if !j.cfgSet {
		cfg = DefaultConfig()
	}
	return sched.Request{
		N: j.n, Bytes: j.bytes, Root: j.root, Offset: j.offset,
		Pattern: j.pattern, Seed: j.seed, Cfg: cfg, Topo: j.topo,
		Async: j.async, Trace: j.trace, Obs: j.obs, Faults: j.faults,
		Met: obs.Sim(j.reg), Timeline: j.timeline,
	}
}

// Result is the rich outcome of one Run: the makespan plus schedule
// statistics and network metrics.
type Result struct {
	// Algorithm identifies what ran (zero for ScheduleJob runs of
	// hand-built schedules whose name is not in the registry).
	Algorithm Algorithm

	// Elapsed is the simulated completion time of the slowest node.
	Elapsed Duration

	// Schedule statistics. For schedule-backed algorithms they describe
	// the executed schedule exactly; for program-backed ones (REX, the
	// broadcasts, CRYSTAL, the collectives) Steps is the logical step
	// count (0 when the algorithm has none) and Messages/TotalBytes
	// count the wire messages actually sent, forwarded traffic
	// included.
	Steps      int
	Messages   int
	TotalBytes int64
	// MaxFanIn is the largest number of transfers converging on one
	// node within a step — the receiver-side serialization bound under
	// synchronous sends (N-1 for LEX, 1 for the pairwise schedules).
	MaxFanIn int

	// StepTimes[i] is the virtual time the last node finished step i's
	// transfers; non-nil only for schedule-backed runs.
	StepTimes []Duration

	// LevelUtilization maps each topology level to carried bytes over
	// the level's capacity x makespan — the fraction of the level the
	// run actually used. Level 0 is the node links; for the default
	// fat tree the other levels are the tree levels.
	LevelUtilization map[int]float64

	// LinkUtilization lists every data-network link that carried
	// traffic, in topology order — the per-link view behind the
	// per-level aggregate above.
	LinkUtilization []LinkUtil

	// Data-network totals: flows started and wire bytes moved
	// (user bytes plus packetization overhead).
	Flows     int
	WireBytes int64

	// Faults reports what the job's fault plan (WithFaults) did to the
	// run: events applied, links killed and degraded, stragglers, flows
	// rerouted, background traffic injected. The zero value for a
	// fault-free run.
	Faults FaultStats

	// Trace holds per-message events when the job ran WithTrace.
	Trace *Trace

	// Timeline holds the run's sim-time spans and instants when the job
	// ran WithTimeline; nil otherwise.
	Timeline *Timeline
}

// Run executes the job on a fresh simulated machine and returns the
// rich result. Every algorithm in the registry, and every explicit
// schedule, runs through this one path.
func Run(job Job) (Result, error) {
	if job.optErr != nil {
		return Result{}, job.optErr
	}
	var (
		met *sched.Metrics
		err error
	)
	switch {
	case job.schedule != nil:
		met, err = sched.ExecuteSchedule(job.schedule, job.request())
	case !job.alg.IsZero():
		met, err = job.alg.info.Execute(job.request())
	default:
		return Result{}, errors.New("cm5: empty job: no algorithm and no schedule")
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Algorithm:        job.alg,
		Elapsed:          met.Elapsed,
		Steps:            met.Steps,
		Messages:         met.Messages,
		TotalBytes:       met.TotalBytes,
		MaxFanIn:         met.MaxFanIn,
		StepTimes:        met.StepDone,
		LevelUtilization: met.LevelUtilization,
		LinkUtilization:  met.LinkUtilization,
		Flows:            met.Flows,
		WireBytes:        met.WireBytes,
		Faults:           met.Faults,
		Trace:            met.Trace,
		Timeline:         job.timeline,
	}
	if res.Algorithm.IsZero() && job.schedule != nil {
		if a, lerr := LookupAlgorithm(job.schedule.Algorithm); lerr == nil {
			res.Algorithm = a
		}
	}
	return res, nil
}

// Plan builds the explicit Schedule the job would execute, without
// running it. Program-backed algorithms with no static schedule (the
// broadcasts, CRYSTAL, the collectives) return an error; ScheduleJob
// jobs return their schedule unchanged.
func Plan(job Job) (*Schedule, error) {
	if job.optErr != nil {
		return nil, job.optErr
	}
	if job.schedule != nil {
		return job.schedule, nil
	}
	if job.alg.IsZero() {
		return nil, errors.New("cm5: empty job: no algorithm and no schedule")
	}
	return job.alg.info.Plan(job.request())
}
