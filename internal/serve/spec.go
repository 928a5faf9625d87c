// Package serve is the experiment-as-a-service layer behind
// cmd/cmserve: a long-running HTTP daemon that answers job requests —
// one simulation each — straight from the content-addressed result
// store on a hash hit, and simulates on a miss with single-flight
// coalescing, so a thundering herd of identical requests costs exactly
// one simulation. It reuses the PR-3 typed registry (cm5.Run), the
// PR-5 store (payload records keyed by store.HashSpec), and the
// experiment harness (exp.Runner drives the streaming sweep endpoint
// with the same cell records cmexp writes).
package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/cm5"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/store"
	"repro/internal/topo"
	"repro/internal/trace"
)

// ResultSchema versions the job-result document; it participates in
// every job hash, so bumping it invalidates stored payloads at once.
const ResultSchema = "cmserve-result/v1"

// SyntheticWorkload is the extra workload name the job API accepts
// beyond the scenario catalogue: a random pattern of the given density
// (cm5.SyntheticPattern), the shape behind the paper's Table 11.
const SyntheticWorkload = "synthetic"

// JobSpec is the wire form of one job request: everything that
// influences the simulated result. The zero value of every optional
// field is its canonical default, so two clients describing the same
// run always hash to the same store record.
type JobSpec struct {
	// Algorithm is a registry name (GET /v1/algorithms lists them).
	Algorithm string `json:"algorithm"`
	// N is the machine size, a power of two in [2, 16384].
	N int `json:"n"`
	// Bytes is the per-message size (exchanges: per pair; broadcasts:
	// total; collectives: per block; workloads: per matrix entry).
	Bytes int `json:"bytes,omitempty"`
	// Workload names a catalogue pattern (GET /v1/workloads) or
	// "synthetic"; required for irregular schedulers, rejected
	// otherwise.
	Workload string `json:"workload,omitempty"`
	// Density is the synthetic workload's fill fraction in (0, 1];
	// only valid with workload "synthetic".
	Density float64 `json:"density,omitempty"`
	// Trace names a recordable application (GET /v1/traces) whose
	// recorded communication becomes the job's pattern — the
	// alternative to Workload for irregular schedulers. The trace is
	// recorded (or fetched from the store) deterministically from
	// (trace, trace_size, n, seed, config).
	Trace string `json:"trace,omitempty"`
	// TraceSize is the traced application's problem size; 0 means the
	// app's default. Only valid with Trace.
	TraceSize int `json:"trace_size,omitempty"`
	// Topology names the interconnect (GET /v1/topologies); empty means
	// the calibrated CM-5 fat tree.
	Topology string `json:"topology,omitempty"`
	// Seed feeds the workload generator and stochastic planners.
	Seed int64 `json:"seed,omitempty"`
	// FaultProfile names a fault profile (GET /v1/faultprofiles) to
	// inject into the run, built deterministically from the run's
	// topology and Seed; empty means a healthy machine ("healthy" is a
	// valid, equivalent value).
	FaultProfile string `json:"fault_profile,omitempty"`
	// Root is the broadcast root; Offset the SHIFT distance.
	Root   int  `json:"root,omitempty"`
	Offset int  `json:"offset,omitempty"`
	Async  bool `json:"async,omitempty"`
}

// Validate resolves the spec against the registries and reports the
// first problem; the error text carries each registry's known-names
// listing, exactly as the CLI tools print it.
func (js JobSpec) Validate() error {
	if js.Algorithm == "" {
		return fmt.Errorf("missing algorithm (known: %s)", knownAlgorithms())
	}
	a, err := cm5.LookupAlgorithm(js.Algorithm)
	if err != nil {
		return err
	}
	if js.N < 2 || js.N > topo.MaxNodes || js.N&(js.N-1) != 0 {
		return fmt.Errorf("n %d must be a power of two in [2, %d]", js.N, topo.MaxNodes)
	}
	if js.Bytes < 0 {
		return fmt.Errorf("bytes %d must be >= 0", js.Bytes)
	}
	switch {
	case js.Trace != "":
		if a.Kind() != cm5.KindIrregular {
			return fmt.Errorf("algorithm %s (%s) cannot replay a trace: traces schedule through the irregular schedulers",
				a.Name(), a.Kind())
		}
		if cm5.TraceDoc(js.Trace) == "" {
			return fmt.Errorf("unknown trace app %q (known: %s)",
				js.Trace, strings.Join(cm5.Traces(), " "))
		}
		if js.Workload != "" || js.Density != 0 {
			return fmt.Errorf("trace and workload are mutually exclusive")
		}
		if js.TraceSize < 0 {
			return fmt.Errorf("trace_size %d must be >= 0", js.TraceSize)
		}
		if js.Bytes != 0 {
			return fmt.Errorf("bytes is not valid with a trace: message sizes come from the recording")
		}
	case js.TraceSize != 0:
		return fmt.Errorf("trace_size is only valid with a trace")
	case a.Kind() == cm5.KindIrregular:
		switch {
		case js.Workload == "":
			return fmt.Errorf("algorithm %s schedules a pattern: set workload (known: %s %s) or trace (known: %s)",
				a.Name(), strings.Join(pattern.WorkloadNames(), " "), SyntheticWorkload,
				strings.Join(cm5.Traces(), " "))
		case js.Workload == SyntheticWorkload:
			if js.Density <= 0 || js.Density > 1 {
				return fmt.Errorf("synthetic workload density %g must be in (0, 1]", js.Density)
			}
		default:
			if _, ok := pattern.WorkloadByName(js.Workload); !ok {
				return fmt.Errorf("unknown workload %q (known: %s %s)",
					js.Workload, strings.Join(pattern.WorkloadNames(), " "), SyntheticWorkload)
			}
			if js.Density != 0 {
				return fmt.Errorf("density is only valid with workload %q", SyntheticWorkload)
			}
		}
	case js.Workload != "" || js.Density != 0:
		return fmt.Errorf("algorithm %s (%s) takes n and bytes, not a workload",
			a.Name(), a.Kind())
	}
	if js.Topology != "" && topo.Doc(js.Topology) == "" {
		return fmt.Errorf("unknown topology %q (known: %s)",
			js.Topology, strings.Join(cm5.Topologies(), " "))
	}
	if js.FaultProfile != "" && cm5.FaultProfileDoc(js.FaultProfile) == "" {
		return fmt.Errorf("unknown fault profile %q (known: %s)",
			js.FaultProfile, strings.Join(cm5.FaultProfiles(), " "))
	}
	return nil
}

// job lowers a validated spec onto a runnable cm5.Job. Trace-driven
// jobs resolve their recording through lib — the server's store-backed
// library, or a memo-only one — so a recorded trace is fetched, not
// re-run, whenever it is already known.
func (js JobSpec) job(cfg network.Config, lib *trace.Library) (cm5.Job, error) {
	a, err := cm5.LookupAlgorithm(js.Algorithm)
	if err != nil {
		return cm5.Job{}, err
	}
	opts := []cm5.JobOption{
		cm5.WithConfig(cfg), cm5.WithSeed(js.Seed),
		cm5.WithRoot(js.Root), cm5.WithOffset(js.Offset),
		cm5.WithAsync(js.Async),
	}
	var tp cm5.Topology
	if js.Topology != "" {
		if tp, err = topo.New(js.Topology, js.N, cfg.TopologyRates()); err != nil {
			return cm5.Job{}, err
		}
		opts = append(opts, cm5.WithTopology(tp))
	}
	if js.FaultProfile != "" {
		if tp == nil {
			// The plan must be built against the same link graph the job
			// runs on — for topology-less jobs, the config's fat tree.
			if tp, err = cfg.FatTree(js.N); err != nil {
				return cm5.Job{}, err
			}
		}
		plan, err := cm5.NewFaultPlan(js.FaultProfile, tp, js.Seed)
		if err != nil {
			return cm5.Job{}, err
		}
		opts = append(opts, cm5.WithFaults(plan))
	}
	if a.Kind() != cm5.KindIrregular {
		return cm5.NewJob(a, js.N, js.Bytes, opts...), nil
	}
	if js.Trace != "" {
		tr, _, err := lib.Get(js.Trace, js.TraceSize, js.N, js.Seed, cfg)
		if err != nil {
			return cm5.Job{}, err
		}
		return cm5.NewJob(a, 0, 0, append(opts, cm5.WithTraceWorkload(tr))...), nil
	}
	var p cm5.Pattern
	if js.Workload == SyntheticWorkload {
		p = cm5.SyntheticPattern(js.N, js.Density, js.Bytes, js.Seed)
	} else {
		if p, err = cm5.WorkloadPattern(js.Workload, js.N, js.Bytes, js.Seed); err != nil {
			return cm5.Job{}, err
		}
	}
	return cm5.PatternJob(a, p, opts...), nil
}

// storeSpec is the full content-address specification of a job result:
// every JobSpec field (zero values included, so the canonical JSON is
// stable), the result-document schema, plus exp.StoreBase's sweep-wide
// fields — the network config and experiment-code version — so serve
// records invalidate on exactly the same events as cmexp cell records.
func (js JobSpec) storeSpec(cfg network.Config) store.Spec {
	s := exp.StoreBase(cfg)
	s["kind"] = "serve-job"
	s["schema"] = ResultSchema
	s["algorithm"] = js.Algorithm
	s["n"] = js.N
	s["bytes"] = js.Bytes
	s["workload"] = js.Workload
	// Exact float literal via canonical JSON round-trip is fine, but a
	// string keeps the hash readable and immune to formatting drift.
	s["density"] = fmt.Sprintf("%g", js.Density)
	s["topology"] = js.Topology
	s["fault_profile"] = js.FaultProfile
	s["fault_plan_version"] = network.FaultPlanVersion
	s["trace"] = js.Trace
	s["trace_size"] = js.TraceSize
	s["trace_version"] = trace.TraceVersion
	// Seeds are 64-bit: decimal string, like exp.Runner's cell specs.
	s["seed"] = fmt.Sprintf("%d", js.Seed)
	s["root"] = js.Root
	s["offset"] = js.Offset
	s["async"] = js.Async
	return s
}

// Hash returns the content address of the spec's result under cfg.
func (js JobSpec) Hash(cfg network.Config) (string, error) {
	return store.HashSpec(js.storeSpec(cfg))
}

// JobResult is the response document of POST /v1/jobs: the canonical
// spec echoed back, the content hash, and the full cm5.Result metrics.
// Field order is fixed and maps marshal key-sorted, so the encoding is
// deterministic — a store replay is byte-identical to the simulation
// that produced it.
type JobResult struct {
	Schema string  `json:"schema"`
	Spec   JobSpec `json:"spec"`
	Hash   string  `json:"hash"`
	Result Metrics `json:"result"`
}

// Metrics is the wire form of cm5.Result.
type Metrics struct {
	Algorithm string `json:"algorithm"`
	Kind      string `json:"kind"`
	ElapsedNS int64  `json:"elapsed_ns"`
	// ElapsedMS is Elapsed rendered exactly as cmexp's tables render
	// it ("%.3f" milliseconds), so responses cross-check against
	// cmexp output byte for byte.
	ElapsedMS        string          `json:"elapsed_ms"`
	Steps            int             `json:"steps"`
	Messages         int             `json:"messages"`
	TotalBytes       int64           `json:"total_bytes"`
	MaxFanIn         int             `json:"max_fan_in"`
	StepTimesNS      []int64         `json:"step_times_ns,omitempty"`
	LevelUtilization map[int]float64 `json:"level_utilization,omitempty"`
	Flows            int             `json:"flows"`
	WireBytes        int64           `json:"wire_bytes"`
	// Faults reports what the spec's fault profile did to the run;
	// omitted for healthy runs (the zero value marshals away).
	Faults *network.FaultStats `json:"faults,omitempty"`
}

// encodeResult renders the canonical payload bytes for one completed
// job: compact JSON plus a trailing newline. These exact bytes are
// stored as the record's payload and served on every subsequent hit.
func encodeResult(js JobSpec, hash string, res cm5.Result) ([]byte, error) {
	m := Metrics{
		Algorithm:  res.Algorithm.Name(),
		Kind:       string(res.Algorithm.Kind()),
		ElapsedNS:  int64(res.Elapsed),
		ElapsedMS:  fmt.Sprintf("%.3f", res.Elapsed.Millis()),
		Steps:      res.Steps,
		Messages:   res.Messages,
		TotalBytes: res.TotalBytes,
		MaxFanIn:   res.MaxFanIn,
		Flows:      res.Flows,
		WireBytes:  res.WireBytes,
	}
	if len(res.StepTimes) > 0 {
		m.StepTimesNS = make([]int64, len(res.StepTimes))
		for i, t := range res.StepTimes {
			m.StepTimesNS[i] = int64(t)
		}
	}
	if len(res.LevelUtilization) > 0 {
		m.LevelUtilization = res.LevelUtilization
	}
	if res.Faults != (cm5.FaultStats{}) {
		f := res.Faults
		m.Faults = &f
	}
	data, err := json.Marshal(JobResult{Schema: ResultSchema, Spec: js, Hash: hash, Result: m})
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// RunOne validates and runs one job spec outside any server — the
// cmserve -oneshot path — returning the identical payload bytes a
// served request yields, minus the HTTP around them.
func RunOne(js JobSpec, cfg network.Config) ([]byte, error) {
	if err := js.Validate(); err != nil {
		return nil, err
	}
	hash, err := js.Hash(cfg)
	if err != nil {
		return nil, err
	}
	job, err := js.job(cfg, trace.NewLibrary(nil))
	if err != nil {
		return nil, err
	}
	res, err := cm5.Run(job)
	if err != nil {
		return nil, err
	}
	return encodeResult(js, hash, res)
}

func knownAlgorithms() string {
	var names []string
	for _, a := range cm5.Algorithms() {
		names = append(names, a.Name())
	}
	return strings.Join(names, " ")
}
