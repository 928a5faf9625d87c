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

	"repro/cm5"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/store"
	"repro/internal/trace"
)

// ResultSchema versions the job-result document; it participates in
// every job hash, so bumping it invalidates stored payloads at once.
const ResultSchema = "cmserve-result/v1"

// SyntheticWorkload is the extra workload name the job API accepts
// beyond the scenario catalogue; see cm5.SyntheticWorkload.
const SyntheticWorkload = cm5.SyntheticWorkload

// JobSpec is the wire form of one job request: a cm5.Spec, decoded,
// validated and lowered onto a job by cm5, plus the store hashing that
// needs exp and store. It is a defined type, not an alias, so Hash and
// storeSpec are its methods; it marshals exactly as cm5.Spec does.
type JobSpec cm5.Spec

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
	if err := cm5.Spec(js).Validate(); err != nil {
		return nil, err
	}
	hash, err := js.Hash(cfg)
	if err != nil {
		return nil, err
	}
	job, err := cm5.Spec(js).Job(cfg, nil)
	if err != nil {
		return nil, err
	}
	res, err := cm5.Run(job)
	if err != nil {
		return nil, err
	}
	return encodeResult(js, hash, res)
}
