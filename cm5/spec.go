package cm5

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/topo"
)

// SyntheticWorkload is the workload name a Spec accepts beyond the
// scenario catalogue (Workloads): a random pattern of the given density
// (SyntheticPattern), the shape behind the paper's Table 11.
const SyntheticWorkload = "synthetic"

// Spec is the plain-data description of one job: everything that
// influences the simulated result, in the JSON form the cmserve daemon
// accepts and cmtrace -spec reads. The zero value of every optional
// field is its canonical default, so two descriptions of the same run
// are always equal. Decode one with DecodeSpec, check it with
// Validate, and lower it onto a runnable Job with Job.
type Spec struct {
	// Algorithm is a registry name (see Algorithms).
	Algorithm string `json:"algorithm"`
	// N is the machine size, a power of two in [2, 16384].
	N int `json:"n"`
	// Bytes is the per-message size (exchanges: per pair; broadcasts:
	// total; collectives: per block; workloads: per matrix entry).
	Bytes int `json:"bytes,omitempty"`
	// Workload names a catalogue pattern (Workloads) or "synthetic";
	// required for irregular schedulers unless Trace is set, rejected
	// otherwise.
	Workload string `json:"workload,omitempty"`
	// Density is the synthetic workload's fill fraction in (0, 1];
	// only valid with workload "synthetic".
	Density float64 `json:"density,omitempty"`
	// Trace names a recordable application (Traces) whose recorded
	// communication becomes the job's pattern — the alternative to
	// Workload for irregular schedulers. The trace is resolved
	// deterministically from (trace, trace_size, n, seed, config).
	Trace string `json:"trace,omitempty"`
	// TraceSize is the traced application's problem size; 0 means the
	// app's default. Only valid with Trace.
	TraceSize int `json:"trace_size,omitempty"`
	// Topology names the interconnect (Topologies); empty means the
	// calibrated CM-5 fat tree.
	Topology string `json:"topology,omitempty"`
	// Seed feeds the workload generator, stochastic planners, fault
	// plans and trace recordings.
	Seed int64 `json:"seed,omitempty"`
	// FaultProfile names a fault profile (FaultProfiles) to inject into
	// the run, built deterministically from the run's topology and
	// Seed; empty means a healthy machine ("healthy" is a valid,
	// equivalent value).
	FaultProfile string `json:"fault_profile,omitempty"`
	// Root is the broadcast root; Offset the SHIFT distance.
	Root   int  `json:"root,omitempty"`
	Offset int  `json:"offset,omitempty"`
	Async  bool `json:"async,omitempty"`
}

// DecodeSpec reads exactly one JSON spec from r. Unknown fields and
// anything but whitespace after the object are errors, so a typo or a
// second spec is rejected rather than silently ignored.
func DecodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return Spec{}, errors.New("trailing data after the spec")
	}
	return s, nil
}

// Validate resolves the spec against the registries and reports the
// first problem; the error text carries each registry's known-names
// listing.
func (s Spec) Validate() error {
	if s.Algorithm == "" {
		return fmt.Errorf("missing algorithm (known: %s)", strings.Join(sched.Names(), " "))
	}
	a, err := LookupAlgorithm(s.Algorithm)
	if err != nil {
		return err
	}
	if s.N < 2 || s.N > topo.MaxNodes || s.N&(s.N-1) != 0 {
		return fmt.Errorf("n %d must be a power of two in [2, %d]", s.N, topo.MaxNodes)
	}
	if s.Bytes < 0 {
		return fmt.Errorf("bytes %d must be >= 0", s.Bytes)
	}
	switch {
	case s.Trace != "":
		if a.Kind() != KindIrregular {
			return fmt.Errorf("algorithm %s (%s) cannot replay a trace: traces schedule through the irregular schedulers",
				a.Name(), a.Kind())
		}
		if TraceDoc(s.Trace) == "" {
			return fmt.Errorf("unknown trace app %q (known: %s)",
				s.Trace, strings.Join(Traces(), " "))
		}
		if s.Workload != "" || s.Density != 0 {
			return fmt.Errorf("trace and workload are mutually exclusive")
		}
		if s.TraceSize < 0 {
			return fmt.Errorf("trace_size %d must be >= 0", s.TraceSize)
		}
		if s.Bytes != 0 {
			return fmt.Errorf("bytes is not valid with a trace: message sizes come from the recording")
		}
	case s.TraceSize != 0:
		return fmt.Errorf("trace_size is only valid with a trace")
	case a.Kind() == KindIrregular:
		switch {
		case s.Workload == "":
			return fmt.Errorf("algorithm %s schedules a pattern: set workload (known: %s %s) or trace (known: %s)",
				a.Name(), strings.Join(pattern.WorkloadNames(), " "), SyntheticWorkload,
				strings.Join(Traces(), " "))
		case s.Workload == SyntheticWorkload:
			if s.Density <= 0 || s.Density > 1 {
				return fmt.Errorf("synthetic workload density %g must be in (0, 1]", s.Density)
			}
		default:
			if _, ok := pattern.WorkloadByName(s.Workload); !ok {
				return fmt.Errorf("unknown workload %q (known: %s %s)",
					s.Workload, strings.Join(pattern.WorkloadNames(), " "), SyntheticWorkload)
			}
			if s.Density != 0 {
				return fmt.Errorf("density is only valid with workload %q", SyntheticWorkload)
			}
		}
	case s.Workload != "" || s.Density != 0:
		return fmt.Errorf("algorithm %s (%s) takes n and bytes, not a workload",
			a.Name(), a.Kind())
	}
	if s.Topology != "" && topo.Doc(s.Topology) == "" {
		return fmt.Errorf("unknown topology %q (known: %s)",
			s.Topology, strings.Join(Topologies(), " "))
	}
	if s.FaultProfile != "" && FaultProfileDoc(s.FaultProfile) == "" {
		return fmt.Errorf("unknown fault profile %q (known: %s)",
			s.FaultProfile, strings.Join(FaultProfiles(), " "))
	}
	return nil
}

// Job lowers a validated spec onto a runnable Job under cfg. A
// trace-driven spec resolves its recording through traces, which has
// RecordTrace's signature and contract; nil means RecordTrace itself.
// Pass a caching resolver to fetch a known recording instead of
// re-running the application.
func (s Spec) Job(cfg Config, traces func(app string, size, n int, seed int64, cfg Config) (*AppTrace, error)) (Job, error) {
	a, err := LookupAlgorithm(s.Algorithm)
	if err != nil {
		return Job{}, err
	}
	opts := []JobOption{
		WithConfig(cfg), WithSeed(s.Seed),
		WithRoot(s.Root), WithOffset(s.Offset),
		WithAsync(s.Async),
	}
	var tp Topology
	if s.Topology != "" {
		if tp, err = topo.New(s.Topology, s.N, cfg.TopologyRates()); err != nil {
			return Job{}, err
		}
		opts = append(opts, WithTopology(tp))
	}
	if s.FaultProfile != "" {
		if tp == nil {
			// The plan must be built against the same link graph the job
			// runs on — for topology-less jobs, the config's fat tree.
			if tp, err = cfg.FatTree(s.N); err != nil {
				return Job{}, err
			}
		}
		plan, err := NewFaultPlan(s.FaultProfile, tp, s.Seed)
		if err != nil {
			return Job{}, err
		}
		opts = append(opts, WithFaults(plan))
	}
	if a.Kind() != KindIrregular {
		return NewJob(a, s.N, s.Bytes, opts...), nil
	}
	if s.Trace != "" {
		if traces == nil {
			traces = RecordTrace
		}
		tr, err := traces(s.Trace, s.TraceSize, s.N, s.Seed, cfg)
		if err != nil {
			return Job{}, err
		}
		return NewJob(a, 0, 0, append(opts, WithTraceWorkload(tr))...), nil
	}
	var p Pattern
	if s.Workload == SyntheticWorkload {
		p = SyntheticPattern(s.N, s.Density, s.Bytes, s.Seed)
	} else if p, err = WorkloadPattern(s.Workload, s.N, s.Bytes, s.Seed); err != nil {
		return Job{}, err
	}
	return PatternJob(a, p, opts...), nil
}
