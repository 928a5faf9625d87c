package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// nproc bounds the goroutines and connections that drive load, and the
// simulation workers of the sweep runner and the daemon.
var nproc = runtime.NumCPU()

// config is one run of one workload.
type config struct {
	seed    int64
	seconds float64
	// short shrinks every input list to test scale.
	short bool
	trace bool
	// workDir holds the workloads' scratch stores; a traced run writes
	// bench-trace-<workload>.json into traceDir.
	workDir, traceDir string
}

// metric is one reported number; n is its sample count (0: not a
// sample statistic).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// segment is what one measurement of a workload recorded.
type segment struct {
	latMS []float64 // per-operation host latency, ms
	// p50s holds the median latency of each group of operations (a job's
	// runs, a pass, a time window), and rates the operations per second
	// of each pass (or window) of the throughput phase, ops their total.
	// op_ms_p50 and ops_per_s are the medians of these, which a
	// neighbour's burst of load in one pass cannot move.
	p50s, rates       []float64
	ops               int
	attempted, failed int
	// checked counts the outputs compared with a pin or a reference.
	checked  int
	problems []string
	// counts is filled by traced measurements only.
	counts layerCounts
	// extra are workload-specific numbers that are printed (and kept in
	// the trace file) but are not benchmark metrics.
	extra []metric
}

// fail counts one failed operation and keeps the first few reasons.
func (s *segment) fail(format string, args ...any) { s.failN(1, format, args...) }

// failN counts n failed operations with one reason.
func (s *segment) failN(n int, format string, args ...any) {
	s.failed += n
	if len(s.problems) < 10 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// instance is a workload after set-up.
type instance interface {
	// measure runs the workload's passes until seconds have elapsed (the
	// pass in flight completes) and checks every output. tr is nil for
	// an untraced measurement.
	measure(tr *tracer, seconds float64) *segment
	close()
}

// workload names one traffic mix and how to set it up.
type workload struct {
	name  string
	setup func(cfg *config) (instance, error)
}

var workloads = []workload{
	{name: "exchange-ladder", setup: setupLadder},
	{name: "irregular-mix", setup: setupMix},
	{name: "sweep-store", setup: setupSweep},
	{name: "serve-open-loop", setup: setupServe},
}

// tailPct is the percentile op_ms_tail reports: in every workload it
// falls among the slow operations (the N=256 BEX jobs, the re-simulated
// cells, the requests that simulated or waited for one) while keeping
// enough samples beyond it to be steady.
const tailPct = 90

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run sets its workload up at least minSetups times and for at least
// a twentieth of its measuring time, at most maxSetups times; setup_s is
// the median.
const (
	minSetups = 3
	maxSetups = 50
)

// report is the outcome of one run of one workload.
type report struct {
	attempted, failed, checked int
	problems                   []string
	metrics                    []metric // the benchmark metrics of this run
	extra                      []metric
}

func (r *report) correct() bool { return r.failed == 0 }

// runWorkload sets w up, measures it and assembles the metrics: the
// end-to-end metrics for an untraced run, the per-layer metrics for a
// traced one. A traced run first measures half its time untraced, so
// bench.trace_overhead compares the two halves of one process.
func runWorkload(w workload, cfg *config) (*report, error) {
	var (
		inst   instance
		setups []float64
	)
	budget := time.Duration(cfg.seconds / 20 * float64(time.Second))
	for began := time.Now(); len(setups) < minSetups ||
		len(setups) < maxSetups && time.Since(began) < budget; {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	rep := &report{}
	add := func(seg *segment) {
		rep.attempted += seg.attempted
		rep.failed += seg.failed
		rep.checked += seg.checked
		rep.problems = append(rep.problems, seg.problems...)
		rep.extra = append([]metric{{name: "pins_checked", value: float64(rep.checked), unit: "count"}}, seg.extra...)
	}
	if !cfg.trace {
		seg := inst.measure(nil, cfg.seconds)
		add(seg)
		rep.metrics = []metric{
			{name: "setup_s", value: percentile(setups, 50), unit: "s", n: len(setups)},
			{name: "op_ms_p50", value: percentile(seg.p50s, 50), unit: "ms", n: len(seg.latMS)},
			{name: "op_ms_tail", value: percentile(seg.latMS, tailPct), unit: "ms", n: len(seg.latMS)},
			{name: "ops_per_s", value: percentile(seg.rates, 50), unit: "1/s", n: seg.ops},
			{name: "peak_rss_mb", value: peakRSSMB(), unit: "MB"},
		}
		return rep, nil
	}

	base := inst.measure(nil, cfg.seconds/2)
	add(base)
	tr := newTracer()
	seg := inst.measure(tr, cfg.seconds/2)
	add(seg)
	probe, err := probes(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("solver probe: %w", err)
	}
	rep.metrics = append(layerMetrics(tr, seg.counts, probe), metric{
		name: "bench.trace_overhead", unit: "ratio", n: len(seg.latMS),
		value: percentile(seg.p50s, 50) / percentile(base.p50s, 50),
	})
	self, rootS := tr.selfTimes()
	doc := map[string]any{
		"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds,
		"root_s": rootS, "self_s": self,
		"metrics": metricsJSON(rep.metrics), "extra": metricsJSON(rep.extra),
	}
	if err := tr.writeFile(filepath.Join(cfg.traceDir, "bench-trace-"+w.name+".json"), doc); err != nil {
		return nil, err
	}
	return rep, nil
}

// probeFlows are the flow counts of the solver probe.
var probeFlows = []int{256, 1024}

var (
	probeOnce sync.Once
	probeUS   []float64
	probeErr  error
)

// probes runs the solver probe once per process, returning host µs per
// flow start for each of probeFlows; a traced run reports it whatever its
// workload.
func probes(seed int64) ([]float64, error) {
	probeOnce.Do(func() {
		for _, f := range probeFlows {
			us, err := solverProbe(f, seed)
			if err != nil {
				probeErr = err
				return
			}
			probeUS = append(probeUS, us)
		}
	})
	return probeUS, probeErr
}

// percentile interpolates linearly between the closest ranks; NaN for
// no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or
// the memory the Go runtime obtained from the OS where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func metricsJSON(ms []metric) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		out[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out
}
