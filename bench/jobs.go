package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/cm5"
	"repro/internal/obs"
)

// job is one cm5.Run of exchange-ladder or irregular-mix.
type job struct {
	key string
	job cm5.Job
	// pattern is the traffic the job must move: the result's Messages
	// and TotalBytes are checked against it.
	pattern cm5.Pattern
	// planned: cm5.Plan builds the job's schedule (every algorithm here
	// but the adaptive AS, which re-plans while it runs).
	planned bool
}

var irregularAlgs = []string{"LS", "PS", "BS", "GS", "AS"}

// setupLadder builds exchange-ladder: lone PEX and BEX complete
// exchanges of 256 B per pair on the default fat tree at three machine
// sizes, after one untimed warm-up job.
func setupLadder(cfg *config) (instance, error) {
	sizes, warm := []int{64, 128, 256}, 64
	if cfg.short {
		sizes, warm = []int{16, 32, 64}, 16
	}
	var jobs []job
	for _, n := range sizes {
		all := cm5.NewPattern(n)
		for i := range all {
			for j := range all[i] {
				if i != j {
					all[i][j] = 256
				}
			}
		}
		for _, a := range []string{"PEX", "BEX"} {
			jobs = append(jobs, job{key: fmt.Sprintf("%s/N%d/256B", a, n),
				job: cm5.NewJob(cm5.MustAlgorithm(a), n, 256), pattern: all, planned: true})
		}
	}
	if _, err := cm5.Run(cm5.NewJob(cm5.MustAlgorithm("PEX"), warm, 256)); err != nil {
		return nil, err
	}
	return newJobsInstance(cfg, jobs), nil
}

// setupMix builds irregular-mix from the seed: the five irregular
// schedulers over synthetic patterns (10% density at two machine sizes,
// 50% at the smaller), stencil3d and hotspot at two machine sizes on the
// fat tree, over recorded cg
// and euler traces at their recorded processor counts, and over a
// butterfly on the hypercube under the link-down and crosstraffic fault
// profiles.
func setupMix(cfg *config) (instance, error) {
	sizes, traceP, faultN := []int{64, 256}, []int{16, 32}, 64
	if cfg.short {
		sizes, traceP, faultN = []int{16, 32}, []int{8}, 16
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var jobs []job
	add := func(key string, p cm5.Pattern, opts ...cm5.JobOption) {
		for _, a := range irregularAlgs {
			jobs = append(jobs, job{key: a + "/" + key, pattern: p, planned: a != "AS",
				job: cm5.PatternJob(cm5.MustAlgorithm(a), p, opts...)})
		}
	}
	for i, n := range sizes {
		densities := []float64{0.1}
		if i == 0 {
			// A 50% pattern at the larger size would take three quarters
			// of a pass: few flows in flight is the point of this mix.
			densities = append(densities, 0.5)
		}
		for _, d := range densities {
			s := rng.Int63n(1 << 30)
			add(fmt.Sprintf("synthetic%g-s%d/N%d", d, s, n), cm5.SyntheticPattern(n, d, 256, s))
		}
		for _, w := range []string{"stencil3d", "hotspot"} {
			p, err := cm5.WorkloadPattern(w, n, 1024, 0)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("%s/N%d", w, n), p)
		}
	}
	for _, app := range []string{"cg", "euler"} {
		for _, np := range traceP {
			s := rng.Int63n(1 << 30)
			tr, err := cm5.RecordTrace(app, 0, np, s, cm5.DefaultConfig())
			if err != nil {
				return nil, err
			}
			p, err := tr.Pattern()
			if err != nil {
				return nil, err
			}
			for _, a := range irregularAlgs {
				jobs = append(jobs, job{key: fmt.Sprintf("%s/%s-P%d-s%d", a, app, np, s), pattern: p,
					planned: a != "AS", job: cm5.NewJob(cm5.MustAlgorithm(a), 0, 0, cm5.WithTraceWorkload(tr))})
			}
		}
	}
	hc, err := cm5.NewTopology("hypercube", faultN)
	if err != nil {
		return nil, err
	}
	bf, err := cm5.WorkloadPattern("butterfly", faultN, 1024, 0)
	if err != nil {
		return nil, err
	}
	for _, prof := range []string{"link-down", "crosstraffic"} {
		s := rng.Int63n(1 << 30)
		plan, err := cm5.NewFaultPlan(prof, hc, s)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("butterfly/hypercube/%s-s%d/N%d", prof, s, faultN), bf,
			cm5.WithTopology(hc), cm5.WithFaults(plan))
	}
	return newJobsInstance(cfg, jobs), nil
}

// jobsInstance runs a job list in passes, each in a seeded order, one
// job at a time (a closed loop with one client).
type jobsInstance struct {
	seed int64
	jobs []job
	pins map[string]jobPin
	// seen holds each job's first result in this process: every later
	// run of the job must reproduce it.
	seen map[string]jobPin
}

func newJobsInstance(cfg *config, jobs []job) *jobsInstance {
	return &jobsInstance{seed: cfg.seed, jobs: jobs, pins: pinsFor(cfg.short).Jobs, seen: map[string]jobPin{}}
}

func (in *jobsInstance) close() {}

// measure reports, as the group medians behind op_ms_p50, each job's
// median time over the passes: a job's runs repeat the same work, so
// their median sets aside a pass that a garbage collection or a
// neighbour's load slowed.
func (in *jobsInstance) measure(tr *tracer, seconds float64) *segment {
	seg := &segment{}
	byJob := make([][]float64, len(in.jobs))
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		p0 := time.Now()
		var reg *obs.Registry
		if tr != nil {
			reg = obs.NewRegistry()
		}
		rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(pass)))
		for _, i := range rng.Perm(len(in.jobs)) {
			if in.run(in.jobs[i], tr, reg, seg) {
				seg.checked++
			}
			byJob[i] = append(byJob[i], seg.latMS[len(seg.latMS)-1])
		}
		if reg != nil {
			c := readSim(reg)
			if pass == 0 {
				seg.counts.first = c
			}
			seg.counts.all = seg.counts.all.add(c)
		}
		seg.rates = append(seg.rates, float64(len(in.jobs))/time.Since(p0).Seconds())
	}
	for _, lat := range byJob {
		seg.p50s = append(seg.p50s, percentile(lat, 50))
	}
	seg.ops = len(seg.latMS)
	return seg
}

// run runs and checks one job, timing cm5.Run alone; it reports whether
// the result was checked against a pin. In a traced measurement it also
// times cm5.Plan on its own first.
func (in *jobsInstance) run(j job, tr *tracer, reg *obs.Registry, seg *segment) (pinned bool) {
	op := tr.id()
	t0 := time.Now()
	var err error
	if tr != nil && j.planned {
		id, p0 := tr.id(), time.Now()
		_, err = cm5.Plan(j.job)
		tr.record(id, op, "sched.plan", p0, time.Now())
	}
	run := j.job
	if reg != nil {
		run = run.With(cm5.WithMetrics(reg))
	}
	id, r0 := tr.id(), time.Now()
	res, runErr := cm5.Run(run)
	r1 := time.Now()
	tr.record(id, op, "sim.run", r0, r1)
	seg.latMS = append(seg.latMS, float64(r1.Sub(r0).Nanoseconds())/1e6)
	seg.attempted++
	if err == nil {
		err = runErr
	}
	if err == nil {
		pinned, err = in.check(j, res)
	}
	if err != nil {
		seg.fail("%s: %v", j.key, err)
	}
	tr.record(op, 0, "bench.op", t0, time.Now())
	return pinned
}

// check compares a result with the traffic the job must move, with the
// job's pin and with the job's earlier results in this process.
func (in *jobsInstance) check(j job, res cm5.Result) (pinned bool, err error) {
	got := pinOf(res)
	if res.Messages != j.pattern.Messages() || res.TotalBytes != j.pattern.TotalBytes() {
		return false, fmt.Errorf("moved %d messages, %d bytes; the pattern has %d, %d",
			res.Messages, res.TotalBytes, j.pattern.Messages(), j.pattern.TotalBytes())
	}
	if res.Elapsed <= 0 || res.Flows < res.Messages {
		return false, fmt.Errorf("implausible result %+v", got)
	}
	if prev, ok := in.seen[j.key]; ok && prev != got {
		return false, fmt.Errorf("result %+v differs from this process's earlier %+v", got, prev)
	}
	in.seen[j.key] = got
	want, ok := in.pins[j.key]
	if ok && want != got {
		return true, fmt.Errorf("result %+v differs from pin %+v", got, want)
	}
	return ok, nil
}
