package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/serve"
)

// serve-open-loop's traffic: phase A is an open loop of Poisson
// arrivals; each arrival is a request for a stored spec (hit), a fresh
// spec (miss) or a burst of identical requests for one fresh spec.
const (
	serveRate  = 500.0
	hitShare   = 0.90
	missShare  = 0.08
	burstSize  = 8
	serveWarm  = 64
	serveShort = 16 // warm specs at test scale
)

// request is one POST /v1/jobs of the generated stream.
type request struct {
	due  time.Duration // from the start of phase A
	spec serve.JobSpec
	body []byte // the spec's JSON
	hash string // the spec's content hash
}

// serveInstance is serve-open-loop after set-up: the daemon over a disk
// store on real loopback HTTP, with the warm specs stored.
type serveInstance struct {
	seed   int64
	n      int // machine size of every spec
	dir    string
	st     *timedStore
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	warm   []request
	// segments counts measurements, so each one's stream (and its fresh
	// specs) differs from the one before.
	segments int
	// bodies keeps one copy of each distinct response body, by sha256;
	// verdicts memoizes the check of each (spec JSON, body sha256) pair
	// and expect serve.RunOne's body for each spec JSON.
	bodies   sync.Map
	verdicts map[string]error
	expect   map[string][]byte

	tracer     atomic.Pointer[tracer]
	inflight   sync.Map // spec hash -> span of the handler serving it
	gets, puts atomic.Int64
}

func setupServe(cfg *config) (instance, error) {
	in := &serveInstance{seed: cfg.seed, n: 32, verdicts: map[string]error{}, expect: map[string][]byte{}}
	warm := serveWarm
	if cfg.short {
		in.n, warm = 16, serveShort
	}
	var err error
	if in.dir, err = os.MkdirTemp(cfg.workDir, "serve-"); err != nil {
		return nil, err
	}
	if in.st, err = openTimedStore(in.dir); err != nil {
		os.RemoveAll(in.dir)
		return nil, err
	}
	in.srv = serve.New(network.DefaultConfig(), in.st, serve.WithWorkers(nproc))
	in.ts = httptest.NewServer(in.traced(in.srv.Handler()))
	in.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	in.warm = in.warmSpecs(warm)
	for i := range in.warm {
		if o := in.post(&in.warm[i], nil); o.err != "" || o.code != http.StatusOK {
			in.close()
			return nil, fmt.Errorf("warming spec %s: status %d, %s", in.warm[i].body, o.code, o.err)
		}
	}
	in.st.setHook(in.storeOp)
	return in, nil
}

func (in *serveInstance) close() {
	in.client.CloseIdleConnections()
	in.ts.Close()
	os.RemoveAll(in.dir)
}

func (in *serveInstance) newRequest(js serve.JobSpec, due time.Duration) request {
	body, err := json.Marshal(js)
	if err != nil {
		panic(err) // a JobSpec always marshals
	}
	hash, err := js.Hash(network.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return request{due: due, spec: js, body: body, hash: hash}
}

// warmSpecs draws the specs set-up stores: exchanges and irregular
// schedulers over synthetic patterns of 10% or 50% density.
func (in *serveInstance) warmSpecs(count int) []request {
	rng := rand.New(rand.NewSource(in.seed))
	algs := []string{"PEX", "BEX", "LEX", "LS", "PS", "BS", "GS", "AS"}
	reqs := make([]request, count)
	for i := range reqs {
		a := rng.Intn(len(algs))
		js := serve.JobSpec{Algorithm: algs[a], N: in.n, Bytes: 256 << rng.Intn(3), Seed: rng.Int63n(1 << 30)}
		if a >= 3 {
			js.Workload, js.Density = serve.SyntheticWorkload, []float64{0.1, 0.5}[rng.Intn(2)]
		}
		reqs[i] = in.newRequest(js, 0)
	}
	return reqs
}

// stream draws phase A's arrivals for dur. Fresh specs are synthetic
// patterns of 25% density, so they never match a warm spec.
func (in *serveInstance) stream(rng *rand.Rand, dur time.Duration) []request {
	var reqs []request
	fresh := func() serve.JobSpec {
		return serve.JobSpec{Algorithm: irregularAlgs[rng.Intn(len(irregularAlgs))], N: in.n, Bytes: 256,
			Workload: serve.SyntheticWorkload, Density: 0.25, Seed: rng.Int63()}
	}
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / serveRate * 1e9)
		if t >= dur {
			return reqs
		}
		switch u := rng.Float64(); {
		case u < hitShare:
			r := in.warm[rng.Intn(len(in.warm))]
			r.due = t
			reqs = append(reqs, r)
		case u < hitShare+missShare:
			reqs = append(reqs, in.newRequest(fresh(), t))
		default:
			r := in.newRequest(fresh(), t)
			for i := 0; i < burstSize; i++ {
				reqs = append(reqs, r)
			}
		}
	}
}

// outcome is what the client saw of one request; identical outcomes
// are tallied, not kept one by one.
type outcome struct {
	req   *request
	code  int
	cache string // the X-Cache header: hit, miss or coalesced
	sum   [32]byte
	err   string
}

// post sends one request. In a traced measurement its client span is
// named in a header, so the daemon-side handler span can take it as
// its parent.
func (in *serveInstance) post(r *request, tr *tracer) outcome {
	o := outcome{req: r}
	req, err := http.NewRequest(http.MethodPost, in.ts.URL+"/v1/jobs", bytes.NewReader(r.body))
	if err != nil {
		o.err = err.Error()
		return o
	}
	op, start := tr.id(), time.Now()
	if tr != nil {
		req.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
		req.Header.Set("X-Bench-Hash", r.hash)
	}
	resp, err := in.client.Do(req)
	if err != nil {
		o.err = err.Error()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.record(op, 0, "http.request", start, time.Now())
	if err != nil {
		o.err = err.Error()
	}
	o.code, o.cache, o.sum = resp.StatusCode, resp.Header.Get("X-Cache"), sha256.Sum256(body)
	if _, seen := in.bodies.Load(o.sum); !seen {
		in.bodies.Store(o.sum, body)
	}
	return o
}

// traced wraps the daemon's handler: in a traced measurement, a request
// carrying a client span gets a handler span under it, named sim.miss
// when it simulated (its self time is the simulation) and serve.handler
// otherwise.
func (in *serveInstance) traced(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := in.tracer.Load()
		op, err := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
		if tr == nil || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		id, start := tr.id(), time.Now()
		in.inflight.Store(r.Header.Get("X-Bench-Hash"), id)
		h.ServeHTTP(w, r)
		name := "serve.handler"
		if w.Header().Get("X-Cache") == "miss" {
			name = "sim.miss"
		}
		tr.record(id, op, name, start, time.Now())
	})
}

// storeOp counts the daemon's store reads and writes and, traced, files
// each as a span under the handler serving its hash. Index flushes have
// no hash; their time stays in the handler's self time.
func (in *serveInstance) storeOp(op, hash string, start, end time.Time) {
	switch op {
	case "get":
		in.gets.Add(1)
	case "put":
		in.puts.Add(1)
	}
	tr := in.tracer.Load()
	if tr == nil || hash == "" {
		return
	}
	var parent int64
	if v, ok := in.inflight.Load(hash); ok {
		parent = v.(int64)
	}
	tr.record(tr.id(), parent, "store."+op, start, end)
}

// openLoop sends reqs at their due times from nproc goroutines. A
// request a sender picks up late, because the sender was still busy with
// an earlier one, is timed from its due time, so a stall is charged to
// every request queued behind it. A request picked up early is timed
// from when it was sent: the time.Sleep before it overshoots by up to a
// millisecond on Linux, which is the generator's error, not the daemon's.
// lateMS reports how late each request was sent.
func (in *serveInstance) openLoop(reqs []request, tr *tracer) (outs []outcome, latMS, lateMS []float64) {
	outs, latMS, lateMS = make([]outcome, len(reqs)), make([]float64, len(reqs)), make([]float64, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				due := start.Add(reqs[i].due)
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
				}
				lateMS[i] = float64(time.Since(due).Nanoseconds()) / 1e6
				outs[i] = in.post(&reqs[i], tr)
				latMS[i] = float64(time.Since(from).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	return outs, latMS, lateMS
}

// closedLoop has nproc clients request warm specs back to back for dur.
// It returns the tallied outcomes and the request rate in each window of
// about half a second.
func (in *serveInstance) closedLoop(rng *rand.Rand, dur time.Duration) (tally map[outcome]int, rates []float64) {
	windows := max(int(dur/(500*time.Millisecond)), 1)
	window := dur / time.Duration(windows)
	counts := make([][]int, nproc)
	tallies := make([]map[outcome]int, nproc)
	seeds := make([]int64, nproc)
	for w := range seeds {
		seeds[w] = rng.Int63()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc; w++ {
		counts[w], tallies[w] = make([]int, windows), map[outcome]int{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seeds[w]))
			for {
				o := in.post(&in.warm[r.Intn(len(in.warm))], nil)
				k := int(time.Since(start) / window)
				if k >= windows {
					return
				}
				counts[w][k]++
				tallies[w][o]++
			}
		}()
	}
	wg.Wait()
	tally = map[outcome]int{}
	for w := range tallies {
		for o, n := range tallies[w] {
			tally[o] += n
		}
	}
	for k := 0; k < windows; k++ {
		n := 0
		for w := range counts {
			n += counts[w][k]
		}
		rates = append(rates, float64(n)/window.Seconds())
	}
	return tally, rates
}

// serverCounts reads the daemon's request-outcome and simulator counters.
func (in *serveInstance) serverCounts() (misses, hits, coalesced, rejected int64, sim simCounts) {
	reg := in.srv.Registry()
	return reg.Counter("serve_misses_total").Value(), reg.Counter("serve_hits_total").Value(),
		reg.Counter("serve_coalesced_total").Value(), reg.Counter("serve_rejected_total").Value(), readSim(reg)
}

// measure runs phase A (the open loop, two thirds of the time; its
// latencies are the operation latencies, its windows of about a second
// the windows of op_ms_p50) and phase B (the closed loop of
// hits; its throughput is ops_per_s). A traced measurement traces phase
// A only, and the per-layer counts cover phase A.
func (in *serveInstance) measure(tr *tracer, seconds float64) *segment {
	seg := &segment{}
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(in.segments)))
	in.segments++
	total := time.Duration(seconds * 1e9)
	reqs := in.stream(rng, total*2/3)

	in.tracer.Store(tr)
	m0, h0, c0, r0, s0 := in.serverCounts()
	in.gets.Store(0)
	in.puts.Store(0)
	outsA, latMS, lateMS := in.openLoop(reqs, tr)
	m1, h1, c1, r1, s1 := in.serverCounts()
	in.tracer.Store(nil)
	seg.counts = layerCounts{first: s1.sub(s0), all: s1.sub(s0), gets: in.gets.Load(), puts: in.puts.Load(),
		misses: m1 - m0, hits: h1 - h0, coalesced: c1 - c0, rejected: r1 - r0}
	tally, rates := in.closedLoop(rng, total/3)

	seg.latMS, seg.rates = latMS, rates
	windows := max(int(total*2/3/time.Second), 1)
	byWindow := make([][]float64, windows)
	for i, r := range reqs {
		k := min(int(r.due*time.Duration(windows)/(total*2/3)), windows-1)
		byWindow[k] = append(byWindow[k], latMS[i])
	}
	for _, w := range byWindow {
		if len(w) > 0 {
			seg.p50s = append(seg.p50s, percentile(w, 50))
		}
	}
	for _, n := range tally {
		seg.ops += n
	}
	byCache := map[string][]float64{}
	for i, o := range outsA {
		byCache[o.cache] = append(byCache[o.cache], latMS[i])
		tally[o]++
	}
	in.check(seg, tally)
	seg.extra = []metric{
		{name: "serve.hit_ms_p50", value: percentile(byCache["hit"], 50), unit: "ms", n: len(byCache["hit"])},
		{name: "serve.miss_ms_p50", value: percentile(byCache["miss"], 50), unit: "ms", n: len(byCache["miss"])},
		{name: "serve.gen_late_ms_max", value: percentile(lateMS, 100), unit: "ms", n: len(lateMS)},
	}
	return seg
}

// check compares every body with serve.RunOne's for its spec, computed
// here, after the timed phases.
func (in *serveInstance) check(seg *segment, tally map[outcome]int) {
	for o, n := range tally {
		seg.attempted += n
		if o.err != "" || o.code != http.StatusOK {
			seg.failN(n, "%s: status %d, %s", o.req.body, o.code, o.err)
			continue
		}
		pair := fmt.Sprintf("%s %x", o.req.body, o.sum)
		err, done := in.verdicts[pair]
		if !done {
			err = in.checkBody(o)
			in.verdicts[pair] = err
		}
		if err != nil {
			seg.failN(n, "%s: %v", o.req.body, err)
			continue
		}
		seg.checked += n
	}
}
func (in *serveInstance) checkBody(o outcome) error {
	want, ok := in.expect[string(o.req.body)]
	if !ok {
		var err error
		if want, err = serve.RunOne(o.req.spec, network.DefaultConfig()); err != nil {
			return fmt.Errorf("serve.RunOne: %w", err)
		}
		in.expect[string(o.req.body)] = want
	}
	got, _ := in.bodies.Load(o.sum)
	if !sameResult(got.([]byte), want) {
		return fmt.Errorf("body %s differs from serve.RunOne's %s", got, want)
	}
	return nil
}

// sameResult reports whether two job bodies agree byte for byte, except
// for level_utilization, which must agree to within 1e-9 relative:
// DataNet sums carried bytes in map order, so identical runs can differ
// in its last bits.
func sameResult(got, want []byte) bool {
	var g, w serve.JobResult
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil ||
		len(g.Result.LevelUtilization) != len(w.Result.LevelUtilization) {
		return false
	}
	for level, u := range w.Result.LevelUtilization {
		if gu, ok := g.Result.LevelUtilization[level]; !ok || math.Abs(gu-u) > 1e-9*math.Abs(u) {
			return false
		}
	}
	g.Result.LevelUtilization, w.Result.LevelUtilization = nil, nil
	gb, gerr := json.Marshal(g)
	wb, werr := json.Marshal(w)
	return gerr == nil && werr == nil && bytes.Equal(gb, wb)
}
