package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/cm5"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
)

// errBusy is the admission queue's overflow signal, mapped to 429.
var errBusy = errors.New("server at capacity: admission queue full")

// Server is the simulation daemon: an HTTP/JSON front end over the
// typed algorithm registry and the content-addressed result store.
//
// Request lifecycle of POST /v1/jobs: hash the spec; on a store hit,
// serve the recorded payload verbatim (no lock, no queue — hits can
// never be rejected); on a miss, join the single-flight group, so one
// leader per unique spec simulates while every concurrent duplicate
// waits for its payload; the leader passes the bounded admission queue
// (429 beyond workers+queue), simulates, persists, responds. Every
// stage honors the request context, so deadlines cancel queue and
// coalescing waits.
type Server struct {
	cfg     network.Config
	store   store.Backend // nil: serve without a cache
	workers int
	queue   int
	timeout time.Duration

	// traces resolves trace-driven jobs' recordings: memoized per
	// process and, when a store is attached, persisted content-addressed
	// — so each (app, size, nprocs, seed) records at most once ever.
	traces *trace.Library

	flight  *flightGroup
	sem     chan struct{} // admission: one slot per simulating worker
	pending atomic.Int64  // admitted + waiting leaders

	// simulate is cm5.Run, replaceable by tests to count and gate
	// simulations deterministically.
	simulate func(cm5.Job) (cm5.Result, error)

	start time.Time

	// reg is the server's metrics registry: the serve counters below,
	// the store's hit/miss/latency series, per-route request counters
	// and latency histograms, and the sim-level counters of every job
	// and sweep the server runs. GET /v1/metrics renders it; /v1/stats
	// reads the same counters, so the two views can never drift.
	reg   *obs.Registry
	stats serveStats
}

// serveStats are the daemon's request-outcome counters, held as obs
// handles so /v1/stats and /v1/metrics read identical values.
type serveStats struct {
	served, hits, misses, coalesced *obs.Counter
	rejected, failed, sweeps        *obs.Counter
}

// Option configures a Server.
type Option func(*Server)

// WithWorkers bounds how many simulations run concurrently (default:
// GOMAXPROCS).
func WithWorkers(n int) Option { return func(s *Server) { s.workers = n } }

// WithQueueDepth bounds how many simulation leaders may wait behind
// the busy workers before new ones are rejected with 429 (default 64).
// Store hits and coalesced duplicates never occupy the queue.
func WithQueueDepth(n int) Option { return func(s *Server) { s.queue = n } }

// WithTimeout sets the per-request deadline applied to every handler
// (default 2m; 0 disables).
func WithTimeout(d time.Duration) Option { return func(s *Server) { s.timeout = d } }

// New builds a Server over the given network configuration and result
// store backend — a local *store.Store, a remote *store.HTTPBackend,
// or nil for an uncached server. With a disk store attached the server
// also mounts the /v1/store API over it, becoming the hub of a
// distributed sweep: remote cmexp -workers processes read, write, and
// lease cells through this daemon.
func New(cfg network.Config, st store.Backend, opts ...Option) *Server {
	// Normalize a typed-nil backend pointer so the nil checks below
	// (and every handler's) see one kind of "no store".
	if b, ok := st.(*store.Store); ok && b == nil {
		st = nil
	}
	if b, ok := st.(*store.HTTPBackend); ok && b == nil {
		st = nil
	}
	s := &Server{
		cfg:      cfg,
		store:    st,
		traces:   trace.NewLibrary(st),
		workers:  runtime.GOMAXPROCS(0),
		queue:    64,
		timeout:  2 * time.Minute,
		flight:   newFlightGroup(),
		simulate: cm5.Run,
		start:    time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.workers < 1 {
		s.workers = 1
	}
	if s.queue < 0 {
		s.queue = 0
	}
	s.sem = make(chan struct{}, s.workers)

	s.reg = obs.NewRegistry()
	s.stats = serveStats{
		served:    s.reg.Counter("serve_served_total"),
		hits:      s.reg.Counter("serve_hits_total"),
		misses:    s.reg.Counter("serve_misses_total"),
		coalesced: s.reg.Counter("serve_coalesced_total"),
		rejected:  s.reg.Counter("serve_rejected_total"),
		failed:    s.reg.Counter("serve_failed_total"),
		sweeps:    s.reg.Counter("serve_sweeps_total"),
	}
	s.reg.GaugeFunc("serve_in_flight", func() float64 { return float64(len(s.sem)) })
	s.reg.GaugeFunc("serve_queue_depth", func() float64 {
		if q := int(s.pending.Load()) - len(s.sem); q > 0 {
			return float64(q)
		}
		return 0
	})
	s.reg.GaugeFunc("serve_workers", func() float64 { return float64(s.workers) })
	s.reg.GaugeFunc("serve_queue_capacity", func() float64 { return float64(s.queue) })
	if st != nil {
		// Only the disk store owns counters; a remote backend's metrics
		// live on the daemon that hosts it.
		if ms, ok := st.(interface{ SetMetrics(*obs.Registry) }); ok {
			ms.SetMetrics(s.reg)
		}
		s.reg.GaugeFunc("store_records", func() float64 { return float64(st.Len()) })
	}
	return s
}

// Registry returns the server's metrics registry (the one /v1/metrics
// renders).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's full route table. Every route is
// wrapped with the per-route instrumentation middleware, so
// serve_requests_total{route,status,cache} and the latency histograms
// cover the whole surface, /v1/metrics itself included.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	mux.HandleFunc("GET /v1/metrics", s.instrument("/v1/metrics", s.handleMetrics))
	// The historical listing endpoints are aliases over one registry
	// table (listings.go); their response bytes are pinned by tests.
	for _, reg := range registries {
		mux.HandleFunc("GET "+reg.path, s.instrument(reg.path, s.handleLegacyListing(reg)))
	}
	mux.HandleFunc("GET /v1/registry", s.instrument("/v1/registry", s.handleRegistry))
	mux.HandleFunc("GET /v1/registry/{kind}", s.instrument("/v1/registry/{kind}", s.handleRegistryKind))
	mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleJob))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	// The store API: the attached backend served over HTTP, which is
	// what lets remote cmexp -workers treat this daemon as their store.
	mux.HandleFunc("GET /v1/store/index", s.instrument("/v1/store/index", s.handleStoreIndex))
	mux.HandleFunc("GET /v1/store/objects/{hash}", s.instrument("/v1/store/objects", s.handleStoreGet))
	mux.HandleFunc("PUT /v1/store/objects/{hash}", s.instrument("/v1/store/objects", s.handleStorePut))
	mux.HandleFunc("POST /v1/store/claims", s.instrument("/v1/store/claims", s.handleStoreClaims))
	mux.HandleFunc("POST /v1/store/invalidate", s.instrument("/v1/store/invalidate", s.handleStoreInvalidate))
	mux.HandleFunc("POST /v1/store/flush", s.instrument("/v1/store/flush", s.handleStoreFlush))
	return s.withDeadline(mux)
}

// statusRecorder captures the response status (and the X-Cache header
// the job path sets) for the instrumentation middleware. It forwards
// Flush so the sweep stream keeps flushing through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route with request counting by
// (route, status, cache outcome) and a per-route latency histogram.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram("serve_request_seconds", obs.SecondsBuckets(),
		obs.Label{Key: "route", Value: route})
	return func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sr, r)
		hist.Observe(time.Since(t0).Seconds())
		cache := sr.Header().Get("X-Cache")
		if cache == "" {
			cache = "none"
		}
		s.reg.Counter("serve_requests_total",
			obs.Label{Key: "route", Value: route},
			obs.Label{Key: "status", Value: strconv.Itoa(sr.status)},
			obs.Label{Key: "cache", Value: cache},
		).Add(1)
	}
}

// handleMetrics renders the registry in Prometheus text exposition
// format — the same counters /v1/stats reports, plus the store, sim
// and per-route series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// withDeadline applies the per-request timeout to every handler's
// context; queue waits, coalescing waits, and sweep cell boundaries
// all observe it.
func (s *Server) withDeadline(h http.Handler) http.Handler {
	if s.timeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// httpError writes a JSON error document with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	doc, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(append(doc, '\n'))
}

// statusFor maps a job execution error to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		// A validated spec that still cannot run (a broadcast root
		// outside the machine, a collective the size rejects) is the
		// client's problem, not the server's.
		return http.StatusBadRequest
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.stats.served.Add(1)
	spec, err := cm5.DecodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	js := JobSpec(spec)
	hash, err := js.Hash(s.cfg)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "hash spec: %v", err)
		return
	}
	payload, cache, err := s.runJob(r.Context(), js, hash)
	if err != nil {
		s.stats.failed.Add(1)
		if errors.Is(err, errBusy) {
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, statusFor(err), "job %s: %v", hash[:12], err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Header().Set("X-Result-Hash", hash)
	w.Write(payload)
}

// runJob produces the canonical payload for one validated spec and
// reports how: "hit" (store), "miss" (this request simulated), or
// "coalesced" (an identical request was already in flight and this one
// rode along).
func (s *Server) runJob(ctx context.Context, js JobSpec, hash string) ([]byte, string, error) {
	if payload, ok := s.storeGet(hash); ok {
		s.stats.hits.Add(1)
		return payload, "hit", nil
	}
	c, leader := s.flight.join(hash)
	if !leader {
		s.stats.coalesced.Add(1)
		payload, err := c.wait(ctx)
		return payload, "coalesced", err
	}
	payload, err := s.flight.lead(hash, c, func() ([]byte, error) {
		release, err := s.admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		job, err := cm5.Spec(js).Job(s.cfg, s.traces.Get)
		if err != nil {
			return nil, err
		}
		// Sim-level counters (engine events, flows, solver wall time)
		// accumulate into the server registry; metrics are passive, so
		// the payload stays byte-identical.
		res, err := s.simulate(job.With(cm5.WithMetrics(s.reg)))
		if err != nil {
			return nil, err
		}
		s.stats.misses.Add(1)
		payload, err := encodeResult(js, hash, res)
		if err != nil {
			return nil, err
		}
		s.storePut(js, hash, payload)
		return payload, nil
	})
	return payload, "miss", err
}

// admit acquires one simulation slot, waiting in the bounded queue.
// Beyond workers+queue leaders in the system, it rejects immediately
// (429); a context deadline abandons the wait.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if int(s.pending.Add(1)) > s.workers+s.queue {
		s.pending.Add(-1)
		s.stats.rejected.Add(1)
		return nil, errBusy
	}
	select {
	case s.sem <- struct{}{}:
		return func() {
			<-s.sem
			s.pending.Add(-1)
		}, nil
	case <-ctx.Done():
		s.pending.Add(-1)
		return nil, ctx.Err()
	}
}

// storeGet returns the canonical payload recorded under hash. The
// object file holds it re-indented inside the record, so it is
// compacted back to the exact bytes encodeResult produced — warm
// responses are byte-identical to the cold ones.
func (s *Server) storeGet(hash string) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	rec, ok, err := s.store.Get(hash)
	if err != nil || !ok || len(rec.Payload) == 0 {
		// Read errors and payload-less records (table cells) fall
		// through to a fresh simulation, never to a failed request.
		return nil, false
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, rec.Payload); err != nil {
		return nil, false
	}
	buf.WriteByte('\n')
	return buf.Bytes(), true
}

// storePut persists a payload record; failures are deliberately
// swallowed — the cache can only ever cost a re-simulation, never a
// failed response. The index is left stale for the store's owner to
// flush once (cmserve does so after draining).
func (s *Server) storePut(js JobSpec, hash string, payload []byte) {
	if s.store == nil {
		return
	}
	// NewRecord recomputes the hash from the spec and validates; a
	// drift between JobSpec.Hash and storeSpec would surface right here
	// instead of becoming a permanently unreachable record.
	rec, err := store.NewRecord("serve", fmt.Sprintf("serve/%s", hash[:12]), js.storeSpec(s.cfg))
	if err != nil || rec.Hash != hash {
		return
	}
	rec.Payload = json.RawMessage(payload)
	s.store.Put(rec)
}

// sweepEvent is one NDJSON line of the sweep stream. Cell events carry
// Cell/Done/Total/Cached as each cell completes; the final event
// carries Done=total plus the rendered output and the replay split; an
// Error event ends a stream that cannot continue.
type sweepEvent struct {
	Cell      string `json:"cell,omitempty"`
	Done      int    `json:"done,omitempty"`
	Total     int    `json:"total,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Finished  bool   `json:"finished,omitempty"`
	Cells     int    `json:"cells,omitempty"`
	Replayed  int    `json:"replayed,omitempty"`
	Simulated int    `json:"simulated,omitempty"`
	Format    string `json:"format,omitempty"`
	// Output is the sweep's rendering (exp.SweepPlan.Run), byte-identical
	// to cmexp's stdout for the same exp.Sweep.
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.stats.served.Add(1)
	sw, err := exp.DecodeSweep(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	plan, err := sw.Plan(s.cfg, s.store, nil)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// A sweep occupies one admission slot for its whole duration (its
	// cells fan across the runner's own pool), so sweeps and job
	// leaders share the same overload behavior.
	release, err := s.admit(r.Context())
	if err != nil {
		s.stats.failed.Add(1)
		if errors.Is(err, errBusy) {
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, statusFor(err), "sweep: %v", err)
		return
	}
	defer release()
	s.stats.sweeps.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev sweepEvent) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	runner := exp.NewRunner(s.workers)
	runner.Metrics = s.reg
	// OnProgress calls are serialized by the runner, so emit needs no
	// extra lock; each cell streams out the moment it completes.
	runner.OnProgress = func(p exp.Progress) {
		emit(sweepEvent{Cell: p.Key, Done: p.Done, Total: p.Total, Cached: p.Cached})
	}
	var out bytes.Buffer
	if err := plan.Run(r.Context(), runner, &out); err != nil {
		s.stats.failed.Add(1)
		emit(sweepEvent{Error: err.Error()})
		return
	}
	emit(sweepEvent{
		Finished: true, Cells: plan.Selected,
		Replayed: runner.CacheHits(), Simulated: runner.CacheMisses(),
		Format: string(plan.Format), Output: out.String(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{"status": "ok"}
	if s.store != nil {
		doc["store"] = s.store.Location()
	}
	writeJSON(w, doc)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	inFlight := len(s.sem)
	pending := int(s.pending.Load())
	queued := pending - inFlight
	if queued < 0 {
		queued = 0
	}
	doc := map[string]any{
		"served":         s.stats.served.Value(),
		"hits":           s.stats.hits.Value(),
		"misses":         s.stats.misses.Value(),
		"coalesced":      s.stats.coalesced.Value(),
		"rejected":       s.stats.rejected.Value(),
		"failed":         s.stats.failed.Value(),
		"sweeps":         s.stats.sweeps.Value(),
		"in_flight":      inFlight,
		"queued":         queued,
		"workers":        s.workers,
		"queue_capacity": s.queue,
		"uptime_s":       time.Since(s.start).Seconds(),
	}
	if s.store != nil {
		doc["store"] = map[string]any{"dir": s.store.Location(), "records": s.store.Len()}
	}
	writeJSON(w, doc)
}

func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(doc)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Write(append(data, '\n'))
}
