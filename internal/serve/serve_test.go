package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/cm5"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// post drives one request straight through the handler (no sockets:
// thousands of concurrent calls stay cheap and deterministic).
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// waitFor polls until cond holds; the failure message names what never
// happened.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

const bexSpec = `{"algorithm":"BEX","n":8,"bytes":64}`

func TestJobMissThenHitByteIdentical(t *testing.T) {
	st := testStore(t)
	s := New(network.DefaultConfig(), st)
	h := s.Handler()

	cold := post(h, "/v1/jobs", bexSpec)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold POST: status %d, body %s", cold.Code, cold.Body)
	}
	if c := cold.Header().Get("X-Cache"); c != "miss" {
		t.Fatalf("cold POST: X-Cache %q, want miss", c)
	}
	warm := post(h, "/v1/jobs", bexSpec)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm POST: status %d, body %s", warm.Code, warm.Body)
	}
	if c := warm.Header().Get("X-Cache"); c != "hit" {
		t.Fatalf("warm POST: X-Cache %q, want hit", c)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatalf("warm body differs from cold:\ncold: %s\nwarm: %s", cold.Body, warm.Body)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records, want 1", st.Len())
	}

	// The offline -oneshot path produces the identical bytes.
	var js JobSpec
	if err := json.Unmarshal([]byte(bexSpec), &js); err != nil {
		t.Fatal(err)
	}
	payload, err := RunOne(js, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, cold.Body.Bytes()) {
		t.Fatalf("RunOne differs from served body:\noneshot: %s\nserved:  %s", payload, cold.Body)
	}

	// The payload parses back and carries the simulated metrics.
	var doc JobResult
	if err := json.Unmarshal(cold.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != ResultSchema || doc.Result.Algorithm != "BEX" || doc.Result.ElapsedNS <= 0 {
		t.Fatalf("implausible result document: %+v", doc)
	}
	if want := fmt.Sprintf("%.3f", float64(doc.Result.ElapsedNS)/1e6); doc.Result.ElapsedMS != want {
		t.Fatalf("elapsed_ms %q does not render elapsed_ns (want %q)", doc.Result.ElapsedMS, want)
	}
	if doc.Hash != cold.Header().Get("X-Result-Hash") {
		t.Fatalf("hash header %q != document hash %q", cold.Header().Get("X-Result-Hash"), doc.Hash)
	}
}

// TestPinnedJobHashAndBody pins one served job across refactors of the
// job description: the spec's store hash and its RunOne payload are
// fixed, so stored records stay reachable and served bytes never move.
// elapsed_ms 10.515 is Figure 5's BEX 1024 B cell.
func TestPinnedJobHashAndBody(t *testing.T) {
	js := JobSpec{Algorithm: "BEX", N: 32, Bytes: 1024}
	hash, err := js.Hash(network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := "e83ed25eb1cd54b36438cfb5bc7291ece8f5117ded3ec8ac320b87d1e8158159"; hash != want {
		t.Fatalf("hash %s, want %s", hash, want)
	}
	payload, err := RunOne(js, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "bex_n32_1024.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("RunOne body moved:\ngot:  %s\nwant: %s", payload, want)
	}
}

// TestRunOneByteIdenticalAcrossCalls: a payload is a pure function of its
// spec, down to the last bit of level_utilization, so a daemon that
// re-simulates a spec (after an invalidation, or on another host)
// serves the bytes it served before.
func TestRunOneByteIdenticalAcrossCalls(t *testing.T) {
	js := JobSpec{Algorithm: "AS", N: 32, Bytes: 256,
		Workload: SyntheticWorkload, Density: 0.5, Seed: 2}
	first, err := RunOne(js, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first, []byte(`"level_utilization"`)) {
		t.Fatalf("payload carries no level_utilization: %s", first)
	}
	for i := 1; i < 40; i++ {
		payload, err := RunOne(js, network.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, first) {
			t.Fatalf("call %d differs from call 0:\n%s\n%s", i, payload, first)
		}
	}
}

// TestJobMalformedSpecs pins the 400 path: every bad spec is rejected
// before any simulation, with the registries' known-names error text.
func TestJobMalformedSpecs(t *testing.T) {
	st := testStore(t)
	s := New(network.DefaultConfig(), st)
	h := s.Handler()
	cases := []struct {
		name, body, want string
	}{
		{"not json", `{"algorithm"`, "bad job spec"},
		{"unknown field", `{"algoritm":"BEX","n":8}`, "unknown field"},
		{"missing algorithm", `{"n":8,"bytes":64}`, "missing algorithm"},
		{"unknown algorithm", `{"algorithm":"XEX","n":8}`, "unknown algorithm"},
		{"unknown algorithm lists names", `{"algorithm":"XEX","n":8}`, "BEX"},
		{"n not power of two", `{"algorithm":"BEX","n":31}`, "power of two"},
		{"n above the CM-5's 16384", `{"algorithm":"LEX","n":32768}`, "[2, 16384]"},
		{"negative bytes", `{"algorithm":"BEX","n":8,"bytes":-1}`, "must be >= 0"},
		{"irregular without workload", `{"algorithm":"GS","n":16}`, "set workload"},
		{"unknown workload", `{"algorithm":"GS","n":16,"workload":"nope"}`, "unknown workload"},
		{"unknown workload lists names", `{"algorithm":"GS","n":16,"workload":"nope"}`, "transpose"},
		{"workload on exchange", `{"algorithm":"BEX","n":8,"workload":"transpose"}`, "takes n and bytes"},
		{"bad synthetic density", `{"algorithm":"GS","n":16,"workload":"synthetic","density":1.5}`, "in (0, 1]"},
		{"density without synthetic", `{"algorithm":"GS","n":16,"workload":"transpose","density":0.5}`, "only valid with"},
		{"unknown topology", `{"algorithm":"BEX","n":8,"topology":"mesh"}`, "unknown topology"},
		{"unknown topology lists names", `{"algorithm":"BEX","n":8,"topology":"mesh"}`, "fat-tree"},
		{"second object after the spec", `{"algorithm":"BEX","n":32,"bytes":1024}{"algorithm":"LEX"}`, "trailing data"},
		{"garbage after the spec", `{"algorithm":"BEX","n":32,"bytes":1024} x`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(h, "/v1/jobs", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", w.Code, w.Body)
			}
			var doc map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
				t.Fatalf("error body is not JSON: %s", w.Body)
			}
			if !strings.Contains(doc["error"], tc.want) {
				t.Fatalf("error %q does not mention %q", doc["error"], tc.want)
			}
		})
	}
	if st.Len() != 0 {
		t.Fatalf("rejected specs wrote %d store records", st.Len())
	}
	// A spec that validates but cannot run (broadcast root outside the
	// machine) is also the client's 400, and is never cached.
	w := post(h, "/v1/jobs", `{"algorithm":"REB","n":8,"bytes":64,"root":64}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range root: status %d, want 400 (body %s)", w.Code, w.Body)
	}
	if st.Len() != 0 {
		t.Fatalf("failed run wrote %d store records", st.Len())
	}
}

// TestCoalescingThunderingHerd is the core serving guarantee: 1000
// concurrent identical requests trigger exactly one simulation, and
// every response carries byte-identical payloads. The simulator stub
// blocks until all 999 followers have joined, so the assertion is
// deterministic, not a race won by a fast machine.
func TestCoalescingThunderingHerd(t *testing.T) {
	const herd = 1000
	st := testStore(t)
	s := New(network.DefaultConfig(), st, WithWorkers(4), WithQueueDepth(16))
	var sims atomic.Int64
	release := make(chan struct{})
	s.simulate = func(job cm5.Job) (cm5.Result, error) {
		sims.Add(1)
		<-release
		return cm5.Run(job)
	}
	h := s.Handler()

	spec := `{"algorithm":"GS","n":16,"bytes":64,"workload":"transpose"}`
	var wg sync.WaitGroup
	responses := make([]*httptest.ResponseRecorder, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = post(h, "/v1/jobs", spec)
		}(i)
	}
	// One leader entered the simulator; everyone else joined its flight.
	waitFor(t, "herd to coalesce", func() bool {
		return sims.Load() == 1 && s.stats.coalesced.Value() == herd-1
	})
	close(release)
	wg.Wait()

	if got := sims.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want exactly 1", herd, got)
	}
	first := responses[0].Body.Bytes()
	misses, coalesced := 0, 0
	for i, w := range responses {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), first) {
			t.Fatalf("request %d: body differs within the herd", i)
		}
		switch w.Header().Get("X-Cache") {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		}
	}
	if misses != 1 || coalesced != herd-1 {
		t.Fatalf("cache split miss=%d coalesced=%d, want 1/%d", misses, coalesced, herd-1)
	}
	// The metrics exposition tells the same story.
	text := get(h, "/v1/metrics").Body.String()
	if got := promValue(t, text, "serve_misses_total"); got != 1 {
		t.Fatalf("serve_misses_total = %d after the herd, want 1", got)
	}
	if got := promValue(t, text, "serve_coalesced_total"); got != herd-1 {
		t.Fatalf("serve_coalesced_total = %d after the herd, want %d", got, herd-1)
	}
	// The herd's one simulation persisted: the next request is a store
	// hit without any in-flight leader.
	w := post(h, "/v1/jobs", spec)
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("post-herd request: status %d X-Cache %q, want 200/hit", w.Code, w.Header().Get("X-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), first) {
		t.Fatal("store replay differs from the herd's payload")
	}
}

// TestQueueOverflow429 fills the one worker and the one queue slot
// with distinct specs, then asserts the next distinct spec bounces
// with 429 and Retry-After while the first two still complete.
func TestQueueOverflow429(t *testing.T) {
	s := New(network.DefaultConfig(), nil, WithWorkers(1), WithQueueDepth(1))
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.simulate = func(job cm5.Job) (cm5.Result, error) {
		entered <- struct{}{}
		<-release
		return cm5.Run(job)
	}
	h := s.Handler()
	spec := func(seed int) string {
		return fmt.Sprintf(`{"algorithm":"GS","n":16,"bytes":64,"workload":"synthetic","density":0.5,"seed":%d}`, seed)
	}

	var wg sync.WaitGroup
	first := make([]*httptest.ResponseRecorder, 2)
	wg.Add(1)
	go func() { defer wg.Done(); first[0] = post(h, "/v1/jobs", spec(1)) }()
	<-entered // spec 1 occupies the worker
	wg.Add(1)
	go func() { defer wg.Done(); first[1] = post(h, "/v1/jobs", spec(2)) }()
	waitFor(t, "second request to queue", func() bool { return s.pending.Load() == 2 })

	rejected := post(h, "/v1/jobs", spec(3))
	if rejected.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (body %s)", rejected.Code, rejected.Body)
	}
	if rejected.Header().Get("Retry-After") == "" {
		t.Fatal("429 response carries no Retry-After")
	}
	if s.stats.rejected.Value() != 1 {
		t.Fatalf("rejected counter %d, want 1", s.stats.rejected.Value())
	}

	close(release)
	wg.Wait()
	for i, w := range first {
		if w.Code != http.StatusOK {
			t.Fatalf("admitted request %d: status %d, body %s", i, w.Code, w.Body)
		}
	}
}

// TestDeadlineCancellation pins both context-sensitive waits: a leader
// stuck in the admission queue and a follower stuck behind a slow
// leader each give up with 504 when their request deadline passes.
func TestDeadlineCancellation(t *testing.T) {
	s := New(network.DefaultConfig(), nil, WithWorkers(1), WithQueueDepth(4))
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.simulate = func(job cm5.Job) (cm5.Result, error) {
		entered <- struct{}{}
		<-release
		return cm5.Run(job)
	}
	h := s.Handler()
	slow := `{"algorithm":"GS","n":16,"bytes":64,"workload":"transpose"}`
	other := `{"algorithm":"GS","n":16,"bytes":64,"workload":"butterfly"}`

	var wg sync.WaitGroup
	var leader *httptest.ResponseRecorder
	wg.Add(1)
	go func() { defer wg.Done(); leader = post(h, "/v1/jobs", slow) }()
	<-entered

	withDeadline := func(body string) *httptest.ResponseRecorder {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	// Queue wait: a distinct spec cannot get the busy worker in time.
	if w := withDeadline(other); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued request past deadline: status %d, want 504 (body %s)", w.Code, w.Body)
	}
	// Coalescing wait: an identical spec rides the stuck leader and
	// abandons it on deadline without disturbing it.
	if w := withDeadline(slow); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("coalesced request past deadline: status %d, want 504 (body %s)", w.Code, w.Body)
	}

	close(release)
	wg.Wait()
	if leader.Code != http.StatusOK {
		t.Fatalf("leader: status %d, body %s", leader.Code, leader.Body)
	}
}

func TestListingsAndHealth(t *testing.T) {
	s := New(network.DefaultConfig(), testStore(t))
	h := s.Handler()
	checks := []struct {
		path string
		want []string
	}{
		{"/healthz", []string{`"status":"ok"`}},
		{"/v1/algorithms", []string{`"BEX"`, `"GS"`, `"exchange"`, `"irregular"`, `"allgather"`}},
		{"/v1/topologies", []string{`"fat-tree"`, `"dragonfly"`, `"hypercube"`}},
		{"/v1/workloads", []string{`"transpose"`, `"bisection"`, `"synthetic"`}},
		{"/v1/stats", []string{`"workers"`, `"queued"`, `"hits"`, `"misses"`, `"coalesced"`, `"records"`}},
	}
	for _, c := range checks {
		w := get(h, c.path)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", c.path, w.Code)
		}
		for _, want := range c.want {
			if !strings.Contains(w.Body.String(), want) {
				t.Fatalf("GET %s: body %s does not contain %s", c.path, w.Body, want)
			}
		}
	}
	// Method misroutes are 405s from the typed mux, not panics.
	if w := get(h, "/v1/jobs"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs: status %d, want 405", w.Code)
	}
}

const sweepFilter = "^scenarios/transpose/(GS|LS)/N16$"

func sweepBody(format string) string {
	return fmt.Sprintf(`{"experiments":["scenarios"],"run":%q,"format":%q}`, sweepFilter, format)
}

// decodeSweep parses an NDJSON stream into its events.
func decodeSweep(t *testing.T, body *bytes.Buffer) []sweepEvent {
	t.Helper()
	var events []sweepEvent
	sc := bufio.NewScanner(bytes.NewReader(body.Bytes()))
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events
}

// TestSweepStreamsAndMatchesHarness runs a filtered scenario sweep
// twice: the cold pass simulates and streams each cell as it
// completes; the warm pass replays every cell from the shared store.
// Both outputs must be byte-identical to rendering the same specs
// through the experiment harness directly — which is exactly what
// cmexp prints for the same experiments, filter, and format.
func TestSweepStreamsAndMatchesHarness(t *testing.T) {
	cfg := network.DefaultConfig()
	st := testStore(t)
	s := New(cfg, st, WithWorkers(2))
	h := s.Handler()

	// The reference rendering, straight through the harness.
	specs, err := exp.FamilySpecs("scenarios", cfg)
	if err != nil {
		t.Fatal(err)
	}
	runner := exp.NewRunner(1)
	runner.Filter = regexp.MustCompile(sweepFilter)
	if err := runner.Run(context.Background(), specs...); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	tables := []*exp.Table{}
	for _, sp := range specs {
		tables = append(tables, sp.Table)
	}
	if err := exp.WriteTables(&want, exp.FormatJSON, tables); err != nil {
		t.Fatal(err)
	}

	// The cold pass must run first — a map literal here would randomize
	// the order and intermittently assert cache hits on a fresh store.
	for _, p := range []struct {
		pass       string
		wantCached bool
	}{{"cold", false}, {"warm", true}} {
		pass, wantCached := p.pass, p.wantCached
		w := post(h, "/v1/sweep", sweepBody("json"))
		if w.Code != http.StatusOK {
			t.Fatalf("%s sweep: status %d, body %s", pass, w.Code, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s sweep: Content-Type %q", pass, ct)
		}
		events := decodeSweep(t, w.Body)
		if len(events) != 3 {
			t.Fatalf("%s sweep: %d events, want 2 cells + 1 final: %+v", pass, len(events), events)
		}
		final := events[len(events)-1]
		if !final.Finished || final.Cells != 2 {
			t.Fatalf("%s sweep: bad final event %+v", pass, final)
		}
		cellEvents := events[:len(events)-1]
		for _, ev := range cellEvents {
			if ev.Total != 2 || !strings.HasPrefix(ev.Cell, "scenarios/transpose/") {
				t.Fatalf("%s sweep: bad cell event %+v", pass, ev)
			}
			if ev.Cached != wantCached {
				t.Fatalf("%s sweep: cell %s cached=%v, want %v", pass, ev.Cell, ev.Cached, wantCached)
			}
		}
		if wantCached && (final.Replayed != 2 || final.Simulated != 0) {
			t.Fatalf("warm sweep split replayed=%d simulated=%d, want 2/0", final.Replayed, final.Simulated)
		}
		if !wantCached && (final.Replayed != 0 || final.Simulated != 2) {
			t.Fatalf("cold sweep split replayed=%d simulated=%d, want 0/2", final.Replayed, final.Simulated)
		}
		if final.Output != want.String() {
			t.Fatalf("%s sweep output differs from the harness rendering:\n%s\n---\n%s",
				pass, final.Output, want.String())
		}
	}
}

func TestSweepValidation(t *testing.T) {
	s := New(network.DefaultConfig(), nil)
	h := s.Handler()
	cases := []struct {
		name, body, want string
	}{
		{"empty", `{}`, "no experiments"},
		{"unknown family", `{"experiments":["fig99"]}`, "unknown experiment"},
		{"unknown family lists names", `{"experiments":["fig99"]}`, "scenarios"},
		{"static schedules", `{"experiments":["schedules"]}`, "static listing"},
		{"bad regexp", `{"experiments":["fig5"],"run":"("}`, "bad run pattern"},
		{"bad format", `{"experiments":["fig5"],"format":"xml"}`, "unknown format"},
		{"matches nothing", `{"experiments":["fig5"],"run":"zzz"}`, "matches no cell"},
		{"unknown field", `{"experiment":["fig5"]}`, "unknown field"},
		{"trailing data", `{"experiments":["fig5"]}{"experiments":["fig6"]}`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(h, "/v1/sweep", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", w.Code, w.Body)
			}
			if !strings.Contains(w.Body.String(), tc.want) {
				t.Fatalf("body %s does not mention %q", w.Body, tc.want)
			}
		})
	}
}
