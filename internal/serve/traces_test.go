package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/network"
)

const traceSpec = `{"algorithm":"BS","n":8,"trace":"cg","trace_size":64,"seed":1}`

// A trace-driven job behaves exactly like any other: the first request
// records the app and simulates, the warm replay is byte-identical, and
// the recording itself lands in the store so a fresh server over the
// same directory never re-runs the application.
func TestTraceJobMissThenHit(t *testing.T) {
	st := testStore(t)
	s := New(network.DefaultConfig(), st)
	h := s.Handler()

	cold := post(h, "/v1/jobs", traceSpec)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold POST: status %d, body %s", cold.Code, cold.Body)
	}
	if c := cold.Header().Get("X-Cache"); c != "miss" {
		t.Fatalf("cold POST: X-Cache %q, want miss", c)
	}
	warm := post(h, "/v1/jobs", traceSpec)
	if c := warm.Header().Get("X-Cache"); c != "hit" {
		t.Fatalf("warm POST: X-Cache %q, want hit", c)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Errorf("warm payload differs from cold:\ncold: %s\nwarm: %s", cold.Body, warm.Body)
	}

	var doc struct {
		Spec struct {
			Trace     string `json:"trace"`
			TraceSize int    `json:"trace_size"`
		} `json:"spec"`
		Result struct {
			Messages int `json:"messages"`
		} `json:"result"`
	}
	if err := json.Unmarshal(cold.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Spec.Trace != "cg" || doc.Spec.TraceSize != 64 {
		t.Errorf("echoed spec lost the trace fields: %s", cold.Body)
	}
	if doc.Result.Messages == 0 {
		t.Errorf("trace job moved no messages: %s", cold.Body)
	}

	// The recording persisted alongside the job result: a second server
	// over the same store serves the job as a pure hit, and the trace
	// record is listed by GET /v1/traces.
	recs, err := st.All()
	if err != nil {
		t.Fatal(err)
	}
	traces := 0
	for _, rec := range recs {
		if rec.Family == "trace" {
			traces++
		}
	}
	if traces != 1 {
		t.Errorf("store holds %d trace records, want 1", traces)
	}

	listing := get(h, "/v1/traces")
	if listing.Code != http.StatusOK {
		t.Fatalf("GET /v1/traces: status %d", listing.Code)
	}
	var tl struct {
		TraceVersion int `json:"trace_version"`
		Apps         []struct {
			Name        string `json:"name"`
			Doc         string `json:"doc"`
			DefaultSize int    `json:"default_size"`
		} `json:"apps"`
		Recorded []struct {
			Cell string `json:"cell"`
			Hash string `json:"hash"`
		} `json:"recorded"`
	}
	if err := json.Unmarshal(listing.Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if tl.TraceVersion != 1 {
		t.Errorf("trace_version = %d, want 1", tl.TraceVersion)
	}
	var names []string
	for _, a := range tl.Apps {
		names = append(names, a.Name)
		if a.Doc == "" || a.DefaultSize == 0 {
			t.Errorf("app %s listed without doc or default size", a.Name)
		}
	}
	if got := strings.Join(names, " "); got != "cg fft euler" {
		t.Errorf("apps = %q, want \"cg fft euler\"", got)
	}
	if len(tl.Recorded) != 1 || !strings.HasPrefix(tl.Recorded[0].Cell, "trace/cg/") {
		t.Errorf("recorded listing = %+v, want the one cg recording", tl.Recorded)
	}
}

// Invalid trace specs fail validation with the registry listings, like
// every other axis of the job API.
func TestTraceSpecValidation(t *testing.T) {
	s := New(network.DefaultConfig(), nil)
	h := s.Handler()
	cases := []struct {
		name, body, want string
	}{
		{"unknown app", `{"algorithm":"BS","n":8,"trace":"bogus"}`, "known: cg fft euler"},
		{"regular algorithm", `{"algorithm":"PEX","n":8,"trace":"cg"}`, "irregular schedulers"},
		{"trace plus workload", `{"algorithm":"BS","n":8,"trace":"cg","workload":"hotspot"}`, "mutually exclusive"},
		{"bytes with trace", `{"algorithm":"BS","n":8,"trace":"cg","bytes":64}`, "message sizes come from the recording"},
		{"trace_size without trace", `{"algorithm":"BS","n":8,"workload":"hotspot","bytes":64,"trace_size":64}`, "only valid with a trace"},
		{"negative trace_size", `{"algorithm":"BS","n":8,"trace":"cg","trace_size":-1}`, "trace_size -1 must be in [0, 32768] for cg"},
		{"fft edge over the bound", `{"algorithm":"BS","n":8,"trace":"fft","trace_size":1000000}`, "trace_size 1000000 must be in [0, 512] for fft"},
		{"euler mesh over the bound", `{"algorithm":"GS","n":8,"trace":"euler","trace_size":32769}`, "must be in [0, 32768] for euler"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := post(h, "/v1/jobs", c.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", w.Code, w.Body)
			}
			if !strings.Contains(w.Body.String(), c.want) {
				t.Errorf("error %s should mention %q", w.Body, c.want)
			}
		})
	}
}
