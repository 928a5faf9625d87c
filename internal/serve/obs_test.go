package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/network"
)

// promValue extracts one sample value from a Prometheus text
// exposition; series names the full sample line prefix, labels
// included.
func promValue(t *testing.T, text, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q: %v", series, rest, err)
			}
			return int64(v)
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, text)
	return 0
}

// TestMetricsEndpoint drives a miss, a hit and a coalesce-free repeat
// through the job path and checks that /v1/metrics renders valid
// Prometheus text whose serve counters match /v1/stats exactly — they
// are the same registry underneath, so any mismatch is a bug in the
// rendering, not a race.
func TestMetricsEndpoint(t *testing.T) {
	s := New(network.DefaultConfig(), testStore(t))
	h := s.Handler()

	// A fresh daemon already exposes its serve counters, at zero.
	fresh := get(h, "/v1/metrics").Body.String()
	for _, series := range []string{"serve_hits_total", "serve_misses_total", "serve_coalesced_total"} {
		if got := promValue(t, fresh, series); got != 0 {
			t.Errorf("fresh daemon: %s = %d, want 0", series, got)
		}
	}

	if w := post(h, "/v1/jobs", bexSpec); w.Code != http.StatusOK {
		t.Fatalf("cold POST: status %d, body %s", w.Code, w.Body)
	}
	if w := post(h, "/v1/jobs", bexSpec); w.Code != http.StatusOK {
		t.Fatalf("warm POST: status %d, body %s", w.Code, w.Body)
	}

	mw := get(h, "/v1/metrics")
	if mw.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", mw.Code)
	}
	if ct := mw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /v1/metrics: Content-Type %q, want text/plain", ct)
	}
	text := mw.Body.String()

	// Structural sanity: every non-comment line is "name{labels} value",
	// every family has a # TYPE line, families are name-sorted.
	var lastFamily string
	families := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam := strings.Fields(name)[0]
			if fam < lastFamily {
				t.Fatalf("family %s out of order after %s", fam, lastFamily)
			}
			lastFamily = fam
			families[fam] = true
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		if len(fields) != 2 {
			t.Fatalf("unparseable sample line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		if !families[name] && !families[strings.TrimSuffix(name, "_bucket")] {
			t.Fatalf("sample %q precedes its # TYPE line", line)
		}
	}

	// The serve counters agree with /v1/stats.
	var stats map[string]any
	if err := json.NewDecoder(get(h, "/v1/stats").Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for stat, series := range map[string]string{
		"served":    "serve_served_total",
		"hits":      "serve_hits_total",
		"misses":    "serve_misses_total",
		"coalesced": "serve_coalesced_total",
		"rejected":  "serve_rejected_total",
	} {
		want := int64(stats[stat].(float64))
		if got := promValue(t, text, series); got != want {
			t.Errorf("%s: /v1/metrics %d, /v1/stats %d", series, got, want)
		}
	}
	if hits := promValue(t, text, "serve_hits_total"); hits != 1 {
		t.Errorf("serve_hits_total = %d after one warm POST, want 1", hits)
	}
	if misses := promValue(t, text, "serve_misses_total"); misses != 1 {
		t.Errorf("serve_misses_total = %d after one cold POST, want 1", misses)
	}

	// The sim layer's counters flowed into the same registry via the
	// job path, and the store contributed its series.
	for _, series := range []string{"sim_events_fired_total", "net_flows_started_total",
		"store_get_hits_total", "store_get_misses_total"} {
		if promValue(t, text, series) <= 0 {
			t.Errorf("%s should be positive after a simulated job", series)
		}
	}

	// Per-route accounting saw both job POSTs as one miss and one hit.
	for _, series := range []string{
		`serve_requests_total{cache="miss",route="/v1/jobs",status="200"}`,
		`serve_requests_total{cache="hit",route="/v1/jobs",status="200"}`,
	} {
		if got := promValue(t, text, series); got != 1 {
			t.Errorf("%s = %d, want 1", series, got)
		}
	}
}

// TestStatsMetricsSameRegistry hammers the job path concurrently and
// then checks /v1/stats against /v1/metrics: reading the same counters
// through two renderings must agree once the requests settle.
func TestStatsMetricsSameRegistry(t *testing.T) {
	s := New(network.DefaultConfig(), testStore(t))
	h := s.Handler()
	for i := 0; i < 4; i++ {
		spec := fmt.Sprintf(`{"algorithm":"BEX","n":8,"bytes":%d}`, 64<<i)
		post(h, "/v1/jobs", spec)
		post(h, "/v1/jobs", spec)
	}
	var stats map[string]any
	if err := json.NewDecoder(get(h, "/v1/stats").Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	text := get(h, "/v1/metrics").Body.String()
	if got, want := promValue(t, text, "serve_misses_total"), int64(stats["misses"].(float64)); got != want {
		t.Fatalf("misses: metrics %d, stats %d", got, want)
	}
	if got, want := promValue(t, text, "serve_hits_total"), int64(stats["hits"].(float64)); got != want {
		t.Fatalf("hits: metrics %d, stats %d", got, want)
	}
	if got := promValue(t, text, "serve_misses_total"); got != 4 {
		t.Fatalf("serve_misses_total = %d, want 4", got)
	}
}
