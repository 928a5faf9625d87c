package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestDaemonSweepReplaysCmexpStore: a store warmed by cmexp is the
// daemon's cache too. A POST /v1/sweep with cmexp's filter and format
// over that store replays both cells, simulates none, and its final
// event's output is byte-identical to cmexp's stdout.
func TestDaemonSweepReplaysCmexpStore(t *testing.T) {
	const filter = `scenarios/transpose/(LS|GS)/N16$`
	dir := filepath.Join(t.TempDir(), "results")
	want, _ := cmexpOut(t, []string{"scenarios"},
		options{parallel: 2, storeDir: dir, format: "json", runPat: filter})

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	final := daemonSweep(t, st, map[string]any{
		"experiments": []string{"scenarios"}, "run": filter, "format": "json"})
	if final.Replayed != 2 || final.Simulated != 0 {
		t.Fatalf("sweep replayed %d and simulated %d cells, want 2 and 0 (store not shared?)",
			final.Replayed, final.Simulated)
	}
	if final.Output != want {
		t.Fatalf("sweep output differs from cmexp stdout:\nsweep: %s\ncmexp: %s", final.Output, want)
	}
}

// TestDaemonSweepSchedulesMatchesCmexp: a served sweep that names the
// static schedules listing renders it exactly as cmexp prints it,
// ahead of the tables.
func TestDaemonSweepSchedulesMatchesCmexp(t *testing.T) {
	const filter = `fig5/PEX/N32/0B$`
	want, _ := cmexpOut(t, []string{"schedules", "fig5"}, options{parallel: 2, format: "text", runPat: filter})
	final := daemonSweep(t, nil, map[string]any{
		"experiments": []string{"schedules", "fig5"}, "run": filter})
	if final.Output != want {
		t.Fatalf("sweep output differs from cmexp stdout:\nsweep: %s\ncmexp: %s", final.Output, want)
	}
	if !strings.HasPrefix(want, "LEX schedule") || !strings.Contains(want, "Figure 5") {
		t.Fatalf("cmexp output lacks the listing or the table:\n%s", want)
	}
}

// sweepFinal is the last event of a sweep stream.
type sweepFinal struct {
	Finished            bool
	Replayed, Simulated int
	Output              string
}

// daemonSweep posts body to POST /v1/sweep of a daemon over st (nil:
// storeless) and returns the stream's final event.
func daemonSweep(t *testing.T, st store.Backend, body map[string]any) sweepFinal {
	t.Helper()
	ts := httptest.NewServer(serve.New(network.DefaultConfig(), st).Handler())
	defer ts.Close()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sweep: status %d", resp.StatusCode)
	}
	var last string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		last = sc.Text()
	}
	var final sweepFinal
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Fatalf("final sweep event %q: %v", last, err)
	}
	if !final.Finished {
		t.Fatalf("sweep did not finish: %q", last)
	}
	return final
}
