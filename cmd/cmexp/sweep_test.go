package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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
	ts := httptest.NewServer(serve.New(network.DefaultConfig(), st).Handler())
	defer ts.Close()

	body, err := json.Marshal(map[string]any{
		"experiments": []string{"scenarios"}, "run": filter, "format": "json"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sweep: status %d", resp.StatusCode)
	}
	var last string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		last = sc.Text()
	}
	var final struct {
		Finished            bool
		Replayed, Simulated int
		Output              string
	}
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Fatalf("final sweep event %q: %v", last, err)
	}
	if !final.Finished {
		t.Fatalf("sweep did not finish: %q", last)
	}
	if final.Replayed != 2 || final.Simulated != 0 {
		t.Fatalf("sweep replayed %d and simulated %d cells, want 2 and 0 (store not shared?)",
			final.Replayed, final.Simulated)
	}
	if final.Output != want {
		t.Fatalf("sweep output differs from cmexp stdout:\nsweep: %s\ncmexp: %s", final.Output, want)
	}
}
