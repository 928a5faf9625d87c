package serve

import (
	"context"
	"encoding/json"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/cm5"
	"repro/internal/exp"
	"repro/internal/network"
)

// TestCmexpCellsAreServedJobs: a cmexp cell and the served job of the
// same hand-written spec are one run. For one cell of every family
// whose cells lower through cm5.Spec, the job's elapsed_ms must equal
// the cell's table string byte for byte.
func TestCmexpCellsAreServedJobs(t *testing.T) {
	cases := []struct {
		family, key, row, col, spec string
	}{
		{"fig5", "fig5/BEX/N32/1024B", "1024 B", "BEX",
			`{"algorithm":"BEX","n":32,"bytes":1024}`},
		{"fig10", "fig10/REB/N32/4096B", "4096 B", "REB",
			`{"algorithm":"REB","n":32,"bytes":4096}`},
		{"table11", "table11/GS/25%/512B", "GS", "25%/512B",
			`{"algorithm":"GS","n":32,"bytes":512,"workload":"synthetic","density":0.25,"seed":25512}`},
		{"scenarios", "scenarios/hotspot/LS/N64", "hotspot", "LS@N64",
			`{"algorithm":"LS","n":64,"bytes":256,"workload":"hotspot","seed":64}`},
		{"topology", "topology/butterfly/torus2d/GS/N64", "butterfly", "GS@torus2d",
			`{"algorithm":"GS","n":64,"bytes":256,"workload":"butterfly","topology":"torus2d","seed":64}`},
		{"faults", "faults/butterfly/hypercube/degrade/AS/N64", "degrade", "AS@N64",
			`{"algorithm":"AS","n":64,"bytes":256,"workload":"butterfly","topology":"hypercube","fault_profile":"degrade","seed":64}`},
		{"apps", "apps/fft/hypercube/AS/P8", "fft", "AS@hypercube",
			`{"algorithm":"AS","n":8,"trace":"fft","topology":"hypercube","seed":1}`},
		{"ablation-async", "ablation-async/LEX-async/1024B", "1024 B", "LEX async",
			`{"algorithm":"LEX","n":32,"bytes":1024,"async":true}`},
		{"collectives", "collectives/allreduce/N64/cmmd", "allreduce", "CMMD@N64",
			`{"algorithm":"allreduce","n":64,"bytes":256}`},
	}
	cfg := network.DefaultConfig()
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			js, err := cm5.DecodeSpec(strings.NewReader(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			payload, err := RunOne(JobSpec(js), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var doc JobResult
			if err := json.Unmarshal(payload, &doc); err != nil {
				t.Fatal(err)
			}
			if got, want := doc.Result.ElapsedMS, cellString(t, tc.family, tc.key, tc.row, tc.col); got != want {
				t.Errorf("served %s: elapsed_ms %s, cmexp cell %s = %s", tc.spec, got, tc.key, want)
			}
		})
	}
}

// cellString runs the one cell key of family and returns what it wrote
// at (row, col) of its table.
func cellString(t *testing.T, family, key, row, col string) string {
	t.Helper()
	specs, err := exp.FamilySpecsStore(family, network.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if !slices.ContainsFunc(spec.Cells, func(c exp.Cell) bool { return c.Key == key }) {
			continue
		}
		r := exp.NewRunner(1)
		r.Filter = regexp.MustCompile("^" + regexp.QuoteMeta(key) + "$")
		tab, err := r.RunTable(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ri, ci := slices.Index(tab.RowHeaders, row), slices.Index(tab.ColHeaders, col)
		if ri < 0 || ci < 0 {
			t.Fatalf("%s: no row %q or column %q", tab.Title, row, col)
		}
		return tab.Cells[ri][ci]
	}
	t.Fatalf("family %s has no cell %s", family, key)
	return ""
}
