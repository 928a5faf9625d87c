package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/network"
	"repro/internal/store"
)

// TestLegacyListingBytesPinned pins the five historical listing
// endpoints to the exact bytes the pre-collapse handlers served
// (testdata/listing/*.json, captured from the hand-rolled handlers).
// The registry-table collapse must be invisible on the wire.
func TestLegacyListingBytesPinned(t *testing.T) {
	s := New(network.DefaultConfig(), nil)
	h := s.Handler()
	for path, golden := range map[string]string{
		"/v1/algorithms":    "algorithms.json",
		"/v1/topologies":    "topologies.json",
		"/v1/workloads":     "workloads.json",
		"/v1/faultprofiles": "faultprofiles.json",
		"/v1/traces":        "traces.json",
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "listing", golden))
		if err != nil {
			t.Fatal(err)
		}
		w := get(h, path)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		if got := w.Body.String(); got != string(want) {
			t.Errorf("GET %s drifted from the pinned bytes:\ngot:  %s\nwant: %s", path, got, want)
		}
	}
}

// TestTracesListingWithStore covers the store-dependent branch the
// pinned capture (taken storeless) misses: an attached empty store adds
// "recorded":[] and nothing else.
func TestTracesListingWithStore(t *testing.T) {
	s := New(network.DefaultConfig(), testStore(t))
	w := get(s.Handler(), "/v1/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if string(doc["recorded"]) != "[]" {
		t.Fatalf("recorded = %s, want []", doc["recorded"])
	}
}

// getCounter is a store backend that counts record reads. Its All
// reads through Get, one call per indexed record, the way
// store.HTTPBackend does, so a listing built on All shows up.
type getCounter struct {
	store.Backend
	gets atomic.Int64
}

func (c *getCounter) Get(hash string) (*store.Record, bool, error) {
	c.gets.Add(1)
	return c.Backend.Get(hash)
}

func (c *getCounter) All() ([]*store.Record, error) {
	var recs []*store.Record
	for _, e := range c.Index() {
		rec, ok, err := c.Get(e.Hash)
		if err != nil {
			return nil, err
		}
		if ok {
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

// TestTracesListingReadsNoPayloads: the recordings a store holds are
// listed from its index alone — every trace record appears, in (cell,
// hash) order, other families do not, and no record is read.
func TestTracesListingReadsNoPayloads(t *testing.T) {
	st := testStore(t)
	for _, r := range []struct{ family, cell string }{
		{"trace", "trace/fft/P16"}, {"fig5", "fig5/PEX/N32/0B"}, {"trace", "trace/cg/P8"},
	} {
		rec, err := store.NewRecord(r.family, r.cell, store.Spec{"cell": r.cell})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	counted := &getCounter{Backend: st}
	w := get(New(network.DefaultConfig(), counted).Handler(), "/v1/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var doc struct {
		Recorded []struct{ Cell, Hash string } `json:"recorded"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Recorded) != 2 || doc.Recorded[0].Cell != "trace/cg/P8" || doc.Recorded[1].Cell != "trace/fft/P16" {
		t.Fatalf("recorded = %+v, want trace/cg/P8 then trace/fft/P16", doc.Recorded)
	}
	for _, r := range doc.Recorded {
		if !store.ValidHash(r.Hash) {
			t.Fatalf("recorded %s has hash %q", r.Cell, r.Hash)
		}
	}
	if n := counted.gets.Load(); n != 0 {
		t.Fatalf("listing read %d records, want 0 (the index names them)", n)
	}
}

// TestRegistryUniformShape exercises the collapsed endpoints: every
// registry appears under /v1/registry with the shared (name, kind, doc)
// row shape, and /v1/registry/{kind} serves the same rows one registry
// at a time.
func TestRegistryUniformShape(t *testing.T) {
	s := New(network.DefaultConfig(), nil)
	h := s.Handler()

	w := get(h, "/v1/registry")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/registry: status %d", w.Code)
	}
	var all struct {
		Registry []struct {
			Kind    string         `json:"kind"`
			Entries []listingEntry `json:"entries"`
		} `json:"registry"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	wantKinds := []string{"algorithms", "topologies", "workloads", "faultprofiles", "traces"}
	if len(all.Registry) != len(wantKinds) {
		t.Fatalf("registry lists %d groups, want %d", len(all.Registry), len(wantKinds))
	}
	for i, g := range all.Registry {
		if g.Kind != wantKinds[i] {
			t.Errorf("group %d = %q, want %q", i, g.Kind, wantKinds[i])
		}
		if len(g.Entries) == 0 {
			t.Errorf("registry %q is empty", g.Kind)
		}
		for _, e := range g.Entries {
			if e.Name == "" || e.Doc == "" {
				t.Errorf("registry %q row %+v missing name or doc", g.Kind, e)
			}
			if (g.Kind == "algorithms") != (e.Kind != "") {
				t.Errorf("registry %q row %q kind = %q; only algorithms carry a subtype", g.Kind, e.Name, e.Kind)
			}
		}
	}

	// Per-kind view serves the same rows.
	for _, kind := range wantKinds {
		w := get(h, "/v1/registry/"+kind)
		if w.Code != http.StatusOK {
			t.Fatalf("GET /v1/registry/%s: status %d", kind, w.Code)
		}
		var one struct {
			Kind    string         `json:"kind"`
			Entries []listingEntry `json:"entries"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &one); err != nil {
			t.Fatal(err)
		}
		if one.Kind != kind || len(one.Entries) == 0 {
			t.Errorf("/v1/registry/%s = kind %q with %d entries", kind, one.Kind, len(one.Entries))
		}
	}

	if w := get(h, "/v1/registry/nonsense"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown registry kind: status %d, want 404", w.Code)
	}
}
