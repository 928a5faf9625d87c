package exp

import (
	"testing"

	"repro/internal/network"
	"repro/internal/store"
	"repro/internal/trace"
)

func TestAppsDeterministicAcrossPoolWidths(t *testing.T) {
	cfg := network.DefaultConfig()
	filter := ""
	if testing.Short() {
		filter = "/P8$"
	}
	// Each build gets its own memo-only library: determinism must not
	// depend on two runs sharing recordings.
	build := func() []*TableSpec {
		specs, err := AppsSpecs(cfg, trace.NewLibrary(nil))
		if err != nil {
			t.Fatal(err)
		}
		return specs
	}
	serial := renderWith(t, 1, filter, build)
	wide := renderWith(t, 8, filter, build)
	if serial != wide {
		t.Fatal("apps tables differ between 1 and 8 workers")
	}
	if serial == "" {
		t.Fatal("empty render")
	}
}

func TestAppsCoverage(t *testing.T) {
	specs, err := AppsSpecs(network.DefaultConfig(), trace.NewLibrary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(AppsProcs)+1 {
		t.Fatalf("%d table specs, want one per processor count plus stats", len(specs))
	}
	apps := len(trace.Apps())
	for i, n := range AppsProcs {
		spec := specs[i]
		if spec.Name != "apps" {
			t.Fatalf("spec %d name %q", i, spec.Name)
		}
		want := apps * len(AppsTopologies) * len(AppsSchedulers)
		if len(spec.Cells) != want {
			t.Fatalf("P=%d: %d cells, want %d", n, len(spec.Cells), want)
		}
	}
	stats := specs[len(specs)-1]
	if stats.Name != "apps-stats" {
		t.Fatalf("last spec name %q, want apps-stats", stats.Name)
	}
	if len(stats.Cells) != apps*len(AppsProcs) {
		t.Fatalf("stats: %d cells, want %d", len(stats.Cells), apps*len(AppsProcs))
	}
	found := false
	for _, name := range FamilyNames() {
		if name == "apps" {
			found = true
		}
	}
	if !found {
		t.Fatalf("apps missing from FamilyNames %v", FamilyNames())
	}
	// Every cell carries its trace's input hash and the format version,
	// so cells replaying different recordings can never collide in the
	// store — and a format bump invalidates them all.
	for _, spec := range specs {
		for _, c := range spec.Cells {
			if c.Spec["trace"] == nil || c.Spec["trace"] == "" {
				t.Fatalf("cell %s has no trace hash in its spec", c.Key)
			}
			if c.Spec["trace_version"] != trace.TraceVersion {
				t.Fatalf("cell %s does not pin the trace version", c.Key)
			}
		}
	}
}

// TestAppsKeyFields: an apps cell is addressed by its key plus the
// recording it replays and the trace format version.
func TestAppsKeyFields(t *testing.T) {
	assertCellSpecKeys(t, "apps", "apps/cg/hypercube/BS/P16", "trace", "trace_version")
}

// TestAppsTracesAddressTheStore: two cells with the same key but
// replaying different recordings (a different trace hash, or the same
// trace under a bumped format version) must hash to different store
// addresses.
func TestAppsTracesAddressTheStore(t *testing.T) {
	r := &Runner{StoreBase: StoreBase(network.DefaultConfig())}
	spec := &TableSpec{Name: "apps"}
	hash := func(extra store.Spec) string {
		return cellHash(t, r, spec, Cell{Key: "apps/cg/hypercube/BS/P16", Spec: extra})
	}
	a := hash(store.Spec{"trace": "aaaa", "trace_version": trace.TraceVersion})
	b := hash(store.Spec{"trace": "bbbb", "trace_version": trace.TraceVersion})
	v := hash(store.Spec{"trace": "aaaa", "trace_version": trace.TraceVersion + 1})
	if a == b {
		t.Fatal("different trace hashes address the same store record")
	}
	if a == v {
		t.Fatal("a trace-version bump does not change the store address")
	}
}
