package exp

import (
	"context"
	"fmt"
	"regexp"
	"testing"

	"repro/internal/network"
	"repro/internal/store"
)

func TestFaultsDeterministicAcrossPoolWidths(t *testing.T) {
	cfg := network.DefaultConfig()
	filter := ""
	if testing.Short() {
		filter = "/N16$"
	}
	build := func() []*TableSpec {
		spec, err := FaultsSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return []*TableSpec{spec}
	}
	serial := renderWith(t, 1, filter, build)
	wide := renderWith(t, 8, filter, build)
	if serial != wide {
		t.Fatal("faults tables differ between 1 and 8 workers")
	}
	if serial == "" {
		t.Fatal("empty render")
	}
}

func TestFaultsCoverage(t *testing.T) {
	spec, err := FaultsSpec(network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "faults" {
		t.Fatalf("spec name %q", spec.Name)
	}
	profiles := len(spec.Table.RowHeaders)
	if profiles != 5 {
		t.Fatalf("%d fault profiles, want 5", profiles)
	}
	want := profiles * len(FaultSizes) * len(FaultSchedulers)
	if len(spec.Cells) != want {
		t.Fatalf("%d cells, want %d", len(spec.Cells), want)
	}
	found := false
	for _, name := range FamilyNames() {
		if name == "faults" {
			found = true
		}
	}
	if !found {
		t.Fatalf("faults missing from FamilyNames %v", FamilyNames())
	}
	// Every cell files its fault plan into the content-hash spec, so
	// two cells differing only in their plans can never collide.
	for _, c := range spec.Cells {
		if c.Spec["faults"] == nil {
			t.Fatalf("cell %s has no fault plan in its spec", c.Key)
		}
		if c.Spec["fault_plan_version"] != network.FaultPlanVersion {
			t.Fatalf("cell %s does not pin the fault plan version", c.Key)
		}
	}
}

// TestFaultsKeyFields: a faults cell is addressed by its key plus its
// fault plan and the plan format version.
func TestFaultsKeyFields(t *testing.T) {
	assertCellSpecKeys(t, "faults", "faults/butterfly/hypercube/link-down/AS/N64", "faults", "fault_plan_version")
}

// TestFaultsHealthyMatchesTopologyFamily: the healthy row is the
// family's control — its static-scheduler cells must reproduce the
// topology family's hypercube butterfly cells exactly (same seeded
// pattern, same machine, same solver, and a fault plan that does
// nothing).
func TestFaultsHealthyMatchesTopologyFamily(t *testing.T) {
	cfg := network.DefaultConfig()
	n := 64 // a size both families sweep
	faultSpec, err := FaultsSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topoSpec := TopologySpec(cfg, n)
	r := &Runner{Workers: 4, Filter: regexp.MustCompile(
		fmt.Sprintf(`^faults/butterfly/hypercube/healthy/.*/N%d$|^topology/butterfly/hypercube/`, n))}
	if err := r.Run(context.Background(), faultSpec, topoSpec); err != nil {
		t.Fatal(err)
	}
	// Column bases: faults columns are (size, alg) blocks in FaultSizes
	// order; topology columns are (topo, alg) blocks in TopologyNames
	// order.
	faultBase := -1
	for i, size := range FaultSizes {
		if size == n {
			faultBase = i * len(FaultSchedulers)
		}
	}
	topoBase := -1
	for i, name := range TopologyNames {
		if name == "hypercube" {
			topoBase = i * len(IrregularAlgs)
		}
	}
	topoRow := -1
	for i, w := range topoSpec.Table.RowHeaders {
		if w == "butterfly" {
			topoRow = i
		}
	}
	if faultBase < 0 || topoBase < 0 || topoRow < 0 {
		t.Fatalf("axes not found: faultBase=%d topoBase=%d topoRow=%d", faultBase, topoBase, topoRow)
	}
	for a, alg := range IrregularAlgs { // AS has no topology-family counterpart
		got := faultSpec.Table.Cells[0][faultBase+a] // row 0: healthy
		want := topoSpec.Table.Cells[topoRow][topoBase+a]
		if got != want || got == "" {
			t.Errorf("healthy %s at N=%d: faults %q != topology %q", alg, n, got, want)
		}
	}
}

// TestFaultsPlansAddressTheStore: two cells with the same key but
// carrying different fault plans must hash to different store
// addresses.
func TestFaultsPlansAddressTheStore(t *testing.T) {
	r := &Runner{StoreBase: StoreBase(network.DefaultConfig())}
	spec := &TableSpec{Name: "faults"}
	hash := func(extra store.Spec) string {
		return cellHash(t, r, spec, Cell{Key: "faults/butterfly/hypercube/link-down/AS/N64", Spec: extra})
	}
	planA := network.NewHealthyPlan()
	planB := network.NewHealthyPlan()
	planB.Events = append(planB.Events, network.FaultEvent{Kind: network.FaultStraggler, Node: 1, Factor: 2})
	a := hash(store.Spec{"faults": planA, "fault_plan_version": network.FaultPlanVersion})
	b := hash(store.Spec{"faults": planB, "fault_plan_version": network.FaultPlanVersion})
	if a == b {
		t.Fatal("different fault plans hash to the same store address")
	}
}

// TestFaultsAdaptiveBeatsStaticUnderLinkDown holds the family to the
// tentpole's acceptance bar, through the real experiment cells: under
// the link-down profile the adaptive scheduler finishes ahead of the
// static LS and BS at every swept size.
func TestFaultsAdaptiveBeatsStaticUnderLinkDown(t *testing.T) {
	cfg := network.DefaultConfig()
	sizes := FaultSizes
	if testing.Short() {
		sizes = []int{64}
	}
	spec, err := FaultsSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 4, Filter: regexp.MustCompile(`/link-down/(LS|BS|AS)/`)}
	if err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	for _, n := range sizes {
		key := func(alg string) string {
			return fmt.Sprintf("faults/%s/%s/link-down/%s/N%d", FaultWorkload, FaultTopology, alg, n)
		}
		as := spec.CellFloat(key("AS"), "elapsed_ms")
		if as <= 0 {
			t.Fatalf("AS cell at N=%d did not record elapsed_ms", n)
		}
		for _, static := range []string{"LS", "BS"} {
			if st := spec.CellFloat(key(static), "elapsed_ms"); as >= st {
				t.Errorf("N=%d: AS (%.3f ms) not faster than %s (%.3f ms) under link-down",
					n, as, static, st)
			}
		}
	}
}
