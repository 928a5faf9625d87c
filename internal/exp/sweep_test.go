package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/network"
)

// TestSweepPlanSchedulesAndOverride: the static listing is rendered
// only under text, ahead of the tables; an override replaces a
// family's canonical specs; Selected counts the filtered cells.
func TestSweepPlanSchedulesAndOverride(t *testing.T) {
	cfg := network.DefaultConfig()
	for _, format := range []string{"text", "json"} {
		plan, err := Sweep{Experiments: []string{"schedules"}, Format: format}.Plan(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := plan.Run(context.Background(), NewRunner(1), &out); err != nil {
			t.Fatal(err)
		}
		listed := strings.HasPrefix(out.String(), ScheduleTables()+"\n")
		if listed != (format == "text") {
			t.Errorf("format %s: listing printed = %v", format, listed)
		}
	}

	small := Table5Spec(32, 128, cfg)
	plan, err := Sweep{Experiments: []string{"table5", "fig5"}, Run: "^fig5/PEX/"}.Plan(cfg, nil,
		func(name string) []*TableSpec {
			if name == "table5" {
				return []*TableSpec{small}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Specs) != 2 || plan.Specs[0] != small || plan.Specs[1].Name != "fig5" {
		t.Fatalf("planned specs %v, want the override then fig5", plan.Specs)
	}
	want := 0
	for _, c := range plan.Specs[1].Cells {
		if strings.HasPrefix(c.Key, "fig5/PEX/") {
			want++
		}
	}
	if want == 0 || plan.Selected != want {
		t.Fatalf("Selected = %d, want %d", plan.Selected, want)
	}
}
