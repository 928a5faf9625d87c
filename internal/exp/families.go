package exp

import (
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/store"
	"repro/internal/trace"
)

// The experiment catalogue: which names exist, how the grouping aliases
// expand, and which TableSpecs a name builds. Sweep.Plan resolves every
// front end's names through it.

// Table5DefaultMaxSize is the largest FFT array edge of the canonical
// table5 sweep (cmexp -maxsize overrides it).
const Table5DefaultMaxSize = 2048

// Table5DefaultSizes are the processor counts of the canonical table5
// sweep (cmexp -procs overrides them).
var Table5DefaultSizes = []int{32, 256}

// FamilyNames returns every sweepable experiment family in canonical
// print order. The static "schedules" listing and the "all"/"ablations"
// aliases are not families; ExpandFamilies handles them.
func FamilyNames() []string {
	return append([]string{
		"fig5", "fig6", "fig7", "fig8", "table5", "fig10", "fig11",
		"table11", "table12", "scenarios", "collectives", "topology", "faults",
		"apps",
	}, AblationFamilyNames()...)
}

// AblationFamilyNames returns the families the "ablations" alias
// expands to.
func AblationFamilyNames() []string {
	return []string{
		"ablation-async", "ablation-fattree", "ablation-greedy",
		"ablation-crossover", "ablation-crystal",
	}
}

// ExpandFamilies expands the grouping aliases ("all" = schedules plus
// every family, "ablations" = the ablation families) and deduplicates,
// preserving the canonical print order. Unknown names are rejected with
// an error listing every known name; "schedules" passes through (it is
// a valid cmexp argument even though it builds no TableSpec).
func ExpandFamilies(args []string) ([]string, error) {
	known := map[string]bool{"schedules": true}
	for _, n := range FamilyNames() {
		known[n] = true
	}
	var names []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, arg := range args {
		switch arg {
		case "all":
			add("schedules")
			for _, n := range FamilyNames() {
				add(n)
			}
		case "ablations":
			for _, n := range AblationFamilyNames() {
				add(n)
			}
		default:
			if !known[arg] {
				return nil, fmt.Errorf("unknown experiment %q (known: schedules %s ablations all)",
					arg, strings.Join(FamilyNames(), " "))
			}
			add(arg)
		}
	}
	return names, nil
}

// FamilySpecsStore builds the TableSpecs of one experiment family in
// its canonical shape (table5 at both default processor counts). The
// static "schedules" listing builds no spec and is rejected here; so is
// any unknown name, with the same error text ExpandFamilies uses. The
// result store backend is threaded through to the families that
// persist more than cell records — the apps family's trace library
// records into it, so recorded application traces survive across
// processes (and, with an HTTP backend, are shared by every worker of
// a distributed sweep). A nil backend degrades gracefully (traces are
// memoized for the sweep and re-recorded next process).
func FamilySpecsStore(name string, cfg network.Config, st store.Backend) ([]*TableSpec, error) {
	switch name {
	case "fig5":
		return []*TableSpec{Fig5Spec(cfg)}, nil
	case "fig6":
		return []*TableSpec{Fig6Spec(cfg)}, nil
	case "fig7":
		return []*TableSpec{Fig7Spec(cfg)}, nil
	case "fig8":
		return []*TableSpec{Fig8Spec(cfg)}, nil
	case "fig10":
		return []*TableSpec{Fig10Spec(cfg)}, nil
	case "fig11":
		return []*TableSpec{Fig11Spec(cfg)}, nil
	case "table5":
		var specs []*TableSpec
		for _, n := range Table5DefaultSizes {
			specs = append(specs, Table5Spec(n, Table5DefaultMaxSize, cfg))
		}
		return specs, nil
	case "table11":
		return []*TableSpec{Table11Spec(cfg)}, nil
	case "table12":
		spec, _, err := Table12Spec(cfg)
		if err != nil {
			return nil, err
		}
		return []*TableSpec{spec}, nil
	case "scenarios":
		return []*TableSpec{ScenariosSpec(cfg), ScenarioStatsSpec(cfg)}, nil
	case "collectives":
		return []*TableSpec{CollectivesSpec(cfg)}, nil
	case "topology":
		return TopologySpecs(cfg), nil
	case "faults":
		spec, err := FaultsSpec(cfg)
		if err != nil {
			return nil, err
		}
		return []*TableSpec{spec}, nil
	case "apps":
		return AppsSpecs(cfg, trace.NewLibrary(st))
	case "ablation-async":
		return []*TableSpec{AblationAsyncSpec(cfg)}, nil
	case "ablation-fattree":
		return []*TableSpec{AblationFatTreeSpec(cfg)}, nil
	case "ablation-greedy":
		return []*TableSpec{AblationGreedySpec(cfg)}, nil
	case "ablation-crossover":
		return []*TableSpec{AblationCrossoverSpec(cfg)}, nil
	case "ablation-crystal":
		return []*TableSpec{AblationCrystalSpec(cfg)}, nil
	case "schedules":
		return nil, fmt.Errorf("experiment %q is a static listing, not a sweepable family", name)
	}
	return nil, fmt.Errorf("unknown experiment %q (known: schedules %s ablations all)",
		name, strings.Join(FamilyNames(), " "))
}
