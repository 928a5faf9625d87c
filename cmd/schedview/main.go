// Command schedview prints communication schedules in the style of the
// paper's Tables 1-4 (regular algorithms) and 7-10 (irregular schedulers
// on a pattern), planned through the cm5 algorithm registry.
//
// Usage:
//
//	schedview -alg pex -n 8              # regular: lex pex rex bex
//	schedview -alg shift -n 8 -offset 3  # circular shift
//	schedview -alg gs -pattern P         # irregular on the paper's P
//	schedview -alg ps -n 16 -density 0.4 # irregular on a synthetic pattern
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/cm5"
	"repro/internal/network"
	"repro/internal/topo"
)

func main() {
	alg := flag.String("alg", "pex", "schedule-backed algorithm: lex|pex|rex|bex|shift regular, or ls|ps|bs|gs|gsr irregular")
	n := flag.Int("n", 8, "processor count (power of two)")
	patName := flag.String("pattern", "", "irregular pattern: 'P' for the paper's Table 6 example")
	density := flag.Float64("density", 0.5, "density for synthetic irregular patterns")
	bytes := flag.Int("bytes", 1, "bytes per message")
	offset := flag.Int("offset", 1, "offset for the shift schedule")
	seed := flag.Int64("seed", 1, "seed for synthetic patterns and the gsr tie-break")
	global := flag.Bool("global", false, "also print per-step top-of-tree crossing counts")
	flag.Parse()

	s, p, err := build(*alg, *n, *patName, *density, *bytes, *offset, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedview:", err)
		os.Exit(1)
	}
	if p != nil {
		fmt.Printf("Pattern (%d processors, %d messages, %.0f%% density):\n%s\n",
			p.N(), p.Messages(), 100*p.Density(), p)
	}
	fmt.Printf("%s schedule, %d steps, %d messages, %d bytes total:\n\n%s\n",
		s.Algorithm, s.NumSteps(), s.Messages(), s.TotalBytes(), s.Table())
	if *global {
		tree, err := topo.NewFatTree(s.N, network.DefaultConfig().TopologyRates())
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedview:", err)
			os.Exit(1)
		}
		fmt.Printf("top-of-tree crossings per step: %v\n", s.GlobalExchangesPerStep(tree))
	}
}

func build(alg string, n int, patName string, density float64, bytes, offset int, seed int64) (*cm5.Schedule, cm5.Pattern, error) {
	a, err := cm5.LookupAlgorithm(alg)
	if err != nil {
		return nil, nil, err
	}
	if a.Kind() != cm5.KindIrregular {
		s, err := cm5.Plan(cm5.NewJob(a, n, bytes, cm5.WithOffset(offset)))
		return s, nil, err
	}
	var p cm5.Pattern
	switch {
	case strings.EqualFold(patName, "P"):
		p = cm5.PaperPatternP(bytes)
	case patName == "":
		p = cm5.SyntheticPattern(n, density, bytes, seed)
	default:
		return nil, nil, fmt.Errorf("unknown pattern %q (use 'P' or empty for synthetic)", patName)
	}
	s, err := cm5.Plan(cm5.PatternJob(a, p, cm5.WithSeed(seed)))
	return s, p, err
}
