// Command cmtrace runs one job with message tracing enabled and
// reports where the time went: per-node rendezvous waiting, per-step
// completion times, and per-level fat-tree utilization. This is the
// diagnostic view behind the paper's scheduling arguments — LEX's wait
// explosion and PEX's bursty use of the thinned upper tree are
// directly visible.
//
// Usage:
//
//	cmtrace -alg lex -n 32 -bytes 256
//	cmtrace -alg gs -n 32 -density 0.25 -bytes 256
//	cmtrace -alg gs -n 64 -pattern hotspot -nodes
//	cmtrace -alg bex -n 32 -bytes 1024 -steps
//	cmtrace -alg bs -n 64 -pattern bisection -topo dragonfly -links
//	cmtrace -spec job.json -links
//	cmtrace -plan -alg gs -n 16 -density 0.4
//	cmtrace -record cg -n 16 -out cg16.trace
//	cmtrace -replay cg16.trace -alg bs -nodes
//	cmtrace -replay euler -n 8 -alg gs
//
// The job is one cm5.Spec, as cmserve's jobs are: -spec FILE|- reads
// its JSON, otherwise the job flags (-alg -n -bytes -density -seed
// -pattern -topo -offset -replay -size) fill it; the two exclude each
// other. -alg accepts any registered algorithm name: exchanges and
// broadcasts take -n and -bytes, the irregular schedulers a catalogue
// workload (-pattern) or a synthetic pattern (-density), and the
// collectives -bytes per block. -topo runs the data network over any
// named topology from cm5.Topologies instead of the CM-5 fat tree.
//
// -steps appends the per-step completion table (schedule-backed
// algorithms only); -nodes appends the per-node rendezvous wait table;
// -links appends the busiest-links table from Result.LinkUtilization.
//
// -plan prints the job's schedule instead of running it: the pattern
// (irregular algorithms), the schedule as `cmexp schedules` prints the
// paper's Tables 1-4 and 7-10, and the per-step count of pairs crossing
// the top of the fat tree (Section 3.4).
//
// -record APP runs one of the bundled applications (cg, fft, euler —
// see cm5.Traces) for real on -n simulated nodes and writes its
// recorded communication as a canonical trace file (-out FILE, default
// stdout) instead of tracing a scheduler. -replay FILE|APP loads a
// trace file (or records the named app on the fly) and replays its
// collapsed traffic matrix as the workload of an irregular -alg — the
// same diagnostic report, driven by a real application's communication.
//
// -timeline FILE additionally records the run's sim-time timeline —
// message rendezvous waits and wire transfers, flow lifetimes,
// scheduler steps and phases, fault events — and writes it as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing. Sim time
// is deterministic, so the file is byte-identical across runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"repro/cm5"
	"repro/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cmtrace:", err)
		os.Exit(1)
	}
}

// jobFlags only fill the job's Spec, so -spec excludes them.
var jobFlags = []string{"alg", "n", "bytes", "density", "seed", "pattern", "topo", "offset", "replay", "size"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cmtrace", flag.ContinueOnError)
	alg := fs.String("alg", "pex", "any registered algorithm (lex|pex|rex|bex, lib|reb|sys, ls|ps|bs|gs, collectives)")
	n := fs.Int("n", 32, "processor count (power of two)")
	bytes := fs.Int("bytes", 256, "bytes per message")
	density := fs.Float64("density", 0.5, "density for irregular patterns")
	offset := fs.Int("offset", 1, "offset for the shift algorithm")
	seed := fs.Int64("seed", 1, "seed for patterns, the GSR tie-break and trace recordings")
	workload := fs.String("pattern", "", "catalogue workload for the irregular schedulers "+
		"(transpose|butterfly|hotspot|permutation|stencil2d|stencil3d|bisection); empty or synthetic = a random pattern of -density")
	topoName := fs.String("topo", "", "data-network topology "+
		"(fat-tree|tapered|torus2d|torus3d|hypercube|dragonfly); empty = the CM-5 fat tree")
	specFile := fs.String("spec", "", "read the job as one JSON spec (cmserve's job form) from this file, - = stdin; "+
		"excludes the job flags")
	plan := fs.Bool("plan", false, "print the job's schedule and its top-of-tree crossings instead of running it")
	perStep := fs.Bool("steps", false, "print the per-step completion table")
	perNode := fs.Bool("nodes", false, "print the per-node wait table")
	perLink := fs.Bool("links", false, "print the busiest-links table")
	record := fs.String("record", "", "record a bundled application's communication as a trace "+
		"(cg|fft|euler) instead of tracing a scheduler; see -out, -size")
	replay := fs.String("replay", "", "replay a trace file (or record the named app on the fly) "+
		"as the workload of an irregular -alg")
	size := fs.Int("size", 0, "problem size for -record/-replay recordings (0 = the app's default)")
	outFile := fs.String("out", "", "write the -record trace to this file (default: stdout)")
	timelineFile := fs.String("timeline", "", "write the run's sim-time timeline as Chrome trace-event JSON to this file (open in Perfetto)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record != "" {
		if *replay != "" || *specFile != "" {
			return fmt.Errorf("-record cannot be combined with -replay or -spec")
		}
		return recordTrace(out, *record, *size, *n, *seed, *outFile)
	}

	var spec cm5.Spec
	traces := cm5.RecordTrace
	if *specFile != "" {
		var err error
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(jobFlags, f.Name) {
				err = fmt.Errorf("-spec excludes the job flag -%s", f.Name)
			}
		})
		if err == nil {
			spec, err = readSpec(*specFile)
		}
		if err != nil {
			return err
		}
	} else {
		spec = cm5.Spec{Algorithm: *alg, N: *n, Bytes: *bytes, Seed: *seed, Topology: *topoName, Offset: *offset}
		a, _ := cm5.LookupAlgorithm(*alg) // a miss is Validate's to report
		switch {
		case *replay != "":
			// An existing file is a recorded trace; anything else names a
			// bundled app to record on the fly.
			spec.Bytes, spec.Trace, spec.TraceSize = 0, *replay, *size
			if data, err := os.ReadFile(*replay); err == nil {
				tr, err := cm5.DecodeTrace(data)
				if err != nil {
					return fmt.Errorf("%s: %w", *replay, err)
				}
				spec.Trace, spec.TraceSize, spec.N = tr.App, tr.Size, tr.Procs
				traces = func(string, int, int, int64, cm5.Config) (*cm5.AppTrace, error) { return tr, nil }
			}
		case a.Kind() != cm5.KindIrregular:
		case *workload == "" || *workload == cm5.SyntheticWorkload:
			spec.Workload, spec.Density = cm5.SyntheticWorkload, *density
		default:
			spec.Workload = *workload
		}
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	cfg := cm5.DefaultConfig()
	job, err := spec.Job(cfg, func(app string, size, n int, seed int64, cfg cm5.Config) (*cm5.AppTrace, error) {
		tr, err := traces(app, size, n, seed, cfg)
		if err == nil {
			fmt.Fprintf(out, "replaying %s trace: size %d, %d nodes, seed %d, %d recorded events, %d bytes\n",
				tr.App, tr.Size, tr.Procs, tr.Seed, len(tr.Events), tr.TotalBytes())
		}
		return tr, err
	})
	if err != nil {
		return err
	}
	if *plan {
		return printPlan(out, job, cfg)
	}

	job = job.With(cm5.WithTrace())
	if *timelineFile != "" {
		job = job.With(cm5.WithTimeline(nil))
	}

	res, err := cm5.Run(job)
	if err != nil {
		return err
	}

	if *timelineFile != "" {
		if err := res.Timeline.WriteFile(*timelineFile); err != nil {
			return err
		}
		spans, instants := res.Timeline.Len()
		fmt.Fprintf(out, "timeline: %d spans, %d instants -> %s\n", spans, instants, *timelineFile)
	}

	fmt.Fprintf(out, "%s on %d nodes: %d steps, %d messages, makespan %.3f ms\n",
		res.Algorithm.Name(), spec.N, res.Steps, len(res.Trace.Events), res.Elapsed.Millis())
	fmt.Fprintf(out, "total rendezvous wait: %.3f ms (%.1f ms per node average)\n",
		res.Trace.TotalWait().Millis(), res.Trace.TotalWait().Millis()/float64(spec.N))

	topoLabel := "fat-tree"
	if tp := job.Topology(); tp != nil {
		topoLabel = tp.Name()
	}
	printLevelUtilization(out, res, topoLabel)
	if *perStep {
		printStepTimes(out, res)
	}
	if *perLink {
		printLinkUtilization(out, res)
	}
	if *perNode {
		fmt.Fprintln(out)
		fmt.Fprint(out, res.Trace.Summary(spec.N))
	}
	return nil
}

// readSpec implements -spec: one JSON spec from a file, or from stdin
// for "-".
func readSpec(path string) (cm5.Spec, error) {
	f := os.Stdin
	if path != "-" {
		var err error
		if f, err = os.Open(path); err != nil {
			return cm5.Spec{}, err
		}
		defer f.Close()
	}
	spec, err := cm5.DecodeSpec(f)
	if err != nil {
		return cm5.Spec{}, fmt.Errorf("bad job spec %s: %w", path, err)
	}
	return spec, nil
}

// printPlan implements -plan: the pattern an irregular job schedules,
// the schedule itself, and its per-step top-of-tree crossings.
func printPlan(out io.Writer, job cm5.Job, cfg cm5.Config) error {
	s, err := cm5.Plan(job)
	if err != nil {
		return err
	}
	if p := job.Pattern(); p != nil {
		fmt.Fprintf(out, "Pattern (%d processors, %d messages, %.0f%% density):\n%s\n",
			p.N(), p.Messages(), 100*p.Density(), p)
	}
	fmt.Fprint(out, s.Listing())
	tree, err := topo.NewFatTree(s.N, cfg.TopologyRates())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "top-of-tree crossings per step: %v\n", s.GlobalExchangesPerStep(tree))
	return nil
}

// recordTrace implements -record: run the application, write the
// canonical trace (stdout when outFile is empty), report where it went.
func recordTrace(out io.Writer, app string, size, nprocs int, seed int64, outFile string) error {
	tr, err := cm5.RecordTrace(app, size, nprocs, seed, cm5.DefaultConfig())
	if err != nil {
		return err
	}
	data, err := tr.Encode()
	if err != nil {
		return err
	}
	if outFile == "" {
		_, err := out.Write(data)
		return err
	}
	if err := os.WriteFile(outFile, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %s: size %d, %d nodes, seed %d -> %s (%d events, %d bytes, span %.3f ms)\n",
		tr.App, tr.Size, tr.Procs, tr.Seed, outFile, len(tr.Events), tr.TotalBytes(), tr.Span().Millis())
	return nil
}

// printLevelUtilization renders Result.LevelUtilization as the
// per-level topology table.
func printLevelUtilization(out io.Writer, res cm5.Result, topoLabel string) {
	var levels []int
	for l := range res.LevelUtilization {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	fmt.Fprintf(out, "\n%s utilization by level (fraction of level capacity x makespan):\n", topoLabel)
	for _, l := range levels {
		name := fmt.Sprintf("level %d", l)
		if l == 0 {
			name = "node links"
		}
		fmt.Fprintf(out, "  %-10s  %5.1f%%\n", name, 100*res.LevelUtilization[l])
	}
}

// maxLinkRows bounds the -links table to the busiest links.
const maxLinkRows = 12

// printLinkUtilization renders the busiest entries of
// Result.LinkUtilization: which individual links the run leaned on.
func printLinkUtilization(out io.Writer, res cm5.Result) {
	links := append([]cm5.LinkUtil(nil), res.LinkUtilization...)
	sort.SliceStable(links, func(i, j int) bool { return links[i].Carried > links[j].Carried })
	shown := len(links)
	if shown > maxLinkRows {
		shown = maxLinkRows
	}
	fmt.Fprintf(out, "\nbusiest links (%d of %d that carried traffic):\n", shown, len(links))
	fmt.Fprintf(out, "  %-16s  %5s  %12s  %5s\n", "link", "level", "wire bytes", "util")
	for _, l := range links[:shown] {
		fmt.Fprintf(out, "  %-16s  %5d  %12.0f  %4.1f%%\n", l.Name, l.Level, l.Carried, 100*l.Utilization)
	}
}

// printStepTimes renders Result.StepTimes: when the last node finished
// each step, and the increment over the previous step.
func printStepTimes(out io.Writer, res cm5.Result) {
	if len(res.StepTimes) == 0 {
		fmt.Fprintln(out, "\nno per-step times: program-backed algorithm with no static schedule")
		return
	}
	fmt.Fprintln(out, "\nstep completion times:")
	fmt.Fprintf(out, "  %4s  %12s  %12s\n", "step", "done at", "step cost")
	prev := cm5.Duration(0)
	for i, at := range res.StepTimes {
		fmt.Fprintf(out, "  %4d  %9.3f ms  %9.3f ms\n", i+1, at.Millis(), (at - prev).Millis())
		prev = at
	}
}
