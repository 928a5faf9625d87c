// Command cmexp regenerates every table and figure of the paper's
// evaluation on the CM-5 simulator.
//
// Usage:
//
//	cmexp [flags] <experiment>...
//
// Experiments: fig5 fig6 fig7 fig8 fig10 fig11 table5 table11 table12
// schedules scenarios collectives topology faults apps ablation-async
// ablation-fattree ablation-greedy ablation-crossover ablation-crystal
// ablations all
//
// Beyond the paper's evaluation, "scenarios" sweeps the workload
// catalogue of internal/pattern (transpose, butterfly, hotspot,
// permutation, stencils, bisection) through all four irregular
// schedulers at several machine sizes plus a per-pattern statistics
// table, "collectives" scales every collective operation to 1024
// nodes both as a direct CMMD node program and as a scheduled matrix,
// "topology" re-runs the workload catalogue under every irregular
// scheduler on each interconnect of internal/topo (fat tree, 2-D
// torus, hypercube, dragonfly) at 64 and 256 nodes, and "faults" runs
// the butterfly workload on the hypercube under every named fault
// profile (healthy, link-down, degrade, straggler, crosstraffic),
// comparing the paper's static schedulers against the adaptive
// scheduler AS, which re-plans mid-run from observed transfer rates.
// Each faults cell's seed-deterministic fault plan is hashed into its
// -store address, so faulty runs cache and replay exactly like healthy
// ones. "apps" records the real communication of the paper's three
// applications (CG, 2-D FFT, unstructured-mesh Euler; internal/trace)
// and replays each recorded trace through LS/PS/BS/GS/AS on the fat
// tree and the hypercube at 8 and 16 processors, plus a per-trace
// statistics table; with -store the recordings themselves persist
// content-addressed, so warm sweeps never rerun the applications.
//
// Flags:
//
//	-procs N      processor count for table5 (default: both 32 and 256)
//	-maxsize S    largest FFT array edge for table5 (default 2048)
//	-parallel N   worker pool size (default 0 = all CPUs)
//	-seed S       perturb the per-cell seeds of stochastic cells
//	              (default 0 = the canonical tables)
//	-run REGEXP   only run cells whose key matches (unselected cells
//	              stay blank in the rendered tables; derived columns
//	              of partially-selected tables stay blank too)
//	-store LOC    content-addressed result store: cells whose full
//	              specification (family, cell, seed, config, code
//	              version) is already stored replay byte-identically
//	              instead of re-simulating; fresh results persist for
//	              the next run. LOC is a directory (created if missing)
//	              or a cmserve URL ("http://host:port") — with a URL the
//	              records live on the daemon and any number of cmexp
//	              processes on any machine share them.
//	-resume       continue an interrupted sweep: like -store LOC, but
//	              the store must already exist (directories must be
//	              present, URLs reachable), and the replayed/simulated
//	              split is reported on stderr. Requires -store.
//	-workers      run as one worker of a fleet sharing -store: before
//	              simulating a cell, lease its content hash through the
//	              backend, so concurrent workers partition the sweep
//	              among themselves with no scheduler. Cells leased by a
//	              live worker are deferred and replayed once stored;
//	              leases of dead workers expire and are stolen, so any
//	              worker's death is survivable — rerun (or just wait for
//	              the fleet) and the sweep completes. Every worker still
//	              renders the complete byte-identical output. Requires
//	              -store.
//	-worker-id S  this worker's lease identity (default
//	              <hostname>-<pid>-<starttime>, unique fleet-wide; if
//	              set, make it unique per live process)
//	-lease-ttl D  how long a claimed cell stays leased (default 1m).
//	              Must comfortably exceed one cell's simulation time;
//	              an expired lease invites a steal and the cell is
//	              computed twice (harmlessly, but wastefully).
//	-invalidate REGEXP
//	              delete stored results whose cell key matches, before
//	              the sweep (with no experiments: invalidate and exit).
//	              Requires -store.
//	-format F     output format: text (aligned tables, default), json
//	              (one schema-versioned document), csv (one record per
//	              cell). The static "schedules" listing is text-only
//	              and is skipped under json/csv.
//	-v            report per-cell progress and wall-clock time on stderr
//	              (cached cells are marked "(store)"), plus a final
//	              replayed/simulated/wall summary from the sweep's
//	              metrics registry
//	-timeline DIR write one Chrome trace-event JSON timeline per
//	              simulated cell into DIR (open in Perfetto or
//	              chrome://tracing); cells replayed from the store are
//	              skipped — they never simulate
//	-cpuprofile F write a CPU profile of the whole sweep to F
//	-memprofile F write a heap profile (taken after the sweep) to F
//
// All experiment cells — one simulation per (figure, algorithm, machine
// size, message size) tuple — are fanned across one worker pool, so a
// full "all" sweep uses every core. Results are deterministic: the
// rendered tables are byte-identical for any -parallel value, and
// byte-identical with the result store cold, warm, or disabled.
//
// The experiments and the -run, -seed and -format flags describe one
// exp.Sweep, the body cmserve's POST /v1/sweep takes, and a served
// sweep's output is byte-identical to cmexp's stdout for it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/cm5"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/store"
)

// options carries every flag so tests can drive run directly.
type options struct {
	procs       int
	maxSize     int
	parallel    int
	seed        int64
	runPat      string
	storeDir    string
	resume      bool
	workers     bool
	workerID    string
	leaseTTL    time.Duration
	invalidate  string
	format      string
	verbose     bool
	timelineDir string
	cpuProfile  string
	memProfile  string
}

func main() {
	var o options
	flag.IntVar(&o.procs, "procs", 0, "processor count for table5 (0 = both 32 and 256)")
	flag.IntVar(&o.maxSize, "maxsize", 2048, "largest FFT array edge for table5")
	flag.IntVar(&o.parallel, "parallel", 0, "worker pool size (0 = all CPUs)")
	flag.Int64Var(&o.seed, "seed", 0, "perturb the per-cell seeds of stochastic cells (0 = canonical tables)")
	flag.StringVar(&o.runPat, "run", "", "only run cells whose key matches this regexp")
	flag.StringVar(&o.storeDir, "store", "", "content-addressed result store: a directory or a cmserve URL (cache hits replay instead of re-simulating)")
	flag.BoolVar(&o.resume, "resume", false, "continue an interrupted sweep from an existing -store (reports the replayed/simulated split)")
	flag.BoolVar(&o.workers, "workers", false, "run as one worker of a fleet sharing -store: lease cells before simulating, steal expired leases of dead workers")
	flag.StringVar(&o.workerID, "worker-id", "", "this worker's lease identity (default <hostname>-<pid>-<starttime>)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", time.Minute, "how long a claimed cell stays leased in -workers mode")
	flag.StringVar(&o.invalidate, "invalidate", "", "delete stored results whose cell key matches this regexp before the sweep (requires -store)")
	flag.StringVar(&o.format, "format", "text", "output format: text, json, or csv")
	flag.BoolVar(&o.verbose, "v", false, "report per-cell progress on stderr")
	flag.StringVar(&o.timelineDir, "timeline", "", "write one Chrome trace-event JSON timeline per simulated cell into this directory")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the sweep to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile (after the sweep) to this file")
	flag.Parse()
	if flag.NArg() == 0 && o.invalidate == "" {
		fmt.Fprintln(os.Stderr, "usage: cmexp [flags] fig5|fig6|fig7|fig8|fig10|fig11|table5|table11|table12|scenarios|collectives|topology|faults|apps|schedules|ablations|all")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Release the signal registration as soon as the first interrupt
	// cancels the sweep: in-flight cells only notice cancellation when
	// they finish, and a second Ctrl-C should kill the process rather
	// than be swallowed.
	go func() {
		<-ctx.Done()
		stop()
	}()

	if err := run(ctx, os.Stdout, os.Stderr, flag.Args(), o); err != nil {
		fmt.Fprintf(os.Stderr, "cmexp: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, stdout, stderr io.Writer, args []string, o options) error {
	cfg := network.DefaultConfig()
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "cmexp: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "cmexp: -memprofile: %v\n", err)
			}
		}()
	}

	// The result store: -resume demands an existing one (resuming from
	// nothing is a misspelled path or a dead daemon, not a fresh sweep),
	// -store creates directories on first use. The location's scheme
	// picks the backend: a plain path is a local disk store, an
	// http(s):// URL is a cmserve-hosted one shared by every process
	// that points at it.
	var (
		st  store.Backend
		err error
	)
	if o.resume && o.storeDir == "" {
		return fmt.Errorf("-resume requires -store LOC (the store the interrupted sweep was writing)")
	}
	if o.workers && o.storeDir == "" {
		return fmt.Errorf("-workers requires -store LOC (the backend the fleet coordinates through)")
	}
	if o.invalidate != "" && o.storeDir == "" {
		return fmt.Errorf("-invalidate requires -store LOC")
	}
	if o.storeDir != "" {
		isURL := strings.HasPrefix(o.storeDir, "http://") || strings.HasPrefix(o.storeDir, "https://")
		if o.resume && !isURL {
			if fi, err := os.Stat(o.storeDir); err != nil || !fi.IsDir() {
				return fmt.Errorf("-resume: store %s does not exist", o.storeDir)
			}
		}
		if st, err = store.OpenBackend(o.storeDir); err != nil {
			return err
		}
		if isURL && o.resume {
			if err := st.(*store.HTTPBackend).Ping(); err != nil {
				return fmt.Errorf("-resume: %w", err)
			}
		}
	}
	// Planning precedes -invalidate, so a bad sweep deletes nothing.
	// Only the -procs/-maxsize reshaping of table5 is cmexp's own.
	var plan *exp.SweepPlan
	if len(args) > 0 {
		sw := exp.Sweep{Experiments: args, Run: o.runPat, Seed: o.seed, Format: o.format}
		plan, err = sw.Plan(cfg, st, func(name string) []*exp.TableSpec {
			if name != "table5" || (o.procs == 0 && o.maxSize == exp.Table5DefaultMaxSize) {
				return nil
			}
			sizes := exp.Table5DefaultSizes
			if o.procs != 0 {
				sizes = []int{o.procs}
			}
			var specs []*exp.TableSpec
			for _, n := range sizes {
				specs = append(specs, exp.Table5Spec(n, o.maxSize, cfg))
			}
			return specs
		})
		if err != nil {
			return err
		}
	}
	if o.invalidate != "" {
		re, err := regexp.Compile(o.invalidate)
		if err != nil {
			return fmt.Errorf("bad -invalidate pattern: %w", err)
		}
		n, err := st.Invalidate(re)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "cmexp: invalidated %d stored cells matching %q\n", n, o.invalidate)
		if plan == nil {
			return nil
		}
	}

	runner := exp.NewRunner(o.parallel)
	runner.TimelineDir = o.timelineDir
	// The registry is cmexp's own sweep bookkeeping: the runner counts
	// replayed and simulated cells (and per-cell wall time) into it, and
	// the -v summary line reads those counters back. Metrics are
	// passive, so the rendered tables stay byte-identical.
	reg := cm5.NewMetricsRegistry()
	runner.Metrics = reg
	if o.workers {
		runner.Lease = &exp.LeaseConfig{Owner: o.workerID, TTL: o.leaseTTL}
	}
	if o.verbose {
		runner.OnProgress = func(p exp.Progress) {
			mark := ""
			if p.Cached {
				mark = " (store)"
			}
			fmt.Fprintf(stderr, "[%d/%d] %s%s\n", p.Done, p.Total, p.Key, mark)
		}
	}

	start := time.Now()
	if err := plan.Run(ctx, runner, stdout); err != nil {
		return err
	}
	if st != nil && (o.resume || o.verbose) {
		fmt.Fprintf(stderr, "cmexp: %d cells replayed from %s, %d simulated\n",
			runner.CacheHits(), o.storeDir, runner.CacheMisses())
	}
	if o.verbose {
		fmt.Fprintf(stderr, "cmexp: %d replayed, %d simulated, %d tables, %d workers, %.2fs wall\n",
			reg.Counter("exp_cells_replayed_total").Value(),
			reg.Counter("exp_cells_simulated_total").Value(),
			len(plan.Specs), runner.Workers, time.Since(start).Seconds())
	}
	return nil
}
