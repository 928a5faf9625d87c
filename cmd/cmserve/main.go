// Command cmserve is the experiment-as-a-service daemon: a
// long-running HTTP server where clients POST a job specification —
// algorithm, workload, topology, machine size, seed — and receive the
// full simulated Result. Results are served straight from the
// content-addressed result store on a hash hit; misses simulate with
// single-flight coalescing, so any thundering herd of identical
// requests costs exactly one simulation.
//
// Usage:
//
//	cmserve [flags]
//	cmserve -oneshot spec.json   # run one spec offline, print the payload
//
// Endpoints (see docs/API.md for the full reference):
//
//	POST /v1/jobs          run one job spec, return its Result JSON
//	POST /v1/sweep         run experiment families, stream cells as NDJSON
//	GET  /v1/registry      every listable registry in one uniform shape
//	GET  /v1/registry/{kind}  one registry (algorithms, topologies,
//	                       workloads, faultprofiles, traces)
//	GET  /v1/algorithms    (alias) the typed registry's algorithms
//	GET  /v1/topologies    (alias) the interconnect families
//	GET  /v1/workloads     (alias) the scenario catalogue (+ "synthetic")
//	GET  /v1/traces        (alias) the recordable applications
//	GET  /v1/store/*       the attached store served over HTTP: objects,
//	                       index, and claim leases — point any number of
//	                       `cmexp -workers -store http://this-daemon` at
//	                       it and they share records and partition sweeps
//	GET  /v1/stats         hits, misses, coalesced, in-flight, queue depth
//	GET  /v1/metrics       the same counters (and more) as Prometheus text
//	GET  /healthz          liveness
//
// Flags:
//
//	-addr HOST:PORT  listen address (default :8127)
//	-store LOC       content-addressed result store shared with cmexp: a
//	                 directory (created if missing) or the URL of another
//	                 cmserve whose store this daemon should use (empty =
//	                 serve without a cache). With a directory attached the
//	                 /v1/store API serves it to remote workers.
//	-workers N       concurrent simulations (default: all CPUs)
//	-queue N         admission queue depth beyond the busy workers;
//	                 overflowing requests get 429 (default 64)
//	-timeout D       per-request deadline (default 2m; 0 disables)
//	-pprof HOST:PORT mount net/http/pprof on a separate debug listener
//	                 (empty = off). Kept off the service mux so profiling
//	                 is never exposed on the public address.
//	-oneshot FILE    do not serve: read one job spec (JSON; "-" =
//	                 stdin), run it, print the canonical payload to
//	                 stdout, exit. Byte-identical to the body a running
//	                 server returns for the same spec.
//
// The store directory is shared with cmexp: a sweep warmed by `cmexp
// -store DIR` serves the same cells without re-simulating, and job
// payloads written by the daemon survive restarts. Stop with SIGINT or
// SIGTERM; in-flight requests drain, then the store index is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cm5"
	"repro/internal/network"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8127", "listen address")
		dir       = flag.String("store", "", "content-addressed result store: a directory or a cmserve URL (empty: no cache)")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = all CPUs)")
		queue     = flag.Int("queue", 64, "admission queue depth beyond the busy workers")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request deadline (0 disables)")
		pprofAddr = flag.String("pprof", "", "mount net/http/pprof on this separate debug address (empty: off)")
		oneshot   = flag.String("oneshot", "", "run one job spec from this file (\"-\" = stdin) and exit")
	)
	flag.Parse()
	if err := run(*addr, *dir, *workers, *queue, *timeout, *pprofAddr, *oneshot); err != nil {
		fmt.Fprintf(os.Stderr, "cmserve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, dir string, workers, queue int, timeout time.Duration, pprofAddr, oneshot string) error {
	cfg := network.DefaultConfig()
	if oneshot != "" {
		return runOneshot(oneshot, os.Stdin, os.Stdout, cfg)
	}

	if pprofAddr != "" {
		// The profiler gets its own mux on its own listener: the service
		// address never exposes /debug/pprof, and the debug server's
		// lifetime is simply the process's.
		go func() {
			dbg := http.NewServeMux()
			dbg.HandleFunc("/debug/pprof/", pprof.Index)
			dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
			dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
			fmt.Fprintf(os.Stderr, "cmserve: pprof on http://%s/debug/pprof/\n", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, dbg); err != nil {
				fmt.Fprintf(os.Stderr, "cmserve: pprof listener: %v\n", err)
			}
		}()
	}

	srv, st, err := newServer(cfg, dir, workers, queue, timeout)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		if dir != "" {
			fmt.Fprintf(os.Stderr, "cmserve: listening on %s (store %s, %d records)\n",
				addr, dir, st.Len())
		} else {
			fmt.Fprintf(os.Stderr, "cmserve: listening on %s (no store: every miss simulates)\n", addr)
		}
		errc <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "cmserve: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = hs.Shutdown(sctx)
	if st != nil {
		// Puts only mark the index stale; persist it once, now that the
		// drained server adds no more records.
		if ferr := st.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// newServer opens the store at dir (none when empty) and builds the
// daemon over it.
func newServer(cfg network.Config, dir string, workers, queue int, timeout time.Duration) (*serve.Server, store.Backend, error) {
	var st store.Backend
	if dir != "" {
		var err error
		if st, err = store.OpenBackend(dir); err != nil {
			return nil, nil, err
		}
	}
	opts := []serve.Option{serve.WithQueueDepth(queue), serve.WithTimeout(timeout)}
	if workers > 0 {
		opts = append(opts, serve.WithWorkers(workers))
	}
	return serve.New(cfg, st, opts...), st, nil
}

// runOneshot runs one job spec through the exact serving path —
// validation, hashing, simulation, canonical encoding — without a
// server or a store, and prints the payload bytes a daemon would
// respond with. Path "-" reads the spec from stdin.
func runOneshot(path string, stdin io.Reader, stdout io.Writer, cfg network.Config) error {
	r := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spec, err := cm5.DecodeSpec(r)
	if err != nil {
		return fmt.Errorf("bad job spec: %w", err)
	}
	payload, err := serve.RunOne(serve.JobSpec(spec), cfg)
	if err != nil {
		return err
	}
	_, err = stdout.Write(payload)
	return err
}
