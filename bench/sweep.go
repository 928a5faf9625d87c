package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/store"
)

// sweepFamilies are the experiment families sweep-store sweeps: every
// family whose cells are small. fig6-fig8 (N=256 exchanges, seconds per
// cell) and faults are left out so that a cold sweep, which set-up runs
// three times, stays near two seconds.
var (
	sweepFamilies      = []string{"fig5", "fig10", "fig11", "table11", "table12", "scenarios", "topology", "ablations", "apps"}
	sweepFamiliesShort = []string{"fig5", "fig10", "fig11", "table11", "table12"}
)

// familySpecs builds the table specs of families, with st (nil: none)
// behind the apps family's trace library.
func familySpecs(families []string, st store.Backend) ([]*exp.TableSpec, error) {
	names, err := exp.ExpandFamilies(families)
	if err != nil {
		return nil, err
	}
	var specs []*exp.TableSpec
	for _, name := range names {
		ss, err := exp.FamilySpecsStore(name, network.DefaultConfig(), st)
		if err != nil {
			return nil, err
		}
		specs = append(specs, ss...)
	}
	return specs, nil
}

// tablesSHA256 hashes the specs' tables as cmexp renders them.
func tablesSHA256(specs []*exp.TableSpec) (string, error) {
	tables := make([]*exp.Table, len(specs))
	for i, s := range specs {
		tables[i] = s.Table
	}
	h := sha256.New()
	if err := exp.WriteTables(h, exp.FormatText, tables); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sweepInstance is sweep-store after set-up: a disk store filled by one
// cold sweep. Each measured pass invalidates a seeded quarter of the
// cells and sweeps again, so replays from disk run beside re-simulations
// and Puts. One operation is one cell; its latency is the host time of
// its store calls plus, when re-simulated, its simulation.
type sweepInstance struct {
	seed    int64
	dir     string
	st      *timedStore
	specs   []*exp.TableSpec
	runner  *exp.Runner
	keys    []string
	wantSHA string

	mu    sync.Mutex        // guards the fields below, written by the runner's workers
	keyOf map[string]string // record hash -> cell key
	lat   map[string]time.Duration
	gets  int64
	puts  int64
	tr    *tracer
	span  int64 // the current pass's span
}

func setupSweep(cfg *config) (instance, error) {
	families := sweepFamilies
	if cfg.short {
		families = sweepFamiliesShort
	}
	dir, err := os.MkdirTemp(cfg.workDir, "sweep-")
	if err != nil {
		return nil, err
	}
	in := &sweepInstance{seed: cfg.seed, dir: dir, wantSHA: pinsFor(cfg.short).TablesSHA256,
		keyOf: map[string]string{}, lat: map[string]time.Duration{}}
	if in.st, err = openTimedStore(dir); err != nil {
		in.close()
		return nil, err
	}
	if in.specs, err = familySpecs(families, in.st); err != nil {
		in.close()
		return nil, err
	}
	for _, s := range in.specs {
		for i := range s.Cells {
			key, fn := s.Cells[i].Key, s.Cells[i].Fn
			in.keys = append(in.keys, key)
			s.Cells[i].Fn = func(ctx context.Context, seed int64, rec *exp.Rec) error {
				start := time.Now()
				err := fn(ctx, seed, rec)
				in.cellDone(key, start, time.Now())
				return err
			}
		}
	}
	in.runner = exp.NewRunner(nproc)
	in.runner.Store = in.st
	in.runner.StoreBase = exp.StoreBase(network.DefaultConfig())
	in.st.setHook(in.storeOp)
	if err := in.runner.Run(context.Background(), in.specs...); err != nil {
		in.close()
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	if sha, err := tablesSHA256(in.specs); err != nil || sha != in.wantSHA {
		in.close()
		return nil, fmt.Errorf("cold sweep tables sha256 %s differ from pin %s (%v)", sha, in.wantSHA, err)
	}
	in.mu.Lock()
	for _, e := range in.st.Index() {
		in.keyOf[e.Hash] = e.Cell
	}
	in.mu.Unlock()
	return in, nil
}

func (in *sweepInstance) close() { os.RemoveAll(in.dir) }

func (in *sweepInstance) cellDone(key string, start, end time.Time) {
	in.mu.Lock()
	in.lat[key] += end.Sub(start)
	tr, parent := in.tr, in.span
	in.mu.Unlock()
	tr.record(tr.id(), parent, "sim.cell", start, end)
}

func (in *sweepInstance) storeOp(op, hash string, start, end time.Time) {
	in.mu.Lock()
	if key, ok := in.keyOf[hash]; ok {
		in.lat[key] += end.Sub(start)
	}
	switch op {
	case "get":
		in.gets++
	case "put":
		in.puts++
	}
	tr, parent := in.tr, in.span
	in.mu.Unlock()
	tr.record(tr.id(), parent, "store."+op, start, end)
}

func (in *sweepInstance) measure(tr *tracer, seconds float64) *segment {
	seg := &segment{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(pass)))
		var quoted []string
		for _, i := range rng.Perm(len(in.keys))[:len(in.keys)/4] {
			quoted = append(quoted, regexp.QuoteMeta(in.keys[i]))
		}
		re := regexp.MustCompile("^(?:" + strings.Join(quoted, "|") + ")$")
		var reg *obs.Registry
		if tr != nil {
			reg = obs.NewRegistry()
		}
		in.runner.Metrics = reg
		in.mu.Lock()
		in.lat, in.gets, in.puts = map[string]time.Duration{}, 0, 0
		in.tr, in.span = tr, tr.id()
		span := in.span
		in.mu.Unlock()

		p0 := time.Now()
		invalidated, err := in.st.Invalidate(re)
		if err == nil {
			err = in.runner.Run(context.Background(), in.specs...)
		}
		tr.record(span, 0, "exp.pass", p0, time.Now())
		seg.rates = append(seg.rates, float64(len(in.keys))/time.Since(p0).Seconds())

		seg.attempted += len(in.keys)
		seg.ops += len(in.keys)
		sha, shaErr := tablesSHA256(in.specs)
		switch {
		case err != nil:
			seg.failN(len(in.keys), "pass %d: %v", pass, err)
		case shaErr != nil || sha != in.wantSHA:
			seg.failN(len(in.keys), "pass %d: tables sha256 %s differ from pin %s (%v)", pass, sha, in.wantSHA, shaErr)
		case in.runner.CacheMisses() != invalidated || in.runner.CacheHits() != len(in.keys)-invalidated:
			seg.failN(len(in.keys), "pass %d: %d replayed and %d simulated after invalidating %d of %d cells",
				pass, in.runner.CacheHits(), in.runner.CacheMisses(), invalidated, len(in.keys))
		default:
			seg.checked += len(in.keys)
		}

		in.mu.Lock()
		first := len(seg.latMS)
		for _, d := range in.lat {
			seg.latMS = append(seg.latMS, float64(d.Nanoseconds())/1e6)
		}
		seg.p50s = append(seg.p50s, percentile(seg.latMS[first:], 50))
		gets, puts := in.gets, in.puts
		in.tr = nil
		in.mu.Unlock()
		if reg != nil {
			c := readSim(reg)
			if pass == 0 {
				seg.counts.first = c
				seg.counts.cellsSimulated = reg.Counter("exp_cells_simulated_total").Value()
				seg.counts.cellsReplay = reg.Counter("exp_cells_replayed_total").Value()
				seg.counts.gets, seg.counts.puts = gets, puts
			}
			seg.counts.all = seg.counts.all.add(c)
		}
	}
	return seg
}
