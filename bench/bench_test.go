package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/cm5"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/pins_seed1*.json from the current code")

func shortConfig(t *testing.T, seed int64, trace bool) *config {
	dir := t.TempDir()
	return &config{seed: seed, seconds: 0.3, short: true, trace: trace, workDir: dir, traceDir: dir}
}

// benchmarkSpec is the part of BENCHMARK.json the metrics must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsShort runs every workload at test scale, untraced and
// traced: the outputs must hold against the pins, and each run must emit
// exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsShort(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %v; the command runs %d workloads", names, len(workloads))
	}
	for _, name := range names {
		w, ok := lookupWorkload(name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", name)
		}
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, shortConfig(t, 1, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.correct() || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, rep.failed, rep.attempted, rep.problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			got := metricsJSON(rep.metrics)
			if _, err := json.Marshal(got); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			for _, m := range rep.metrics {
				if !traced && m.value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.name, m.value)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(got), len(want))
			}
			for _, m := range want {
				if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, g, m.Unit)
				}
			}
			if rep.checked != rep.attempted {
				t.Errorf("%s traced=%v: %d of %d outputs checked against a pin", name, traced, rep.checked, rep.attempted)
			}
		}
	}
}

// jobsDigest fingerprints a job list: keys, order and traffic.
func jobsDigest(jobs []job) string {
	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "%s %v\n", j.key, j.pattern)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// streamDigest fingerprints a request stream: due times and specs.
func streamDigest(reqs []request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%d %s\n", r.due, r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInputsDeterministic: a seed generates byte-identical inputs, and
// another seed changes the seeded workloads' inputs.
func TestInputsDeterministic(t *testing.T) {
	jobsOf := func(setup func(*config) (instance, error), seed int64) string {
		in, err := setup(shortConfig(t, seed, false))
		if err != nil {
			t.Fatal(err)
		}
		return jobsDigest(in.(*jobsInstance).jobs)
	}
	streamOf := func(seed int64) string {
		in := &serveInstance{seed: seed, n: 16}
		in.warm = in.warmSpecs(serveShort)
		return streamDigest(in.stream(rand.New(rand.NewSource(seed)), 1e9))
	}
	for _, c := range []struct {
		name   string
		digest func(seed int64) string
		seeded bool
	}{
		{"exchange-ladder", func(s int64) string { return jobsOf(setupLadder, s) }, false},
		{"irregular-mix", func(s int64) string { return jobsOf(setupMix, s) }, true},
		{"serve-open-loop", streamOf, true},
	} {
		a, b, other := c.digest(1), c.digest(1), c.digest(2)
		if a != b {
			t.Errorf("%s: seed 1 generated different inputs twice", c.name)
		}
		if c.seeded && a == other {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", c.name)
		}
	}
}

// TestTimedStoreMatchesBareStore: a sweep through the benchmark's store
// wrapper renders the same tables, with the same replayed/simulated
// split, as one through the bare disk store — cold and warm — so the
// numbers it times are those of the unwrapped program.
func TestTimedStoreMatchesBareStore(t *testing.T) {
	sweep := func(st store.Backend) (shas []string, hits, misses []int) {
		for range 2 {
			specs, err := familySpecs(sweepFamiliesShort, st)
			if err != nil {
				t.Fatal(err)
			}
			r := exp.NewRunner(nproc)
			r.Store, r.StoreBase = st, exp.StoreBase(network.DefaultConfig())
			if err := r.Run(context.Background(), specs...); err != nil {
				t.Fatal(err)
			}
			sha, err := tablesSHA256(specs)
			if err != nil {
				t.Fatal(err)
			}
			shas, hits, misses = append(shas, sha), append(hits, r.CacheHits()), append(misses, r.CacheMisses())
		}
		return shas, hits, misses
	}
	bare, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	timed, err := openTimedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	timed.setHook(func(op, hash string, start, end time.Time) { calls.Add(1) })
	s1, h1, m1 := sweep(bare)
	s2, h2, m2 := sweep(timed)
	if calls.Load() == 0 {
		t.Error("the wrapper timed no store call")
	}
	for i := range s1 {
		if s1[i] != s2[i] || h1[i] != h2[i] || m1[i] != m2[i] {
			t.Errorf("sweep %d: bare store %s (%d replayed, %d simulated), wrapper %s (%d, %d)",
				i, s1[i], h1[i], m1[i], s2[i], h2[i], m2[i])
		}
	}
	if h1[0] != 0 || m1[1] != 0 {
		t.Errorf("bare store: cold sweep replayed %d, warm sweep simulated %d; want 0 and 0", h1[0], m1[1])
	}
}

// TestUpdatePins rewrites the pin files from the current code (run with
// -update). Job pins come from one run of every seed-1 job; the tables
// pin from a sweep with no store at all, which is what cmexp prints, so
// sweep-store's store-backed passes are checked against it.
func TestUpdatePins(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite the pins")
	}
	for _, short := range []bool{false, true} {
		cfg := &config{seed: 1, short: short, workDir: t.TempDir()}
		p := pins{Jobs: map[string]jobPin{}}
		for _, setup := range []func(*config) (instance, error){setupLadder, setupMix} {
			in, err := setup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range in.(*jobsInstance).jobs {
				res, err := cm5.Run(j.job)
				if err != nil {
					t.Fatalf("%s: %v", j.key, err)
				}
				p.Jobs[j.key] = pinOf(res)
			}
		}
		families := sweepFamilies
		if short {
			families = sweepFamiliesShort
		}
		specs, err := familySpecs(families, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.NewRunner(nproc).Run(context.Background(), specs...); err != nil {
			t.Fatal(err)
		}
		if p.TablesSHA256, err = tablesSHA256(specs); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		name := "pins_seed1.json"
		if short {
			name = "pins_seed1_short.json"
		}
		if err := os.WriteFile(filepath.Join("testdata", name), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
