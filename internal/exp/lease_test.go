package exp

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

func leasedRunner(t *testing.T, dir, owner string, workers int) *Runner {
	t.Helper()
	r := storeRunner(t, dir, workers)
	r.Metrics = obs.NewRegistry()
	r.Lease = &LeaseConfig{Owner: owner, TTL: time.Minute, Poll: time.Millisecond}
	return r
}

// TestLeasedWorkersPartitionSweep runs two leased workers concurrently
// over one shared backend: every cell must be simulated exactly once
// across the fleet, both workers must render complete tables, and both
// renders must be byte-identical to a storeless single-process run —
// the determinism contract distribution must not break.
func TestLeasedWorkersPartitionSweep(t *testing.T) {
	var baseRan atomic.Int64
	baseline, err := NewRunner(2).RunTable(context.Background(), countingSpec(&baseRan))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var ran atomic.Int64
	w1 := leasedRunner(t, dir, "w1", 2)
	w2 := leasedRunner(t, dir, "w2", 2)
	spec1, spec2 := countingSpec(&ran), countingSpec(&ran)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, pair := range []struct {
		r    *Runner
		spec *TableSpec
	}{{w1, spec1}, {w2, spec2}} {
		wg.Add(1)
		go func(i int, r *Runner, spec *TableSpec) {
			defer wg.Done()
			errs[i] = r.Run(context.Background(), spec)
		}(i, pair.r, pair.spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i+1, err)
		}
	}

	// The lease protocol guarantees each cell simulates once: a worker
	// only simulates under an acquired lease, and re-checks the store
	// after acquiring.
	if ran.Load() != 12 {
		t.Fatalf("fleet executed %d cell functions, want exactly 12 (each cell once)", ran.Load())
	}
	for _, w := range []*Runner{w1, w2} {
		if w.CacheHits()+w.CacheMisses() != 12 {
			t.Fatalf("worker resolved %d+%d cells, want 12 total", w.CacheHits(), w.CacheMisses())
		}
	}
	if w1.CacheMisses()+w2.CacheMisses() != 12 {
		t.Fatalf("fleet simulated %d+%d cells, want 12 across both workers",
			w1.CacheMisses(), w2.CacheMisses())
	}
	if got := spec1.Table.Render(); got != baseline.Render() {
		t.Fatalf("worker 1 table differs from storeless baseline:\n%s\nvs\n%s", got, baseline.Render())
	}
	if got := spec2.Table.Render(); got != baseline.Render() {
		t.Fatalf("worker 2 table differs from storeless baseline:\n%s\nvs\n%s", got, baseline.Render())
	}
}

// TestLeaseExpiryWorkStealing pins the crash-recovery path: a cell
// whose lease belongs to a dead worker is stolen once the lease
// expires, the sweep completes, and the steal is counted.
func TestLeaseExpiryWorkStealing(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64
	r := leasedRunner(t, dir, "survivor", 2)
	spec := countingSpec(&ran)

	// A "worker" that claimed the first cell and died: its lease is
	// real, but no record will ever appear under it.
	dead := cellHash(t, r, spec, spec.Cells[0])
	if cl, err := r.Store.Claim(dead, "dead-worker", time.Millisecond); err != nil || !cl.Acquired {
		t.Fatalf("seed claim = %+v err=%v", cl, err)
	}
	time.Sleep(5 * time.Millisecond)

	tab, err := r.RunTable(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 12 {
		t.Fatalf("executed %d cells, want 12 (the orphaned cell must be stolen and run)", ran.Load())
	}
	if stolen := r.Metrics.Counter("exp_cells_stolen_total").Value(); stolen != 1 {
		t.Fatalf("exp_cells_stolen_total = %v, want 1", stolen)
	}
	if claimed := r.Metrics.Counter("exp_cells_claimed_total").Value(); claimed != 12 {
		t.Fatalf("exp_cells_claimed_total = %v, want 12", claimed)
	}

	var baseRan atomic.Int64
	baseline, err := NewRunner(1).RunTable(context.Background(), countingSpec(&baseRan))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Render() != baseline.Render() {
		t.Fatalf("post-steal table differs from baseline:\n%s\nvs\n%s", tab.Render(), baseline.Render())
	}
}

// TestLeasedDeferralReplaysLiveHoldersResult covers the other half of
// contention: a cell leased by a live worker is deferred, not stolen,
// and completes here by replaying the holder's result the moment it
// lands in the store.
func TestLeasedDeferralReplaysLiveHoldersResult(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64
	r := leasedRunner(t, dir, "waiter", 2)
	spec := countingSpec(&ran)

	// A live holder: long TTL, so the lease can never be stolen during
	// the test. The holder "finishes" 30ms in by persisting its result.
	held := cellHash(t, r, spec, spec.Cells[0])
	if cl, err := r.Store.Claim(held, "live-holder", time.Hour); err != nil || !cl.Acquired {
		t.Fatalf("seed claim = %+v err=%v", cl, err)
	}
	bc := boundCell{spec: spec, cell: spec.Cells[0]}
	go func() {
		time.Sleep(30 * time.Millisecond)
		// The exact record the holder's simulateCell would Put for
		// counting/alg0/N0 (see countingSpec).
		r.Store.Put(&store.Record{
			Hash:   held,
			Family: spec.Name,
			Cell:   bc.cell.Key,
			Spec:   r.cellSpec(bc, CellSeed(bc.cell.Key)^r.Seed),
			Writes: []store.Write{{Row: 0, Col: 0, Val: "0.0"}},
			Values: map[string]float64{"v": 0},
		})
	}()

	tab, err := r.RunTable(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 11 {
		t.Fatalf("executed %d cells, want 11 (the held cell must be replayed, never run here)", ran.Load())
	}
	if r.Metrics.Counter("exp_cells_deferred_total").Value() < 1 {
		t.Fatal("the held cell was never deferred")
	}
	if r.Metrics.Counter("exp_cells_stolen_total").Value() != 0 {
		t.Fatal("a live lease was stolen")
	}
	if got := tab.Cells[0][0]; got != "0.0" {
		t.Fatalf("held cell rendered %q, want the holder's 0.0", got)
	}
}
