package exp

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Cell is one independent unit of a sweep — a single
// (figure, algorithm, machine size, message size) tuple. Fn runs one
// simulation and records its output through rec. Cells of one table
// record disjoint, pre-assigned slots so the worker pool needs no
// locks and results land deterministically regardless of completion
// order.
type Cell struct {
	// Key names the cell, e.g. "fig5/LEX/N32/256B". The -run flag of
	// cmd/cmexp and Runner.Filter match against it, the per-cell seed is
	// derived from it, and the result store's content hash includes it.
	Key string
	// Spec holds extra key fields mixed into the cell's content hash on
	// top of its family, key and seed — the faults family files each
	// cell's full fault plan here, so two cells differing only in their
	// plans can never collide in the store. Nil for most cells; ignored
	// without a Store.
	Spec store.Spec
	// Fn computes the cell. seed is the runner's deterministic per-cell
	// seed (CellSeed(Key) xor Runner.Seed); cells with no stochastic
	// component may ignore it. ctx is cancelled when the sweep aborts.
	// All output goes through rec — table writes via rec.Set, scalars
	// consumed by the spec's Finish hook via rec.PutFloat/PutInt — so a
	// result-store hit can replay it without re-simulating.
	Fn func(ctx context.Context, seed int64, rec *Rec) error
}

// Rec is one cell's recorded output: the table writes that render it
// and the named scalars its spec's Finish hook derives from. The
// runner applies the writes to the spec's table after the cell
// completes (or replays them from the result store on a hit), so a
// cached cell is byte-identical to a freshly simulated one.
type Rec struct {
	writes []store.Write
	values map[string]float64
}

// Set records a table write at (row, col).
func (rec *Rec) Set(row, col int, format string, args ...interface{}) {
	rec.writes = append(rec.writes, store.Write{Row: row, Col: col, Val: fmt.Sprintf(format, args...)})
}

// PutFloat records a named scalar for the spec's Finish hook.
func (rec *Rec) PutFloat(name string, v float64) {
	if rec.values == nil {
		rec.values = map[string]float64{}
	}
	rec.values[name] = v
}

// PutInt records a named integer scalar for the spec's Finish hook.
func (rec *Rec) PutInt(name string, v int) { rec.PutFloat(name, float64(v)) }

// Float returns a recorded scalar (zero when absent).
func (rec *Rec) Float(name string) float64 { return rec.values[name] }

// Int returns a recorded integer scalar (zero when absent).
func (rec *Rec) Int(name string) int { return int(rec.values[name]) }

// TableSpec couples a table with the independent cells that fill it.
type TableSpec struct {
	Name  string // experiment name, e.g. "fig5"
	Table *Table
	Cells []Cell
	// Finish, if non-nil, runs serially after every cell of the spec
	// completed — for derived columns that combine several cells'
	// results (ablation gain percentages, "best" columns), read back
	// through CellFloat/CellInt. It is skipped when a Filter excluded
	// any of the spec's cells: derived values computed from
	// partially-filled slots would be garbage, so they stay blank like
	// the unselected cells themselves.
	Finish func() error

	mu   sync.Mutex
	recs map[string]*Rec
}

// AddCell appends a cell to the spec.
func (s *TableSpec) AddCell(key string, fn func(ctx context.Context, seed int64, rec *Rec) error) {
	s.Cells = append(s.Cells, Cell{Key: key, Fn: fn})
}

// AddCellSpec appends a cell carrying extra content-hash key fields
// (see Cell.Spec).
func (s *TableSpec) AddCellSpec(key string, extra store.Spec, fn func(ctx context.Context, seed int64, rec *Rec) error) {
	s.Cells = append(s.Cells, Cell{Key: key, Spec: extra, Fn: fn})
}

func (s *TableSpec) putRec(key string, rec *Rec) {
	s.mu.Lock()
	if s.recs == nil {
		s.recs = map[string]*Rec{}
	}
	s.recs[key] = rec
	s.mu.Unlock()
}

// CellFloat returns the named scalar the cell recorded, or zero when
// the cell has not run. Finish hooks only run when every cell of the
// spec completed, so inside them every recorded scalar is present.
func (s *TableSpec) CellFloat(key, name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.recs[key]; ok {
		return rec.Float(name)
	}
	return 0
}

// CellInt returns the named integer scalar the cell recorded.
func (s *TableSpec) CellInt(key, name string) int { return int(s.CellFloat(key, name)) }

// Progress reports one completed cell. Done counts completions so far
// (including this one) out of Total selected cells. Cached marks cells
// replayed from the result store instead of simulated.
type Progress struct {
	Done   int
	Total  int
	Key    string
	Cached bool
}

// CellSeed derives the deterministic seed for a cell key.
func CellSeed(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64() &^ (1 << 63))
}

// Runner fans independent experiment cells across a bounded worker pool.
// Every sweep it runs is deterministic: each cell records only its own
// pre-assigned slots, so the rendered tables are byte-identical whether
// the pool has one worker or many.
//
// With a Store attached the runner is cache-aware: before simulating a
// cell it hashes the cell's full specification (family, cell key, seed,
// the cell's own Spec fields, plus the caller's StoreBase fields —
// network config and code version) and replays the stored record on a
// hit; misses simulate and persist. Replay applies the exact recorded
// strings, so output stays byte-identical with the store on, off, warm
// or cold.
//
// The zero value is a serial, storeless runner; NewRunner(0) uses
// every CPU.
type Runner struct {
	// Workers is the pool size; values < 1 mean one worker.
	Workers int
	// Filter, when non-nil, selects which cells run; non-matching cells
	// are skipped and their table slots keep their zero value.
	Filter *regexp.Regexp
	// Seed perturbs every cell's derived seed (0 = the canonical
	// tables). Cells without a stochastic component ignore it.
	Seed int64
	// OnProgress, when non-nil, is called after each cell completes.
	// Calls are serialized but may come from any worker goroutine.
	OnProgress func(Progress)
	// Store, when non-nil, enables cache-aware execution. Any backend
	// works: a local directory (*store.Store) or a cmserve-hosted HTTP
	// store (*store.HTTPBackend) shared by a fleet of workers.
	Store store.Backend
	// StoreBase holds the sweep-wide key fields mixed into every cell's
	// content hash (see StoreBase); ignored without a Store.
	StoreBase store.Spec
	// Lease, when non-nil (it requires a Store), turns this runner into
	// one worker of a fleet: before simulating a cell it leases the
	// cell's content hash through the backend, so any number of worker
	// processes sharing one backend partition a sweep among themselves
	// with no scheduler. Cells another live worker holds are deferred
	// and re-checked every Poll until they appear in the store (the
	// holder finished) or their lease expires (the holder died — the
	// lease is stolen and the cell simulated here). Every worker still
	// fills its whole table, replaying the cells others computed, so
	// each one renders byte-identical complete output.
	Lease *LeaseConfig
	// Metrics, when non-nil, receives sweep observability — per-cell
	// wall-time histograms and replayed/simulated counters — and is
	// handed to every cell's simulations through the context, so
	// sim-level counters (engine events, flows, solver re-solves)
	// accumulate into the same registry. Purely passive: attaching a
	// registry never changes any cell's output.
	Metrics *obs.Registry
	// TimelineDir, when non-empty, records a sim-time timeline for every
	// simulated cell and writes it as Chrome trace-event JSON into this
	// directory (created if missing), one file per cell. Replayed cells
	// are skipped — a store hit has no simulation to record.
	TimelineDir string

	hits, misses atomic.Int64
}

// NewRunner returns a runner with the given pool size; workers < 1 uses
// GOMAXPROCS workers.
func NewRunner(workers int) *Runner {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{Workers: workers}
}

// CacheHits returns how many cells the last Run replayed from the
// store; CacheMisses how many it simulated.
func (r *Runner) CacheHits() int   { return int(r.hits.Load()) }
func (r *Runner) CacheMisses() int { return int(r.misses.Load()) }

// ResultsVersion is the code-version salt of every stored cell hash.
// Bump it whenever cell semantics, table layouts, or the simulation
// model change in a way that should invalidate previously stored
// results.
const ResultsVersion = 1

// StoreBase returns the sweep-wide key fields every cell's content
// hash mixes in: the network configuration and the experiment-code
// version. Pass it to Runner.StoreBase alongside Runner.Store.
func StoreBase(cfg interface{}) store.Spec {
	return store.Spec{"config": cfg, "code_version": ResultsVersion}
}

// LeaseConfig configures leased (multi-worker) execution; see
// Runner.Lease.
type LeaseConfig struct {
	// Owner is this worker's identity in the shared claim space; it must
	// be unique per live process across the whole fleet — with the HTTP
	// backend that fleet spans machines, where pids alone collide
	// (empty: "<hostname>-<pid>-<starttime>").
	Owner string
	// TTL is how long a claimed cell stays leased. It must comfortably
	// exceed one cell's simulation time: a lease that expires mid-cell
	// invites a steal and the work is done twice (never wrongly — both
	// Put the same record — just wastefully). Empty: one minute.
	TTL time.Duration
	// Poll is how often deferred cells (leased by another live worker)
	// are re-checked. Empty: 100ms.
	Poll time.Duration
}

// defaultOwner is the process-wide default lease identity, computed
// once: hostname + pid + first-use time. Pid alone is not unique when
// the fleet spans machines (HTTP backend) and can be reused on one
// host; two workers silently sharing an identity would each treat the
// other's live lease as refreshable and simulate the same cells.
var defaultOwner = sync.OnceValue(func() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "anon"
	}
	return fmt.Sprintf("%s-%d-%x", host, os.Getpid(), time.Now().UnixNano())
})

// withDefaults fills the zero fields.
func (lc LeaseConfig) withDefaults() LeaseConfig {
	if lc.Owner == "" {
		lc.Owner = defaultOwner()
	}
	if lc.TTL <= 0 {
		lc.TTL = time.Minute
	}
	if lc.Poll <= 0 {
		lc.Poll = 100 * time.Millisecond
	}
	return lc
}

// boundCell pairs a selected cell with its spec so workers can apply
// writes and file records against the right table.
type boundCell struct {
	spec *TableSpec
	cell Cell
}

// Run executes every selected cell of the given specs on the pool, then
// the specs' Finish hooks in order. The first cell error cancels the
// remaining work and is returned (wrapped with the cell key); a
// cancelled ctx stops the sweep between cells.
func (r *Runner) Run(ctx context.Context, specs ...*TableSpec) error {
	r.hits.Store(0)
	r.misses.Store(0)
	if r.TimelineDir != "" {
		if err := os.MkdirAll(r.TimelineDir, 0o755); err != nil {
			return err
		}
	}
	var cells []boundCell
	complete := make([]bool, len(specs))
	for i, s := range specs {
		selected := 0
		for _, c := range s.Cells {
			if r.Filter == nil || r.Filter.MatchString(c.Key) {
				cells = append(cells, boundCell{spec: s, cell: c})
				selected++
			}
		}
		complete[i] = selected == len(s.Cells)
	}
	var lc *LeaseConfig
	if r.Lease != nil && r.Store != nil {
		l := r.Lease.withDefaults()
		lc = &l
	}
	err := r.runCells(ctx, cells, lc)
	if r.Store != nil {
		// One index write per sweep, not per cell — and even a failed
		// sweep indexes the cells it did complete (that is what -resume
		// picks up).
		if ferr := r.Store.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}
	for i, s := range specs {
		if s.Finish != nil && complete[i] {
			if err := s.Finish(); err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
		}
	}
	return nil
}

// RunTable runs a single spec and returns its table.
func (r *Runner) RunTable(ctx context.Context, spec *TableSpec) (*Table, error) {
	if err := r.Run(ctx, spec); err != nil {
		return nil, err
	}
	return spec.Table, nil
}

// Leased (multi-worker) execution is the distributed half of the
// runner. Each worker process runs the same sweep over the same shared
// backend; before simulating a cell it leases the cell's content hash,
// so the fleet partitions cells dynamically — whoever claims first
// computes, everyone else replays the stored result. A worker that dies
// holds its leases only until they expire, at which point any other
// worker steals them, so no single death can strand a cell.

// cellStatus is the outcome of one cell attempt.
type cellStatus int

const (
	cellReplayed  cellStatus = iota // stored result applied
	cellSimulated                   // computed (and stored, with a Store) here
	cellDeferred                    // another live worker holds the lease
)

// runCells executes cells on the worker pool; lc is non-nil only for a
// leased runner, the only one that ever defers a cell. Each cell token
// lives in the queue (or a pending requeue timer) at most once, so the
// channel — sized to hold every cell — can never block a send.
func (r *Runner) runCells(ctx context.Context, cells []boundCell, lc *LeaseConfig) error {
	total := len(cells)
	if total == 0 {
		return ctx.Err()
	}
	workers := min(max(r.Workers, 1), total)

	queue := make(chan boundCell, total)
	for _, bc := range cells {
		queue <- bc
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards firstErr, done, and OnProgress calls
		firstErr error
		done     int
	)
	allDone := make(chan struct{})

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var bc boundCell
				select {
				case <-cctx.Done():
					return
				case <-allDone:
					return
				case bc = <-queue:
				}
				// select picks at random among ready cases, so a cell can
				// be dequeued after the sweep was cancelled: never start it.
				if cctx.Err() != nil {
					return
				}
				st, err := r.runCell(cctx, bc, lc)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("cell %s: %w", bc.cell.Key, err)
					}
					mu.Unlock()
					cancel()
					return
				}
				if st == cellDeferred {
					// A live worker owns this cell; its result will appear
					// in the store (or its lease will expire). Put the
					// token back after a poll interval.
					time.AfterFunc(lc.Poll, func() {
						select {
						case queue <- bc:
						case <-cctx.Done():
						}
					})
					continue
				}
				mu.Lock()
				done++
				if r.OnProgress != nil {
					r.OnProgress(Progress{Done: done, Total: total, Key: bc.cell.Key, Cached: st == cellReplayed})
				}
				if done == total {
					close(allDone)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runCell resolves one cell, applies its recorded writes to the spec's
// table, and files the record for the Finish hook. Without a Store the
// cell simulates; with one it follows the protocol below, where the
// claim steps run only under a lease (lc != nil):
//
//	replay ── hit ─────────────────────────────→ done (replayed)
//	   │ miss
//	claim ── held by a live worker ────────────→ deferred (re-queued)
//	   │ acquired (fresh, refreshed, or stolen)
//	replay ── hit (holder finished in between) → release, done (replayed)
//	   │ miss
//	simulate, persist, release ────────────────→ done (simulated)
func (r *Runner) runCell(ctx context.Context, bc boundCell, lc *LeaseConfig) (cellStatus, error) {
	seed := CellSeed(bc.cell.Key) ^ r.Seed
	var hash string
	if r.Store != nil {
		h, err := store.HashSpec(r.cellSpec(bc, seed))
		if err != nil {
			return 0, err
		}
		hash = h
		if ok, err := r.replayCell(bc, hash); err != nil || ok {
			return cellReplayed, err
		}
	}
	if lc != nil {
		cl, err := r.Store.Claim(hash, lc.Owner, lc.TTL)
		if err != nil {
			return 0, err
		}
		if !cl.Acquired {
			r.Metrics.Counter("exp_cells_deferred_total").Add(1)
			return cellDeferred, nil
		}
		r.Metrics.Counter("exp_cells_claimed_total").Add(1)
		if cl.Stolen {
			r.Metrics.Counter("exp_cells_stolen_total").Add(1)
		}
		defer r.Store.Release(hash, lc.Owner)
		// The holder may have finished between our miss and the claim
		// (its release made the hash claimable again); one more replay
		// check under the lease avoids simulating a stored cell.
		if ok, err := r.replayCell(bc, hash); err != nil || ok {
			return cellReplayed, err
		}
	}
	return cellSimulated, r.simulateCell(ctx, bc, seed, hash)
}

// replayCell applies the record stored under hash, if any. A read error
// reports a clean miss: the store must never be able to break a sweep
// it could only speed up. A record that no longer fits the table is a
// hard error — it means stale results, not a recoverable miss.
func (r *Runner) replayCell(bc boundCell, hash string) (bool, error) {
	stored, ok, err := r.Store.Get(hash)
	if err != nil || !ok {
		return false, nil
	}
	rec := &Rec{writes: stored.Writes, values: stored.Values}
	if err := applyWrites(bc.spec.Table, rec.writes); err != nil {
		return false, fmt.Errorf("stale store record %s (invalidate it or bump exp.ResultsVersion): %w",
			hash[:12], err)
	}
	bc.spec.putRec(bc.cell.Key, rec)
	r.hits.Add(1)
	r.Metrics.Counter("exp_cells_replayed_total").Add(1)
	return true, nil
}

// simulateCell runs the cell's Fn, applies its writes, files its
// record, and (when hash is non-empty, i.e. a store is attached)
// persists the result under hash.
func (r *Runner) simulateCell(ctx context.Context, bc boundCell, seed int64, hash string) error {
	if r.Metrics != nil {
		ctx = obs.ContextWithRegistry(ctx, r.Metrics)
	}
	var tl *obs.Timeline
	if r.TimelineDir != "" {
		tl = obs.NewTimeline()
		ctx = obs.ContextWithTimeline(ctx, tl)
	}
	rec := &Rec{}
	t0 := time.Now()
	if err := bc.cell.Fn(ctx, seed, rec); err != nil {
		return err
	}
	if r.Metrics != nil {
		r.Metrics.Counter("exp_cells_simulated_total").Add(1)
		r.Metrics.Histogram("exp_cell_seconds", obs.SecondsBuckets()).Observe(time.Since(t0).Seconds())
	}
	if tl != nil {
		if err := tl.WriteFile(timelinePath(r.TimelineDir, bc.cell.Key)); err != nil {
			return err
		}
	}
	if err := applyWrites(bc.spec.Table, rec.writes); err != nil {
		return err
	}
	bc.spec.putRec(bc.cell.Key, rec)
	if r.Store != nil && hash != "" {
		err := r.Store.Put(&store.Record{
			Hash:   hash,
			Family: bc.spec.Name,
			Cell:   bc.cell.Key,
			Spec:   r.cellSpec(bc, seed),
			Writes: rec.writes,
			Values: rec.values,
		})
		if err != nil {
			return err
		}
		r.misses.Add(1)
	}
	return nil
}

// cellSpec assembles the full specification a cell result is addressed
// by: experiment family, cell key, the effective seed, the cell's own
// Spec fields, and the caller's StoreBase fields (network
// configuration, code version).
func (r *Runner) cellSpec(bc boundCell, seed int64) store.Spec {
	s := store.Spec{}
	maps.Copy(s, bc.cell.Spec)
	maps.Copy(s, r.StoreBase)
	// The spec name is the authoritative family: it differs from the
	// key's first segment for e.g. "table5-32".
	s["family"] = bc.spec.Name
	s["cell"] = bc.cell.Key
	// Seeds are 63-bit: encoded as a decimal string so canonical JSON
	// keeps every bit (see store.HashSpec).
	s["seed"] = strconv.FormatInt(seed, 10)
	return s
}

func applyWrites(t *Table, writes []store.Write) error {
	if len(writes) == 0 {
		return nil
	}
	if t == nil {
		return fmt.Errorf("cell recorded %d table writes but its spec has no table", len(writes))
	}
	for _, w := range writes {
		if w.Row < 0 || w.Row >= len(t.Cells) || w.Col < 0 || w.Col >= len(t.ColHeaders) {
			return fmt.Errorf("table write (%d,%d) outside %dx%d table",
				w.Row, w.Col, len(t.RowHeaders), len(t.ColHeaders))
		}
		t.Cells[w.Row][w.Col] = w.Val
	}
	return nil
}
