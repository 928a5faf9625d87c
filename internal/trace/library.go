package trace

import (
	"bytes"
	"encoding/json"
	"sync"

	"repro/internal/network"
	"repro/internal/store"
)

// Library resolves traces by their identifying inputs, cheapest source
// first: an in-memory memo (one recording serves every cell of a
// sweep), then the content-addressed store (recordings persist across
// processes under their input hash, payload records like the serving
// layer's), then a fresh recording — which is memoized and persisted
// for the next caller. Concurrent Gets of the same trace coalesce:
// exactly one records, the rest wait. A nil store means memo-only.
// The store is any backend — a local directory or a cmserve-hosted
// HTTP store — so distributed workers share one recording of each app.
type Library struct {
	st store.Backend

	mu      sync.Mutex
	entries map[string]*libEntry
}

type libEntry struct {
	once sync.Once
	tr   *Trace
	err  error
}

// NewLibrary returns a library over st (nil for memo-only). A typed
// nil backend pointer is normalized to memo-only, so callers may pass
// an optional *store.Store straight through.
func NewLibrary(st store.Backend) *Library {
	if b, ok := st.(*store.Store); ok && b == nil {
		st = nil
	}
	if b, ok := st.(*store.HTTPBackend); ok && b == nil {
		st = nil
	}
	return &Library{st: st, entries: map[string]*libEntry{}}
}

// Get returns the trace for (app, size, nprocs, seed, cfg) — size 0
// means the app's default. Its signature is cm5.Spec.Job's trace
// resolver's, so a library plugs straight into the lowering of
// trace-driven jobs.
func (l *Library) Get(app string, size, nprocs int, seed int64, cfg network.Config) (*Trace, error) {
	a, err := Lookup(app)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		size = a.DefaultSize
	}
	hash, err := HashFor(a.Name, size, nprocs, seed, cfg)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	e := l.entries[hash]
	if e == nil {
		e = &libEntry{}
		l.entries[hash] = e
	}
	l.mu.Unlock()
	e.once.Do(func() {
		e.tr, e.err = l.load(a.Name, size, nprocs, seed, cfg, hash)
	})
	return e.tr, e.err
}

// load resolves one trace from the store or a fresh recording.
func (l *Library) load(app string, size, nprocs int, seed int64, cfg network.Config, hash string) (*Trace, error) {
	if tr, ok := l.storeGet(hash); ok {
		return tr, nil
	}
	tr, err := Record(app, size, nprocs, seed, cfg)
	if err != nil {
		return nil, err
	}
	l.storePut(tr, cfg, hash)
	return tr, nil
}

// storeGet decodes a stored trace payload. The object file holds the
// payload re-indented inside the record; compacting restores the exact
// canonical bytes Encode produced.
func (l *Library) storeGet(hash string) (*Trace, bool) {
	if l.st == nil {
		return nil, false
	}
	rec, ok, err := l.st.Get(hash)
	if err != nil || !ok || len(rec.Payload) == 0 {
		return nil, false
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, rec.Payload); err != nil {
		return nil, false
	}
	tr, err := Decode(buf.Bytes())
	if err != nil {
		// A stale or corrupt payload falls through to a fresh recording,
		// never to a failed sweep.
		return nil, false
	}
	return tr, true
}

// storePut persists a freshly recorded trace under its input hash;
// failures are swallowed — the store can only ever cost a re-recording.
// The index is left stale for the store's owner to flush once.
func (l *Library) storePut(tr *Trace, cfg network.Config, hash string) {
	if l.st == nil {
		return
	}
	payload, err := tr.Encode()
	if err != nil {
		return
	}
	// NewRecord recomputes the hash from the spec and validates; a
	// drift between HashFor and SpecFor would be caught right here.
	rec, err := store.NewRecord("trace", CellKey(tr.App, tr.Size, tr.Procs, tr.Seed),
		SpecFor(tr.App, tr.Size, tr.Procs, tr.Seed, cfg))
	if err != nil || rec.Hash != hash {
		return
	}
	rec.Payload = json.RawMessage(payload)
	l.st.Put(rec)
}
