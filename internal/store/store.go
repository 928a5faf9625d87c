// Package store is a content-addressed, on-disk experiment-result
// store. Each record is one experiment cell's output, keyed by a stable
// hash of the cell's full specification — experiment family, cell name,
// seed, network configuration, and a code-version salt — so a result is
// reusable exactly when everything that could influence it is
// unchanged, and invalidated for free when any of it changes (the hash
// changes, so the old entry simply never matches again).
//
// Layout on disk:
//
//	<dir>/objects/<hh>/<hash>.json   one record, canonical JSON
//	<dir>/index.json                 sorted {hash, family, cell} listing
//
// The object files are the source of truth; index.json is a rebuilt
// convenience for humans and external tools. Writes are atomic
// (unique temp file + rename into place), so any number of concurrent
// writers — worker goroutines of one sweep or separate processes
// sharing a directory — can Put safely: two writers storing the same
// hash race to rename byte-identical content.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// SchemaVersion is the record-format version; it participates in every
// hash, so bumping it invalidates all stored results at once.
const SchemaVersion = 1

// Spec is the full specification of one cell result: every field that
// influences the result must be present. HashSpec canonicalizes it
// (sorted keys, exact number literals), so insertion order and struct
// field order never matter.
type Spec map[string]any

// Write is one recorded table write of a cell: the replayable unit a
// cache hit applies instead of re-simulating.
type Write struct {
	Row int    `json:"row"`
	Col int    `json:"col"`
	Val string `json:"val"`
}

// Record is one stored cell result.
type Record struct {
	Schema int    `json:"schema"`
	Hash   string `json:"hash"`
	Family string `json:"family"`
	Cell   string `json:"cell"`
	Spec   Spec   `json:"spec"`
	// Writes are the cell's table writes, replayed verbatim on a hit so
	// the rendered output is byte-identical to a fresh simulation.
	Writes []Write `json:"writes,omitempty"`
	// Values are the cell's named scalars (times, step counts) that
	// derived columns and Finish hooks consume.
	Values map[string]float64 `json:"values,omitempty"`
	// Payload is an opaque pre-rendered result document (the serving
	// layer stores each job's canonical Result JSON here and replays it
	// verbatim on a hit). Table-cell records leave it empty.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// HashSpec returns the content address of a spec: the hex SHA-256 of
// its canonical JSON. Canonicalization round-trips the spec through
// JSON into maps with json.Number values, then re-marshals — map keys
// come out sorted and number literals exact, so the hash is stable
// under map insertion order, struct field reordering, and int64 values
// beyond float64 precision.
func HashSpec(spec Spec) (string, error) {
	data, err := canonicalJSON(spec)
	if err != nil {
		return "", fmt.Errorf("store: canonicalize spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ValidHash reports whether hash has exactly the form HashSpec emits:
// 64 lowercase hex characters. The /v1/store HTTP handlers gate every
// client-supplied hash on it before the hash goes anywhere near a file
// path, so a remote client cannot smuggle path elements ("../", "/",
// "\") into the object or claim directories.
func ValidHash(hash string) bool {
	return len(hash) == 64 && hexOnly(hash)
}

func hexOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// checkHash rejects hashes that cannot safely name an object or claim
// file: too short to shard into <hh>/ directories, or containing
// anything outside lowercase hex — which keeps path metacharacters
// ('/', '\', '.') out of every filepath.Join in this package.
func checkHash(hash string) error {
	if len(hash) < 2 || !hexOnly(hash) {
		return fmt.Errorf("store: bad hash %q", hash)
	}
	return nil
}

func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, err
	}
	// json.Marshal sorts map[string]... keys, and json.Number
	// re-marshals as its exact literal.
	return json.Marshal(generic)
}

// Store is an open result store rooted at a directory. Get reads the
// object file directly and takes no lock at all, so any number of
// concurrent readers — the serving layer answers every cache hit this
// way — proceed without contending with writers; the index mutex is
// read-write so listings (Len, All) also run concurrently.
type Store struct {
	dir string
	met *storeMetrics // nil unless SetMetrics attached a registry

	mu    sync.RWMutex
	index map[string]IndexEntry // hash -> entry
	dirty bool                  // index.json lags the in-memory index
}

// storeMetrics are the observability handles Get/Put/Claim update.
type storeMetrics struct {
	hits, misses                        *obs.Counter
	claims, claimConflicts, claimSteals *obs.Counter
	get, put                            *obs.Histogram
}

// SetMetrics attaches observability counters and latency histograms
// (hit/miss counts, get/put wall time) backed by r; nil detaches. Call
// before the store is used concurrently.
func (s *Store) SetMetrics(r *obs.Registry) {
	if r == nil {
		s.met = nil
		return
	}
	s.met = &storeMetrics{
		hits:           r.Counter("store_get_hits_total"),
		misses:         r.Counter("store_get_misses_total"),
		claims:         r.Counter("store_claims_acquired_total"),
		claimConflicts: r.Counter("store_claims_conflict_total"),
		claimSteals:    r.Counter("store_claims_stolen_total"),
		get:            r.Histogram("store_get_seconds", obs.SecondsBuckets()),
		put:            r.Histogram("store_put_seconds", obs.SecondsBuckets()),
	}
}

// IndexEntry is one line of the store index: enough to enumerate and
// address a record without reading its object file. It is also the
// wire shape of GET /v1/store/index entries.
type IndexEntry struct {
	Hash   string `json:"hash"`
	Family string `json:"family"`
	Cell   string `json:"cell"`
}

type indexFile struct {
	Schema  int          `json:"schema"`
	Entries []IndexEntry `json:"entries"`
}

// strandedTempMaxAge is how old a temp file must be before Open sweeps
// it: a crash between temp write and rename strands the file forever,
// but a file this young may belong to a concurrent writer about to
// rename it, so the sweep leaves fresh ones alone.
const strandedTempMaxAge = 15 * time.Minute

// Open opens (creating if needed) the store at dir. The in-memory
// index is rebuilt from the object files, which are the source of
// truth; a stale or missing index.json is repaired on the next Put.
// Temp files stranded by a crash between write and rename (and claim
// files whose leases expired long ago) are swept, aged ones only, so
// concurrent writers' in-flight temps survive.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, index: map[string]IndexEntry{}}
	cutoff := time.Now().Add(-strandedTempMaxAge)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		base := filepath.Base(path)
		if strings.HasPrefix(base, ".tmp-") || strings.HasPrefix(base, ".index-") {
			if info, ierr := d.Info(); ierr == nil && info.ModTime().Before(cutoff) {
				os.Remove(path)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".json") || !strings.HasPrefix(path, filepath.Join(dir, "objects")) {
			return nil
		}
		rec, rerr := readRecord(path)
		if rerr != nil {
			// A torn or foreign file is not fatal: it can never be a
			// hit (Get re-validates), so skip it.
			return nil
		}
		s.index[rec.Hash] = IndexEntry{Hash: rec.Hash, Family: rec.Family, Cell: rec.Cell}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	s.sweepExpiredClaims(cutoff)
	return s, nil
}

// sweepExpiredClaims removes claim files whose leases expired before
// cutoff: a lease a worker will steal the moment it wants the hash, so
// removing the long-dead ones only keeps the claims tree tidy.
func (s *Store) sweepExpiredClaims(cutoff time.Time) {
	filepath.WalkDir(filepath.Join(s.dir, "claims"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		if c, cerr := readClaimFile(path); cerr == nil && c.ExpiresUnixNS < cutoff.UnixNano() {
			os.Remove(path)
		}
		return nil
	})
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Location implements Backend.Location: the store directory.
func (s *Store) Location() string { return s.dir }

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash+".json")
}

func readRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	if rec.Hash == "" || len(rec.Hash) < 2 {
		return nil, fmt.Errorf("store: %s: record has no hash", path)
	}
	return &rec, nil
}

// Get returns the record stored under hash, or ok=false on a miss. It
// reads the object file directly, so records written by a concurrent
// process after Open are found too.
func (s *Store) Get(hash string) (*Record, bool, error) {
	if s.met == nil {
		return s.get(hash)
	}
	t0 := time.Now()
	rec, ok, err := s.get(hash)
	s.met.get.Observe(time.Since(t0).Seconds())
	if ok {
		s.met.hits.Add(1)
	} else if err == nil {
		s.met.misses.Add(1)
	}
	return rec, ok, err
}

func (s *Store) get(hash string) (*Record, bool, error) {
	if err := checkHash(hash); err != nil {
		return nil, false, err
	}
	rec, err := readRecord(s.objectPath(hash))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if rec.Schema != SchemaVersion {
		// A record from a different schema generation never hits.
		return nil, false, nil
	}
	return rec, true, nil
}

// Put stores a record under rec.Hash (computing it from rec.Spec when
// empty). Safe for any number of concurrent callers. The object file
// lands immediately (it is the source of truth); index.json is only
// marked stale — call Flush once after a batch of Puts, rather than
// paying an O(records) index rewrite per cell.
func (s *Store) Put(rec *Record) error {
	if s.met == nil {
		return s.put(rec)
	}
	t0 := time.Now()
	err := s.put(rec)
	s.met.put.Observe(time.Since(t0).Seconds())
	return err
}

func (s *Store) put(rec *Record) error {
	rec.Schema = SchemaVersion
	if rec.Hash == "" {
		h, err := HashSpec(rec.Spec)
		if err != nil {
			return err
		}
		rec.Hash = h
	}
	// Reject malformed records at the write site with per-field errors
	// (see Record.Validate) — never let them become silent misses.
	if err := rec.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", rec.Cell, err)
	}
	data = append(data, '\n')
	path := s.objectPath(rec.Hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", rec.Cell, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", rec.Cell, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}

	s.mu.Lock()
	s.index[rec.Hash] = IndexEntry{Hash: rec.Hash, Family: rec.Family, Cell: rec.Cell}
	s.dirty = true
	s.mu.Unlock()
	return nil
}

// Flush rewrites index.json when Puts have made it stale. A missed
// Flush (crash mid-sweep) costs nothing but an index rebuild on the
// next Open: the object files are the source of truth.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return nil
	}
	if err := s.writeIndexLocked(); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// writeIndexLocked rewrites index.json from the in-memory index,
// sorted by (family, cell, hash). Callers hold s.mu.
func (s *Store) writeIndexLocked() error {
	idx := indexFile{Schema: SchemaVersion, Entries: make([]IndexEntry, 0, len(s.index))}
	for _, e := range s.index {
		idx.Entries = append(idx.Entries, e)
	}
	sort.Slice(idx.Entries, func(i, j int) bool {
		a, b := idx.Entries[i], idx.Entries[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		return a.Hash < b.Hash
	})
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode index: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(s.dir, ".index-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write index: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, "index.json")); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Index returns a snapshot of the index entries, sorted by
// (family, cell, hash) — the same order Flush persists. It reads no
// object files, so it is cheap enough to serve on every request.
func (s *Store) Index() []IndexEntry {
	s.mu.RLock()
	entries := make([]IndexEntry, 0, len(s.index))
	for _, e := range s.index {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		return a.Hash < b.Hash
	})
	return entries
}

// All returns every stored record, sorted by (family, cell, hash) so
// listings and diffs are deterministic.
func (s *Store) All() ([]*Record, error) {
	s.mu.RLock()
	hashes := make([]string, 0, len(s.index))
	for h := range s.index {
		hashes = append(hashes, h)
	}
	s.mu.RUnlock()
	recs := make([]*Record, 0, len(hashes))
	for _, h := range hashes {
		rec, ok, err := s.Get(h)
		if err != nil {
			return nil, err
		}
		if ok {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		return a.Hash < b.Hash
	})
	return recs, nil
}

// Invalidate deletes every record whose cell key matches re and
// returns how many were removed.
func (s *Store) Invalidate(re *regexp.Regexp) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for h, e := range s.index {
		if !re.MatchString(e.Cell) {
			continue
		}
		if err := os.Remove(s.objectPath(h)); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("store: invalidate %s: %w", e.Cell, err)
		}
		delete(s.index, h)
		removed++
	}
	if removed > 0 {
		if err := s.writeIndexLocked(); err != nil {
			return removed, err
		}
		s.dirty = false
	}
	return removed, nil
}
