package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"regexp"
	"time"

	"repro/internal/store"
)

// The /v1/store API serves the daemon's attached backend over HTTP —
// the server half of store.HTTPBackend. One cmserve with a -store
// directory becomes the hub of a distributed sweep: any number of
// cmexp -workers processes point their -store flag at the daemon URL
// and share its records and its claim space, so they partition cells
// among themselves with no scheduler and survive each other's deaths.
//
// Routes (all JSON; 503 on every one when the daemon has no store):
//
//	GET  /v1/store/index           -> {len, entries: [{hash,family,cell}]}
//	GET  /v1/store/objects/{hash}  -> Record        (404: miss)
//	PUT  /v1/store/objects/{hash}  <- Record        (204; 400: invalid)
//	POST /v1/store/claims          <- {op, hash, owner, ttl_ms}
//	POST /v1/store/invalidate      <- {pattern}     -> {removed}
//	POST /v1/store/flush           -> {flushed}

// decodeStrict reads exactly one JSON document from r into v: unknown
// fields and anything but whitespace after the document are errors, so
// a second request body is rejected rather than silently dropped.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after the request")
	}
	return nil
}

// requireStore guards every store route; a daemon started without
// -store has nothing to serve and says so.
func (s *Server) requireStore(w http.ResponseWriter) bool {
	if s.store == nil {
		httpError(w, http.StatusServiceUnavailable, "no store attached: start cmserve with -store")
		return false
	}
	return true
}

func (s *Server) handleStoreIndex(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	entries := s.store.Index()
	if entries == nil {
		entries = []store.IndexEntry{}
	}
	writeJSON(w, store.IndexDoc{Len: len(entries), Entries: entries})
}

func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	hash := r.PathValue("hash")
	// PathValue decodes %2F, so a client-supplied hash could carry path
	// elements; only the exact 64-hex form HashSpec emits may reach the
	// store (and, on the disk backend, the filesystem). Anything else
	// can name no record, so it is a plain miss.
	if !store.ValidHash(hash) {
		httpError(w, http.StatusNotFound, "no record under %.12s (not a valid hash)", hash)
		return
	}
	rec, ok, err := s.store.Get(hash)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "get %.12s: %v", hash, err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no record under %.12s", hash)
		return
	}
	writeJSON(w, rec)
}

func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	hash := r.PathValue("hash")
	if !store.ValidHash(hash) {
		httpError(w, http.StatusBadRequest,
			"bad hash %q: want 64 lowercase hex characters", hash)
		return
	}
	// Payload records (a whole sweep table or trace recording) are the
	// large case; 16 MiB is far above any real record.
	var rec store.Record
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 16<<20), &rec); err != nil {
		httpError(w, http.StatusBadRequest, "bad record: %v", err)
		return
	}
	if rec.Hash == "" {
		rec.Hash = hash
	}
	if rec.Hash != hash {
		httpError(w, http.StatusBadRequest,
			"record hash %.12s does not match path hash %.12s", rec.Hash, hash)
		return
	}
	// Validate before Put so a malformed record is the client's 400
	// (with per-field errors) and only real disk trouble is our 500.
	if err := rec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.store.Put(&rec); err != nil {
		httpError(w, http.StatusInternalServerError, "put %s: %v", rec.Cell, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStoreClaims(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	var req store.ClaimRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad claim request: %v", err)
		return
	}
	if !store.ValidHash(req.Hash) {
		httpError(w, http.StatusBadRequest,
			"bad hash %q: want 64 lowercase hex characters", req.Hash)
		return
	}
	if req.Owner == "" {
		httpError(w, http.StatusBadRequest, "claim needs an owner")
		return
	}
	switch req.Op {
	case "claim":
		if req.TTLMS <= 0 {
			httpError(w, http.StatusBadRequest, "claim needs ttl_ms > 0")
			return
		}
		cl, err := s.store.Claim(req.Hash, req.Owner, time.Duration(req.TTLMS)*time.Millisecond)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "claim %.12s: %v", req.Hash, err)
			return
		}
		writeJSON(w, cl)
	case "release":
		if err := s.store.Release(req.Hash, req.Owner); err != nil {
			httpError(w, http.StatusInternalServerError, "release %.12s: %v", req.Hash, err)
			return
		}
		writeJSON(w, map[string]bool{"released": true})
	default:
		httpError(w, http.StatusBadRequest, "unknown claim op %q (want claim or release)", req.Op)
	}
}

func (s *Server) handleStoreInvalidate(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	var req store.InvalidateRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad invalidate request: %v", err)
		return
	}
	re, err := regexp.Compile(req.Pattern)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad pattern: %v", err)
		return
	}
	n, err := s.store.Invalidate(re)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "invalidate: %v", err)
		return
	}
	s.store.Flush()
	writeJSON(w, map[string]int{"removed": n})
}

func (s *Server) handleStoreFlush(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	if err := s.store.Flush(); err != nil {
		httpError(w, http.StatusInternalServerError, "flush: %v", err)
		return
	}
	writeJSON(w, map[string]bool{"flushed": true})
}
