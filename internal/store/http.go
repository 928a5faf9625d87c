package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"sort"
	"strings"
	"time"
)

// HTTPBackend is the remote store client: a Backend that speaks to the
// /v1/store API a cmserve daemon mounts over its disk store. Many
// worker processes — or machines — pointing their -store flag at one
// daemon URL share a single result store and claim space, which is
// what turns a sweep into a distributed computation: the records, the
// leases, and therefore the work partition all live on the server.
//
// Wire protocol (one route per Backend method, JSON bodies):
//
//	GET  /v1/store/objects/{hash}  -> Record        (404: miss)
//	PUT  /v1/store/objects/{hash}  <- Record        (204)
//	GET  /v1/store/index           -> {len, entries: [{hash,family,cell}]}
//	POST /v1/store/claims          <- {op, hash, owner, ttl_ms} -> Claim
//	POST /v1/store/invalidate     <- {pattern}     -> {removed}
//	POST /v1/store/flush                            -> {flushed}
type HTTPBackend struct {
	base string // scheme://host[:port], no trailing slash
	c    *http.Client
	// retries/retryDelay govern transient-failure retries (see doRetry);
	// fixed by NewHTTPBackend, overridable in tests.
	retries    int
	retryDelay time.Duration
}

// NewHTTPBackend returns a Backend speaking to the /v1/store API at
// base ("http://host:port" or "https://..."). No network traffic
// happens here; Ping checks reachability.
func NewHTTPBackend(base string) (*HTTPBackend, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("store: bad URL %q: %w", base, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("store: URL %q must be http(s)://host[:port]", base)
	}
	return &HTTPBackend{
		base:       strings.TrimRight(base, "/"),
		c:          &http.Client{Timeout: 60 * time.Second},
		retries:    3,
		retryDelay: 100 * time.Millisecond,
	}, nil
}

// doRetry performs one API call, retrying transport-level failures (a
// daemon restarting, a dropped connection) with exponential backoff
// before giving up. mk builds a fresh request per attempt, because a
// request body is consumed by the attempt that fails.
//
// Blanket retries are safe here because every /v1/store call is
// idempotent: Get and index trivially; Put because records are
// content-addressed (a replayed Put writes the same bytes under the
// same hash); claim because re-claiming under the same owner is a
// refresh; release and invalidate because removing twice removes once.
// Without this, one transient network error inside a leased sweep
// would become the sweep's first cell error and cancel every in-flight
// worker — a fleet built to survive worker deaths would die of a
// single dropped packet.
func (b *HTTPBackend) doRetry(mk func() (*http.Request, error)) (*http.Response, error) {
	retries := b.retries
	if retries < 1 {
		retries = 1
	}
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			time.Sleep(b.retryDelay << (attempt - 1))
		}
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := b.c.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// getRetry is doRetry specialized to a bare GET of url.
func (b *HTTPBackend) getRetry(url string) (*http.Response, error) {
	return b.doRetry(func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	})
}

// Location implements Backend.Location: the server URL.
func (b *HTTPBackend) Location() string { return b.base }

// apiError lifts a non-2xx response into an error carrying the
// server's JSON error document when it sent one.
func apiError(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		return fmt.Errorf("store: %s: %s (HTTP %d)", op, doc.Error, resp.StatusCode)
	}
	return fmt.Errorf("store: %s: HTTP %d", op, resp.StatusCode)
}

// Ping verifies the server is reachable and serves the store API.
func (b *HTTPBackend) Ping() error {
	resp, err := b.getRetry(b.base + "/v1/store/index")
	if err != nil {
		return fmt.Errorf("store: ping %s: %w", b.base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return apiError("ping "+b.base, resp)
	}
	return nil
}

// Get implements Backend.Get over GET /v1/store/objects/{hash}.
func (b *HTTPBackend) Get(hash string) (*Record, bool, error) {
	if len(hash) < 2 {
		return nil, false, fmt.Errorf("store: bad hash %q", hash)
	}
	resp, err := b.getRetry(b.base + "/v1/store/objects/" + url.PathEscape(hash))
	if err != nil {
		return nil, false, fmt.Errorf("store: get %.12s: %w", hash, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, apiError(fmt.Sprintf("get %.12s", hash), resp)
	}
	var rec Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return nil, false, fmt.Errorf("store: get %.12s: decode: %w", hash, err)
	}
	if rec.Schema != SchemaVersion {
		// Same rule as the disk store: a foreign-schema record misses.
		return nil, false, nil
	}
	return &rec, true, nil
}

// Put implements Backend.Put over PUT /v1/store/objects/{hash}. The
// record is validated client-side first, so a malformed one is
// rejected with per-field errors before any bytes hit the wire.
func (b *HTTPBackend) Put(rec *Record) error {
	rec.Schema = SchemaVersion
	if rec.Hash == "" {
		h, err := HashSpec(rec.Spec)
		if err != nil {
			return err
		}
		rec.Hash = h
	}
	if err := rec.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", rec.Cell, err)
	}
	resp, err := b.doRetry(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPut,
			b.base+"/v1/store/objects/"+url.PathEscape(rec.Hash), bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return fmt.Errorf("store: put %s: %w", rec.Cell, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return apiError("put "+rec.Cell, resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// IndexDoc is the wire form of GET /v1/store/index; the cmserve
// handler encodes it and HTTPBackend decodes it.
type IndexDoc struct {
	Len     int          `json:"len"`
	Entries []IndexEntry `json:"entries"`
}

func (b *HTTPBackend) index() (*IndexDoc, error) {
	resp, err := b.getRetry(b.base + "/v1/store/index")
	if err != nil {
		return nil, fmt.Errorf("store: index: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError("index", resp)
	}
	var doc IndexDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("store: index: decode: %w", err)
	}
	return &doc, nil
}

// Len implements Backend.Len; unreachable servers count as empty (the
// gauges and banners that call Len must never fail a sweep).
func (b *HTTPBackend) Len() int {
	doc, err := b.index()
	if err != nil {
		return 0
	}
	return doc.Len
}

// Index implements Backend.Index; unreachable servers report empty for
// the same reason Len reports 0.
func (b *HTTPBackend) Index() []IndexEntry {
	doc, err := b.index()
	if err != nil {
		return nil
	}
	return doc.Entries
}

// All implements Backend.All: the index enumerates, Get fetches, and
// the result sorts by (family, cell, hash) exactly like the disk
// store's.
func (b *HTTPBackend) All() ([]*Record, error) {
	doc, err := b.index()
	if err != nil {
		return nil, err
	}
	recs := make([]*Record, 0, len(doc.Entries))
	for _, e := range doc.Entries {
		rec, ok, err := b.Get(e.Hash)
		if err != nil {
			return nil, err
		}
		if ok {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, c := recs[i], recs[j]
		if a.Family != c.Family {
			return a.Family < c.Family
		}
		if a.Cell != c.Cell {
			return a.Cell < c.Cell
		}
		return a.Hash < c.Hash
	})
	return recs, nil
}

// postJSON posts a JSON document and decodes the JSON reply into out.
func (b *HTTPBackend) postJSON(path, op string, in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := b.doRetry(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, b.base+path, bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return fmt.Errorf("store: %s: %w", op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(op, resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("store: %s: decode: %w", op, err)
	}
	return nil
}

// ClaimRequest is the wire form of POST /v1/store/claims — the
// request Claim and Release send and the cmserve handler decodes.
type ClaimRequest struct {
	Op    string `json:"op"` // "claim" or "release"
	Hash  string `json:"hash"`
	Owner string `json:"owner"`
	TTLMS int64  `json:"ttl_ms,omitempty"`
}

// Claim implements Backend.Claim over POST /v1/store/claims; the
// server's disk store arbitrates, so workers on different machines
// contend exactly like local processes sharing a directory.
func (b *HTTPBackend) Claim(hash, owner string, ttl time.Duration) (Claim, error) {
	var cl Claim
	err := b.postJSON("/v1/store/claims", fmt.Sprintf("claim %.12s", hash),
		ClaimRequest{Op: "claim", Hash: hash, Owner: owner, TTLMS: ttl.Milliseconds()}, &cl)
	return cl, err
}

// Release implements Backend.Release over POST /v1/store/claims.
func (b *HTTPBackend) Release(hash, owner string) error {
	return b.postJSON("/v1/store/claims", fmt.Sprintf("release %.12s", hash),
		ClaimRequest{Op: "release", Hash: hash, Owner: owner}, nil)
}

// InvalidateRequest is the wire form of POST /v1/store/invalidate.
type InvalidateRequest struct {
	Pattern string `json:"pattern"`
}

// Invalidate implements Backend.Invalidate over POST
// /v1/store/invalidate; the regexp is applied server-side.
func (b *HTTPBackend) Invalidate(re *regexp.Regexp) (int, error) {
	var doc struct {
		Removed int `json:"removed"`
	}
	if err := b.postJSON("/v1/store/invalidate", "invalidate", InvalidateRequest{Pattern: re.String()}, &doc); err != nil {
		return 0, err
	}
	return doc.Removed, nil
}

// Flush implements Backend.Flush over POST /v1/store/flush, asking the
// server to rewrite its index.json.
func (b *HTTPBackend) Flush() error {
	return b.postJSON("/v1/store/flush", "flush", struct{}{}, nil)
}

// Compile-time interface checks: both backends satisfy Backend.
var (
	_ Backend = (*Store)(nil)
	_ Backend = (*HTTPBackend)(nil)
)
