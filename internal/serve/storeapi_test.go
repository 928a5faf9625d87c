package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/store"
)

// newStoreAPIServer mounts a real disk store behind the daemon's
// /v1/store API and returns an HTTPBackend speaking to it over real
// sockets — the full distributed-store stack in one process.
func newStoreAPIServer(t *testing.T) (*store.Store, *store.HTTPBackend) {
	t.Helper()
	disk := testStore(t)
	ts := httptest.NewServer(New(network.DefaultConfig(), disk).Handler())
	t.Cleanup(ts.Close)
	remote, err := store.NewHTTPBackend(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return disk, remote
}

func payloadRecord(t *testing.T, family, cell string, payload string) *store.Record {
	t.Helper()
	rec, err := store.NewRecord(family, cell, store.Spec{"family": family, "cell": cell})
	if err != nil {
		t.Fatal(err)
	}
	rec.Payload = json.RawMessage(payload)
	return rec
}

// TestHTTPBackendRoundTrip drives the Backend interface end to end
// through the daemon: what a worker Puts over HTTP, the disk store
// holds, and any other worker Gets back — payload, writes, index and
// all.
func TestHTTPBackendRoundTrip(t *testing.T) {
	disk, remote := newStoreAPIServer(t)

	if err := remote.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if loc := remote.Location(); !strings.HasPrefix(loc, "http://") {
		t.Fatalf("Location() = %q, want the server URL", loc)
	}

	// Miss before anything is stored.
	if _, ok, err := remote.Get("00deadbeef00"); err != nil || ok {
		t.Fatalf("get on empty store: ok=%v err=%v", ok, err)
	}

	rec := payloadRecord(t, "fig5", "fig5/LEX/N32/256B", `{"x":1}`)
	rec.Writes = []store.Write{{Row: 0, Col: 1, Val: "42.5"}}
	rec.Values = map[string]float64{"ms": 42.5}
	if err := remote.Put(rec); err != nil {
		t.Fatalf("put over HTTP: %v", err)
	}

	// The record is on the daemon's disk...
	if got, ok, err := disk.Get(rec.Hash); err != nil || !ok || string(got.Payload) == "" {
		t.Fatalf("record did not land on the daemon's disk store: ok=%v err=%v", ok, err)
	}
	// ...and comes back over HTTP intact.
	got, ok, err := remote.Get(rec.Hash)
	if err != nil || !ok {
		t.Fatalf("get over HTTP: ok=%v err=%v", ok, err)
	}
	if got.Family != "fig5" || got.Cell != rec.Cell || len(got.Writes) != 1 || got.Values["ms"] != 42.5 {
		t.Fatalf("round-tripped record mangled: %+v", got)
	}
	var payload map[string]int
	if err := json.Unmarshal(got.Payload, &payload); err != nil || payload["x"] != 1 {
		t.Fatalf("payload mangled: %s (err=%v)", got.Payload, err)
	}

	if remote.Len() != 1 {
		t.Fatalf("remote Len = %d, want 1", remote.Len())
	}
	idx := remote.Index()
	if len(idx) != 1 || idx[0].Hash != rec.Hash || idx[0].Cell != rec.Cell {
		t.Fatalf("remote index = %+v", idx)
	}
	all, err := remote.All()
	if err != nil || len(all) != 1 || all[0].Hash != rec.Hash {
		t.Fatalf("remote All = %d records (err=%v)", len(all), err)
	}

	// Invalidate through the API removes it everywhere.
	n, err := remote.Invalidate(regexp.MustCompile(`fig5/`))
	if err != nil || n != 1 {
		t.Fatalf("invalidate: removed %d (err=%v)", n, err)
	}
	if disk.Len() != 0 || remote.Len() != 0 {
		t.Fatalf("record survived invalidate: disk=%d remote=%d", disk.Len(), remote.Len())
	}
	if err := remote.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// TestHTTPBackendClaims exercises the lease protocol over the wire:
// acquire, conflict, refresh, release, and steal-after-expiry behave
// exactly like the disk store's — the server's store arbitrates.
func TestHTTPBackendClaims(t *testing.T) {
	_, remote := newStoreAPIServer(t)
	// The wire API only accepts the full 64-hex form HashSpec emits.
	hash := strings.Repeat("ab12cd34", 8)

	cl, err := remote.Claim(hash, "w1", time.Minute)
	if err != nil || !cl.Acquired || cl.Stolen {
		t.Fatalf("first claim = %+v err=%v, want acquired fresh", cl, err)
	}
	// A second worker bounces off and learns the holder.
	cl2, err := remote.Claim(hash, "w2", time.Minute)
	if err != nil || cl2.Acquired || cl2.Holder != "w1" {
		t.Fatalf("conflicting claim = %+v err=%v, want refused with holder w1", cl2, err)
	}
	// The holder refreshes.
	cl3, err := remote.Claim(hash, "w1", time.Hour)
	if err != nil || !cl3.Acquired || cl3.ExpiresUnixNS <= cl.ExpiresUnixNS {
		t.Fatalf("refresh = %+v err=%v (previous expiry %d)", cl3, err, cl.ExpiresUnixNS)
	}
	// Release frees it.
	if err := remote.Release(hash, "w1"); err != nil {
		t.Fatal(err)
	}
	if cl, err := remote.Claim(hash, "w2", time.Minute); err != nil || !cl.Acquired {
		t.Fatalf("claim after release = %+v err=%v", cl, err)
	}

	// Work-stealing over HTTP: a dead worker's expired lease is stolen.
	dead := strings.Repeat("deadbeef", 8)
	if cl, err := remote.Claim(dead, "dead-worker", time.Millisecond); err != nil || !cl.Acquired {
		t.Fatalf("seed claim = %+v err=%v", cl, err)
	}
	time.Sleep(5 * time.Millisecond)
	cl4, err := remote.Claim(dead, "thief", time.Minute)
	if err != nil || !cl4.Acquired || !cl4.Stolen {
		t.Fatalf("claim on expired lease = %+v err=%v, want acquired with Stolen", cl4, err)
	}
}

// TestStoreAPIRejections pins the API's failure modes: no store → 503
// on every route; malformed records → 400 with per-field errors; a
// path/record hash mismatch → 400.
func TestStoreAPIRejections(t *testing.T) {
	storeless := New(network.DefaultConfig(), nil).Handler()
	for _, req := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/store/index", ""},
		{http.MethodGet, "/v1/store/objects/abcdef012345", ""},
		{http.MethodPut, "/v1/store/objects/abcdef012345", "{}"},
		{http.MethodPost, "/v1/store/claims", `{"op":"claim","hash":"ab","owner":"w","ttl_ms":1000}`},
		{http.MethodPost, "/v1/store/invalidate", `{"pattern":"x"}`},
		{http.MethodPost, "/v1/store/flush", ""},
	} {
		r := httptest.NewRequest(req.method, req.path, strings.NewReader(req.body))
		w := httptest.NewRecorder()
		storeless.ServeHTTP(w, r)
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s without a store: status %d, want 503", req.method, req.path, w.Code)
		}
	}

	h := New(network.DefaultConfig(), testStore(t)).Handler()

	// A record whose spec does not hash to the path is refused with the
	// validator's per-field error, and nothing is stored.
	rec := payloadRecord(t, "fig5", "fig5/LEX/N32/0B", `{}`)
	body, _ := json.Marshal(rec)
	r := httptest.NewRequest(http.MethodPut, "/v1/store/objects/"+strings.Repeat("0", 64), strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "does not match path hash") {
		t.Fatalf("hash-mismatched PUT: status %d body %s", w.Code, w.Body)
	}

	// A malformed record (empty family) is a 400 naming the field.
	bad := `{"hash":"` + rec.Hash + `","cell":"c","spec":{"family":"fig5","cell":"fig5/LEX/N32/0B"}}`
	r = httptest.NewRequest(http.MethodPut, "/v1/store/objects/"+rec.Hash, strings.NewReader(bad))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "family: empty") {
		t.Fatalf("malformed PUT: status %d body %s", w.Code, w.Body)
	}

	// Claim requests are validated too.
	for _, body := range []string{
		`{"op":"claim","hash":"ab","owner":"","ttl_ms":1000}`,
		`{"op":"claim","hash":"ab","owner":"w"}`,
		`{"op":"chew","hash":"ab","owner":"w"}`,
		`{"op":"claim","hash":"x","owner":"w","ttl_ms":1000}`,
	} {
		w := post(h, "/v1/store/claims", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("claim %s: status %d, want 400", body, w.Code)
		}
	}

	// GET of an absent record is a 404 the client maps to a miss.
	if w := get(h, "/v1/store/objects/"+strings.Repeat("1", 64)); w.Code != http.StatusNotFound {
		t.Fatalf("absent object: status %d, want 404", w.Code)
	}

	// Traversal-shaped hashes never reach the filesystem. ServeMux
	// decodes %2F inside the {hash} wildcard, so the encoded form
	// arrives at the handler with real slashes; GET treats anything
	// that is not a well-formed hash as a plain miss, while PUT and
	// claims refuse it outright.
	for _, path := range []string{
		"/v1/store/objects/..%2F..%2F..%2Fetc%2Fpasswd",
		"/v1/store/objects/..%2Findex",
	} {
		if w := get(h, path); w.Code != http.StatusNotFound {
			t.Errorf("traversal GET %s: status %d, want 404", path, w.Code)
		}
	}
	r = httptest.NewRequest(http.MethodPut, "/v1/store/objects/..%2F..%2Fpwn", strings.NewReader("{}"))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Errorf("traversal PUT: status %d, want 400", w.Code)
	}
	if w := post(h, "/v1/store/claims",
		`{"op":"claim","hash":"../../../../tmp/pwn","owner":"w","ttl_ms":1000}`); w.Code != http.StatusBadRequest {
		t.Errorf("traversal claim: status %d, want 400", w.Code)
	}
}

// TestStoreAPIRejectsTrailingData: a second JSON document after a
// store request body is a 400, and the request it trails is not
// carried out — nothing is stored, leased or removed.
func TestStoreAPIRejectsTrailingData(t *testing.T) {
	st := testStore(t)
	kept := payloadRecord(t, "fig5", "fig5/LEX/N32/0B", `{}`)
	if err := st.Put(kept); err != nil {
		t.Fatal(err)
	}
	h := New(network.DefaultConfig(), st).Handler()

	fresh := payloadRecord(t, "fig5", "fig5/PEX/N32/0B", `{}`)
	recBody, _ := json.Marshal(fresh)
	claim := `{"op":"claim","hash":"` + kept.Hash + `","owner":"w1","ttl_ms":60000}`
	for _, req := range []struct{ name, method, path, body string }{
		{"put", http.MethodPut, "/v1/store/objects/" + fresh.Hash, string(recBody) + `{}`},
		{"claims", http.MethodPost, "/v1/store/claims", claim + `{"op":"release"}`},
		{"invalidate", http.MethodPost, "/v1/store/invalidate", `{"pattern":"x"}{"pattern":".*"}`},
	} {
		r := httptest.NewRequest(req.method, req.path, strings.NewReader(req.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "trailing data") {
			t.Errorf("%s with trailing data: status %d body %s, want 400 naming the trailing data",
				req.name, w.Code, w.Body)
		}
	}

	if _, ok, _ := st.Get(fresh.Hash); ok {
		t.Error("a PUT with trailing data stored its record")
	}
	if cl, err := st.Claim(kept.Hash, "w2", time.Minute); err != nil || !cl.Acquired {
		t.Errorf("a claim with trailing data leased the hash: %+v %v", cl, err)
	}
	if _, ok, _ := st.Get(kept.Hash); !ok {
		t.Error("an invalidate with trailing data removed a record")
	}
}

// TestHTTPBackendRetriesTransientErrors drops every other connection
// at the server before a byte of response is written and verifies the
// client retries through it: a brief daemon hiccup must degrade into
// latency, not into the firstErr that cancels a whole leased sweep.
func TestHTTPBackendRetriesTransientErrors(t *testing.T) {
	disk := testStore(t)
	real := New(network.DefaultConfig(), disk).Handler()
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close() // the client sees a dropped connection
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	remote, err := store.NewHTTPBackend(flaky.URL)
	if err != nil {
		t.Fatal(err)
	}

	rec := payloadRecord(t, "fig5", "fig5/LEX/N32/256B", `{"x":1}`)
	if err := remote.Put(rec); err != nil {
		t.Fatalf("put through flaky server: %v", err)
	}
	if _, ok, err := remote.Get(rec.Hash); err != nil || !ok {
		t.Fatalf("get through flaky server: ok=%v err=%v", ok, err)
	}
	if cl, err := remote.Claim(rec.Hash, "w1", time.Minute); err != nil || !cl.Acquired {
		t.Fatalf("claim through flaky server: %+v err=%v", cl, err)
	}
	if err := remote.Release(rec.Hash, "w1"); err != nil {
		t.Fatalf("release through flaky server: %v", err)
	}
	if got := disk.Len(); got != 1 {
		t.Fatalf("disk store has %d records after flaky put, want 1", got)
	}
}
