package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/network"
)

const bexSpec = `{"algorithm":"BEX","n":32,"bytes":1024}`

// oneshot runs runOneshot over path with stdin as its input and
// returns what it printed.
func oneshot(t *testing.T, path, stdin string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := runOneshot(path, strings.NewReader(stdin), &out, network.DefaultConfig()); err != nil {
		t.Fatalf("oneshot %s: %v", path, err)
	}
	return out.Bytes()
}

// postJob sends one job spec to a live daemon and returns the body and
// its X-Cache verdict.
func postJob(t *testing.T, url, spec string) ([]byte, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs: status %d, body %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Cache")
}

// TestOneshotMatchesServedJob holds the daemon, built exactly as main
// builds it, to the offline path over loopback TCP: the served body is
// byte-identical to -oneshot for the same spec, and the repeat is a
// store hit carrying the same bytes.
func TestOneshotMatchesServedJob(t *testing.T) {
	specFile := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specFile, []byte(bexSpec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := oneshot(t, specFile, "")

	srv, st, err := newServer(network.DefaultConfig(), t.TempDir(), 2, 64, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	served, cache := postJob(t, hs.URL, bexSpec)
	if cache != "miss" {
		t.Fatalf("first request: X-Cache %q, want miss", cache)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served body differs from -oneshot:\nserved:  %s\noneshot: %s", served, want)
	}
	again, cache := postJob(t, hs.URL, bexSpec)
	if cache != "hit" {
		t.Fatalf("repeat request: X-Cache %q, want hit", cache)
	}
	if !bytes.Equal(again, served) {
		t.Fatalf("store hit differs from the first body:\nhit:   %s\nfirst: %s", again, served)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records, want 1", st.Len())
	}
}

// TestOneshotStdinAndBadSpec: "-" reads the spec from stdin, and a
// spec with a field the API does not know, or with anything after it,
// is rejected, not ignored.
func TestOneshotStdinAndBadSpec(t *testing.T) {
	specFile := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specFile, []byte(bexSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := oneshot(t, "-", bexSpec), oneshot(t, specFile, ""); !bytes.Equal(got, want) {
		t.Fatalf("stdin spec differs from file spec:\nstdin: %s\nfile:  %s", got, want)
	}

	if got := oneshot(t, "-", bexSpec+"\n\t \n"); !bytes.Equal(got, oneshot(t, specFile, "")) {
		t.Fatalf("trailing whitespace changed the payload: %s", got)
	}

	for _, tc := range []struct{ name, spec, want string }{
		{"unknown field", `{"algorithm":"BEX","n":32,"bytes":1024,"nodes":32}`, "unknown field"},
		{"second spec", bexSpec + `{"algorithm":"LEX"}`, "trailing data"},
	} {
		var out bytes.Buffer
		err := runOneshot("-", strings.NewReader(tc.spec), &out, network.DefaultConfig())
		if err == nil || !strings.Contains(err.Error(), "bad job spec") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %v, want a bad job spec error naming %q", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: rejected spec still printed %q", tc.name, out.String())
		}
	}
}
