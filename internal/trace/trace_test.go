package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/store"
)

// The recorder tees the machine's event stream without touching the
// simulation, and the simulator is fully deterministic — so a recording
// is a pure function of (app, size, nprocs, seed, cfg), down to the
// nanosecond. These tables pin the exact recorded events of the
// smallest instance of each application; any drift in the apps, the
// CMMD layer, or the network model shows up here as a changed
// timestamp (and requires a TraceVersion bump if intended).
func TestRecordPinnedEvents(t *testing.T) {
	cfg := network.DefaultConfig()
	cases := []struct {
		app        string
		size, n    int
		seed       int64
		totalBytes int64
		events     []Event
	}{
		{
			// One 4x4 FFT on 2 nodes: the transpose exchanges one
			// half-array block in each direction, nothing else.
			app: "fft", size: 4, n: 2, seed: 1, totalBytes: 64,
			events: []Event{
				{Src: 1, Dst: 0, Tag: 0, Bytes: 32, Posted: 73280, Started: 73280, Ended: 82281},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 32, Posted: 163561, Started: 163561, Ended: 172562},
			},
		},
		{
			// A 12-vertex Euler mesh split across 2 nodes: one halo
			// message each way per time step, 4 steps, 96 B of conserved
			// state per message.
			app: "euler", size: 12, n: 2, seed: 1, totalBytes: 768,
			events: []Event{
				{Src: 1, Dst: 0, Tag: 0, Bytes: 96, Posted: 41920, Started: 41920, Ended: 54921},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 96, Posted: 138761, Started: 138761, Ended: 151762},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 96, Posted: 806202, Started: 806202, Ended: 819203},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 96, Posted: 903043, Started: 903043, Ended: 916044},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 96, Posted: 1570484, Started: 1570484, Ended: 1583485},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 96, Posted: 1667325, Started: 1667325, Ended: 1680326},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 96, Posted: 2334766, Started: 2334766, Ended: 2347767},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 96, Posted: 2431607, Started: 2431607, Ended: 2444608},
			},
		},
		{
			// A 12-vertex CG mesh across 2 nodes: one halo message each
			// way per iteration, 8 fixed iterations, 24 B each.
			app: "cg", size: 12, n: 2, seed: 1, totalBytes: 384,
			events: []Event{
				{Src: 1, Dst: 0, Tag: 0, Bytes: 24, Posted: 68080, Started: 68080, Ended: 77081},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 24, Posted: 158041, Started: 158041, Ended: 167042},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 24, Posted: 313202, Started: 313202, Ended: 322203},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 24, Posted: 403163, Started: 403163, Ended: 412164},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 24, Posted: 558324, Started: 558324, Ended: 567325},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 24, Posted: 648285, Started: 648285, Ended: 657286},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 24, Posted: 803446, Started: 803446, Ended: 812447},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 24, Posted: 893407, Started: 893407, Ended: 902408},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 24, Posted: 1048568, Started: 1048568, Ended: 1057569},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 24, Posted: 1138529, Started: 1138529, Ended: 1147530},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 24, Posted: 1293690, Started: 1293690, Ended: 1302691},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 24, Posted: 1383651, Started: 1383651, Ended: 1392652},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 24, Posted: 1538812, Started: 1538812, Ended: 1547813},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 24, Posted: 1628773, Started: 1628773, Ended: 1637774},
				{Src: 1, Dst: 0, Tag: 0, Bytes: 24, Posted: 1783934, Started: 1783934, Ended: 1792935},
				{Src: 0, Dst: 1, Tag: 0, Bytes: 24, Posted: 1873895, Started: 1873895, Ended: 1882896},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.app, func(t *testing.T) {
			tr, err := Record(c.app, c.size, c.n, c.seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tr.App != c.app || tr.Size != c.size || tr.Procs != c.n || tr.Seed != c.seed {
				t.Errorf("identifying inputs = (%s, %d, %d, %d), want (%s, %d, %d, %d)",
					tr.App, tr.Size, tr.Procs, tr.Seed, c.app, c.size, c.n, c.seed)
			}
			if tr.Version != TraceVersion {
				t.Errorf("Version = %d, want %d", tr.Version, TraceVersion)
			}
			if len(tr.Events) != len(c.events) {
				t.Fatalf("%d events, want %d:\n%v", len(tr.Events), len(c.events), tr.Events)
			}
			for i, want := range c.events {
				if tr.Events[i] != want {
					t.Errorf("event %d = %+v, want %+v", i, tr.Events[i], want)
				}
			}
			if tb := tr.TotalBytes(); tb != c.totalBytes {
				t.Errorf("TotalBytes = %d, want %d", tb, c.totalBytes)
			}
			if span := tr.Span(); span != c.events[len(c.events)-1].Ended {
				t.Errorf("Span = %d, want the last event's end %d", span, c.events[len(c.events)-1].Ended)
			}
		})
	}
}

// Recording the same tuple twice yields byte-identical canonical
// encodings — the determinism contract behind input-addressed hashes.
func TestRecordDeterministic(t *testing.T) {
	cfg := network.DefaultConfig()
	for _, app := range Apps() {
		t.Run(app, func(t *testing.T) {
			first, err := Record(app, 0, 4, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Record(app, 0, 4, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := first.Encode()
			if err != nil {
				t.Fatal(err)
			}
			b, err := second.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("double recording of %s differs:\n%s\n%s", app, a, b)
			}
			if len(first.Events) == 0 {
				t.Errorf("%s recorded no events", app)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := network.DefaultConfig()
	tr, err := Record("fft", 4, 2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Error("canonical encoding should end in a newline")
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("round trip not lossless:\n%s\n%s", data, again)
	}
}

func TestValidateRejectsMalformedTraces(t *testing.T) {
	ok := func() *Trace {
		return &Trace{
			Version: TraceVersion, App: "cg", Size: 12, Procs: 2, Seed: 1,
			Events: []Event{{Src: 0, Dst: 1, Bytes: 8, Posted: 1, Started: 2, Ended: 3}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"version", func(tr *Trace) { tr.Version = TraceVersion + 1 }, "version"},
		{"no app", func(tr *Trace) { tr.App = "" }, "app"},
		{"tiny machine", func(tr *Trace) { tr.Procs = 1 }, "processors"},
		{"no size", func(tr *Trace) { tr.Size = 0 }, "size"},
		{"src out of range", func(tr *Trace) { tr.Events[0].Src = 2 }, "endpoints"},
		{"dst out of range", func(tr *Trace) { tr.Events[0].Dst = -1 }, "endpoints"},
		{"self-send", func(tr *Trace) { tr.Events[0].Dst = 0 }, "self"},
		{"negative bytes", func(tr *Trace) { tr.Events[0].Bytes = -8 }, "negative size"},
		{"time order", func(tr *Trace) { tr.Events[0].Started = 5 }, "order"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := ok()
			if err := tr.Validate(); err != nil {
				t.Fatalf("baseline trace should validate: %v", err)
			}
			c.mutate(tr)
			err := tr.Validate()
			if err == nil {
				t.Fatal("mutated trace should not validate")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q should mention %q", err, c.want)
			}
		})
	}
}

func TestLookupUnknownAppListsNames(t *testing.T) {
	_, err := Lookup("bogus")
	if !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("err = %v, want ErrUnknownApp", err)
	}
	for _, name := range Apps() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q should list %q", err, name)
		}
	}
	if _, err := Record("bogus", 0, 4, 1, network.DefaultConfig()); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("Record should wrap ErrUnknownApp, got %v", err)
	}
}

// Sizes outside [0, MaxSize] fail before anything is allocated: a
// 10^6-edge fft would otherwise build a 10^6 x 10^6 complex array.
func TestRecordRejectsSizesOutsideBound(t *testing.T) {
	cfg := network.DefaultConfig()
	for _, name := range Apps() {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.DefaultSize <= 0 || a.DefaultSize > a.MaxSize {
			t.Errorf("%s: default size %d outside (0, MaxSize %d]", name, a.DefaultSize, a.MaxSize)
		}
		for _, size := range []int{-1, a.MaxSize + 1, 1000000} {
			if _, err := Record(name, size, 4, 1, cfg); err == nil || !strings.Contains(err.Error(), "must be in [0,") {
				t.Errorf("%s size %d: err = %v, want a range error", name, size, err)
			}
		}
	}
}

// The input-addressed hash is computable without recording and is
// sensitive to every identifying input.
func TestHashForAddressesInputs(t *testing.T) {
	cfg := network.DefaultConfig()
	base, err := HashFor("cg", 12, 2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same, err := HashFor("cg", 12, 2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Errorf("hash not stable: %s vs %s", base, same)
	}
	for name, h := range map[string]func() (string, error){
		"app":    func() (string, error) { return HashFor("fft", 12, 2, 1, cfg) },
		"size":   func() (string, error) { return HashFor("cg", 16, 2, 1, cfg) },
		"nprocs": func() (string, error) { return HashFor("cg", 12, 4, 1, cfg) },
		"seed":   func() (string, error) { return HashFor("cg", 12, 2, 2, cfg) },
	} {
		other, err := h()
		if err != nil {
			t.Fatal(err)
		}
		if other == base {
			t.Errorf("hash insensitive to %s", name)
		}
	}
}

// The library records once, persists the recording, and serves every
// later request — same process or a fresh one over the same store —
// from the stored bytes.
func TestLibraryPersistsRecordings(t *testing.T) {
	cfg := network.DefaultConfig()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(st)
	tr, err := lib.Get("cg", 12, 2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := HashFor("cg", 12, 2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(want); err != nil || !ok {
		t.Errorf("recording not stored under its input-addressed hash %s (ok=%v, err=%v)", want, ok, err)
	}
	again, err := lib.Get("cg", 12, 2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != tr {
		t.Error("second Get should memoize the first recording")
	}

	// A fresh library over the same directory loads the stored record
	// instead of re-recording: the traces must be byte-identical.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("store holds %d records, want 1", st2.Len())
	}
	loaded, err := NewLibrary(st2).Get("cg", 12, 2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tr.Encode()
	b, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("store round trip differs:\n%s\n%s", a, b)
	}

	// A memo-only library still works, it just re-records per process.
	memo, err := NewLibrary(nil).Get("cg", 12, 2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := memo.Encode(); !bytes.Equal(a, c) {
		t.Errorf("memo-only library differs from stored recording:\n%s\n%s", a, c)
	}
}

// A trace collapses to the traffic matrix the schedulers plan from:
// n x n, one entry per ordered pair, byte counts summed over events.
func TestPatternCollapse(t *testing.T) {
	tr := &Trace{
		Version: TraceVersion, App: "cg", Size: 12, Procs: 4, Seed: 1,
		Events: []Event{
			{Src: 0, Dst: 1, Bytes: 8, Posted: 0, Started: 0, Ended: 1},
			{Src: 0, Dst: 1, Bytes: 16, Posted: 1, Started: 1, Ended: 2},
			{Src: 3, Dst: 2, Bytes: 32, Posted: 2, Started: 2, Ended: 3},
		},
	}
	p, err := tr.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Fatalf("pattern is %d x %d, want 4 x 4", len(p), len(p))
	}
	if p[0][1] != 24 || p[3][2] != 32 {
		t.Errorf("collapsed entries = %d, %d; want 24, 32", p[0][1], p[3][2])
	}
	st := p.Stats()
	if st.Messages != 2 || st.TotalBytes != 56 {
		t.Errorf("stats = %d msgs %d bytes, want 2 msgs 56 bytes", st.Messages, st.TotalBytes)
	}
}
