package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// The simulator is fully deterministic, so cmtrace's reports are too:
// each case must match its golden file byte for byte. The per-level
// fat-tree utilization table is fed from Result.LevelUtilization, the
// -steps table from Result.StepTimes, and the -nodes table from
// Result.Trace.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"pex_n16_256.golden", []string{"-alg", "pex", "-n", "16", "-bytes", "256"}},
		{"bex_n16_1024_steps.golden", []string{"-alg", "bex", "-n", "16", "-bytes", "1024", "-steps"}},
		{"gs_hotspot_n16.golden", []string{"-alg", "gs", "-n", "16", "-pattern", "hotspot", "-bytes", "256", "-nodes"}},
		{"bs_bisection_n16_dragonfly.golden", []string{"-alg", "bs", "-n", "16", "-pattern", "bisection",
			"-bytes", "256", "-topo", "dragonfly", "-links"}},
		{"pex_n16_torus2d_links.golden", []string{"-alg", "pex", "-n", "16", "-bytes", "256",
			"-topo", "torus2d", "-links"}},
		{"record_fft_n4_s8.golden", []string{"-record", "fft", "-n", "4", "-size", "8"}},
		{"replay_cg_n8_s64_bs.golden", []string{"-replay", "cg", "-n", "8", "-size", "64",
			"-alg", "bs", "-nodes"}},
		{"replay_euler_n8_gs.golden", []string{"-replay", "euler", "-n", "8", "-alg", "gs"}},
		{"plan_gs_n16_d04.golden", []string{"-plan", "-alg", "gs", "-n", "16", "-density", "0.4"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.golden)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s (rerun with -update to regenerate):\ngot:\n%s\nwant:\n%s",
					path, out.Bytes(), want)
			}
		})
	}
}

func TestUnknownAlgorithmListsRegistry(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-alg", "bogus"}, &out)
	if err == nil {
		t.Fatal("unknown algorithm should error")
	}
	for _, name := range []string{"LEX", "GS", "allgather"} {
		if !bytes.Contains([]byte(err.Error()), []byte(name)) {
			t.Errorf("error should list registry name %s: %v", name, err)
		}
	}
}

func TestUnknownTopologyListsNames(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-alg", "pex", "-topo", "moebius"}, &out)
	if err == nil {
		t.Fatal("unknown topology should error")
	}
	for _, name := range []string{"fat-tree", "torus2d", "hypercube", "dragonfly"} {
		if !bytes.Contains([]byte(err.Error()), []byte(name)) {
			t.Errorf("error should list topology name %s: %v", name, err)
		}
	}
}

// A trace recorded to a file replays identically to recording the same
// app on the fly: the file round-trip (Encode, Decode) is lossless.
func TestReplayFileMatchesReplayApp(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "cg.trace")
	var recOut bytes.Buffer
	if err := run([]string{"-record", "cg", "-n", "8", "-size", "64", "-out", file}, &recOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(recOut.Bytes(), []byte("recorded cg: size 64, 8 nodes, seed 1 -> ")) {
		t.Errorf("unexpected -record summary: %s", recOut.Bytes())
	}
	var fromFile, fromApp bytes.Buffer
	if err := run([]string{"-replay", file, "-alg", "bs"}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", "cg", "-n", "8", "-size", "64", "-alg", "bs"}, &fromApp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFile.Bytes(), fromApp.Bytes()) {
		t.Errorf("file replay differs from on-the-fly replay:\nfile:\n%s\napp:\n%s",
			fromFile.Bytes(), fromApp.Bytes())
	}
}

func TestUnknownTraceAppListsNames(t *testing.T) {
	for _, args := range [][]string{
		{"-record", "bogus"},
		{"-replay", "bogus", "-alg", "bs"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Fatalf("%v: unknown app should error", args)
		}
		for _, name := range []string{"cg", "fft", "euler"} {
			if !bytes.Contains([]byte(err.Error()), []byte(name)) {
				t.Errorf("%v: error should list app name %s: %v", args, name, err)
			}
		}
	}
}

func TestReplayNeedsIrregularScheduler(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-replay", "cg", "-alg", "pex"}, &out)
	if err == nil {
		t.Fatal("replay with a regular algorithm should error")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("irregular scheduler")) {
		t.Errorf("error should explain the irregular-scheduler requirement: %v", err)
	}
}

func TestUnknownPatternListsWorkloads(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-alg", "gs", "-pattern", "bogus"}, &out)
	if err == nil {
		t.Fatal("unknown workload should error")
	}
	for _, name := range []string{"transpose", "hotspot", "bisection"} {
		if !bytes.Contains([]byte(err.Error()), []byte(name)) {
			t.Errorf("error should list workload name %s: %v", name, err)
		}
	}
}

// TestSpecMatchesServe holds cmtrace -spec to the serving path: for
// each spec, the report's headline (steps, messages, makespan) equals
// the serve.RunOne payload's steps, messages and elapsed_ms, because
// both lower the spec through cm5.Spec.Job.
func TestSpecMatchesServe(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"bex", `{"algorithm":"BEX","n":32,"bytes":1024}`},
		{"gs synthetic", `{"algorithm":"GS","n":32,"bytes":256,"workload":"synthetic","density":0.25,"seed":7}`},
		{"bs bisection dragonfly", `{"algorithm":"BS","n":16,"bytes":256,"workload":"bisection","topology":"dragonfly"}`},
		{"bs cg trace", `{"algorithm":"BS","n":8,"trace":"cg","trace_size":64}`},
		{"ps butterfly hypercube link-down", `{"algorithm":"PS","n":16,"bytes":256,"workload":"butterfly",` +
			`"topology":"hypercube","fault_profile":"link-down","seed":3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "spec.json")
			if err := os.WriteFile(file, []byte(tc.spec), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run([]string{"-spec", file}, &out); err != nil {
				t.Fatal(err)
			}
			var js serve.JobSpec
			if err := json.Unmarshal([]byte(tc.spec), &js); err != nil {
				t.Fatal(err)
			}
			payload, err := serve.RunOne(js, network.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			var doc serve.JobResult
			if err := json.Unmarshal(payload, &doc); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%s on %d nodes: %d steps, %d messages, makespan %s ms",
				doc.Result.Algorithm, js.N, doc.Result.Steps, doc.Result.Messages, doc.Result.ElapsedMS)
			if !strings.Contains(out.String(), want+"\n") {
				t.Fatalf("report does not carry the served headline %q:\n%s", want, out.String())
			}
		})
	}
}

// -spec reads stdin for "-", and excludes every flag that would also
// describe the job.
func TestSpecStdinAndJobFlags(t *testing.T) {
	file := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(file, []byte(`{"algorithm":"PEX","n":16,"bytes":256}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFlags, fromFile, fromStdin bytes.Buffer
	if err := run([]string{"-alg", "pex", "-n", "16", "-bytes", "256"}, &fromFlags); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", file}, &fromFile); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdin := os.Stdin
	os.Stdin = f
	err = run([]string{"-spec", "-"}, &fromStdin)
	os.Stdin = stdin
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFile.Bytes(), fromFlags.Bytes()) || !bytes.Equal(fromStdin.Bytes(), fromFlags.Bytes()) {
		t.Errorf("the same job differs by source:\nflags:\n%s\nfile:\n%s\nstdin:\n%s", &fromFlags, &fromFile, &fromStdin)
	}

	for _, flagName := range jobFlags {
		var out bytes.Buffer
		err := run([]string{"-spec", file, "-" + flagName, "1"}, &out)
		if err == nil || !strings.Contains(err.Error(), "-"+flagName) {
			t.Errorf("-spec with -%s: err %v, want one naming the flag", flagName, err)
		}
	}
	var out bytes.Buffer
	if err := os.WriteFile(file, []byte(`{"algorithm":"PEX","n":16}{"algorithm":"LEX"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", file}, &out); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("two specs in one file: err %v, want trailing data", err)
	}
}

// -plan renders a regular schedule exactly as cmexp's schedules listing
// does (the paper's Table 2 for PEX on 8 nodes), then the per-step
// top-of-tree crossings: none in PEX's first three steps, all four
// pairs in the rest (Section 3.4).
func TestPlanMatchesScheduleTables(t *testing.T) {
	tables := exp.ScheduleTables()
	start := strings.Index(tables, "PEX schedule")
	end := strings.Index(tables, "REX schedule")
	if start < 0 || end < start {
		t.Fatalf("no PEX block in exp.ScheduleTables():\n%s", tables)
	}
	var out bytes.Buffer
	if err := run([]string{"-plan", "-alg", "pex", "-n", "8", "-bytes", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	want := tables[start:end] + "top-of-tree crossings per step: [0 0 0 4 4 4 4]\n"
	if out.String() != want {
		t.Fatalf("-plan output differs from the schedules listing:\ngot:\n%s\nwant:\n%s", &out, want)
	}
}
