// Command bench is the repository's layered benchmark. It drives the
// simulator, the sweep harness, the result store and the daemon through
// four workloads, checks every output against pinned or recomputed
// values, and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run). See README.md for the metrics, the workloads and
// how to compare two commits.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload NAME|all -seed S [-seconds N] [-trace 0|1] [-out FILE]
//
// Each metric is printed as "workload metric value unit (n=...)". The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; -out writes the same object to FILE.
// The command exits 1 when any output is wrong.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the last line of output holds.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1: the traced run that reports per-layer metrics")
	out := flag.String("out", "", "also write the result JSON to this file")
	flag.Parse()

	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: "."}
	var (
		res result
		err error
	)
	switch _, known := lookupWorkload(*name); {
	case *name == "all":
		res, err = runAll(cfg)
	case known && (*trace == 0 || *trace == 1) && *seconds > 0:
		res, err = runOne(*name, cfg)
	default:
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		err = fmt.Errorf("usage: bench -workload %s|all -seed S [-seconds N] [-trace 0|1] [-out FILE]",
			strings.Join(names, "|"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	fmt.Println(string(data))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metric lines.
func runOne(name string, cfg *config) (result, error) {
	wl, _ := lookupWorkload(name)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	rep, err := runWorkload(wl, cfg)
	if err != nil {
		return result{}, err
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", name, p)
	}
	for _, m := range append(rep.metrics, rep.extra...) {
		fmt.Println(formatMetric(name, m))
	}
	return result{
		Correct:   rep.correct(),
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metricsJSON(rep.metrics),
	}, nil
}

func formatMetric(workload string, m metric) string {
	line := fmt.Sprintf("%s %s %s %s", workload, m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
	if m.n > 0 {
		line += fmt.Sprintf(" (n=%d)", m.n)
	}
	return line
}

// runAll re-executes this command once per workload, so each workload's
// setup_s and peak_rss_mb belong to a process of its own. The combined
// result names each metric "<workload>/<metric>".
func runAll(cfg *config) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	all := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range workloads {
		var stdout bytes.Buffer
		cmd := exec.Command(self, "-workload", w.name,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace])
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return result{}, fmt.Errorf("%s: %v (no result: %v)", w.name, runErr, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	return all, nil
}
