package repro

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark iteration simulates the full experiment once and
// reports the simulated time as the "sim_ms" metric (host ns/op measures
// simulator speed, not CM-5 time).

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/cm5"
	"repro/internal/apps/fft"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/pattern"
)

func reportSim(b *testing.B, totalMs float64) {
	b.Helper()
	b.ReportMetric(totalMs/float64(b.N), "sim_ms")
}

// benchJob runs the job b.N times and reports its simulated time.
func benchJob(b *testing.B, job cm5.Job) {
	b.Helper()
	total := 0.0
	for i := 0; i < b.N; i++ {
		res, err := cm5.Run(job)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Elapsed.Millis()
	}
	reportSim(b, total)
}

// BenchmarkFig5CompleteExchange32 regenerates Figure 5: the four
// complete-exchange algorithms on 32 nodes across message sizes.
func BenchmarkFig5CompleteExchange32(b *testing.B) {
	for _, alg := range exp.ExchangeAlgs {
		for _, size := range []int{0, 256, 1024, 2048} {
			b.Run(fmt.Sprintf("%s/%dB", alg, size), func(b *testing.B) {
				benchJob(b, cm5.NewJob(cm5.MustAlgorithm(alg), 32, size))
			})
		}
	}
}

// BenchmarkFig6ExchangeScaling regenerates Figure 6: 0- and 256-byte
// exchanges across machine sizes.
func BenchmarkFig6ExchangeScaling(b *testing.B) {
	benchScaling(b, []int{0, 256})
}

// BenchmarkFig7ExchangeScaling512 regenerates Figure 7.
func BenchmarkFig7ExchangeScaling512(b *testing.B) {
	benchScaling(b, []int{512})
}

// BenchmarkFig8ExchangeScaling1920 regenerates Figure 8.
func BenchmarkFig8ExchangeScaling1920(b *testing.B) {
	benchScaling(b, []int{1920})
}

func benchScaling(b *testing.B, sizes []int) {
	for _, size := range sizes {
		for _, n := range []int{16, 64, 256} {
			for _, alg := range []string{"PEX", "REX", "BEX"} {
				b.Run(fmt.Sprintf("%dB/N%d/%s", size, n, alg), func(b *testing.B) {
					benchJob(b, cm5.NewJob(cm5.MustAlgorithm(alg), n, size))
				})
			}
		}
	}
}

// BenchmarkTable5FFT regenerates Table 5 at benchmark-friendly scale:
// the distributed 2-D FFT on 32 nodes (256^2 and 512^2) and 256 nodes
// (256^2). cmd/cmexp table5 runs the full table.
func BenchmarkTable5FFT(b *testing.B) {
	cfg := network.DefaultConfig()
	cases := []struct{ procs, size int }{
		{32, 256}, {32, 512}, {256, 256},
	}
	for _, cse := range cases {
		input := benchInput(cse.size)
		for _, alg := range exp.ExchangeAlgs {
			b.Run(fmt.Sprintf("P%d/%dx%d/%s", cse.procs, cse.size, cse.size, alg), func(b *testing.B) {
				total := 0.0
				for i := 0; i < b.N; i++ {
					res, err := fft.Run2D(cse.procs, input, fft.Options{Alg: alg}, cfg)
					if err != nil {
						b.Fatal(err)
					}
					total += res.Elapsed.Millis()
				}
				reportSim(b, total)
			})
		}
	}
}

func benchInput(size int) [][]complex128 {
	rng := rand.New(rand.NewSource(int64(size)))
	a := make([][]complex128, size)
	for r := range a {
		a[r] = make([]complex128, size)
		for c := range a[r] {
			a[r][c] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	return a
}

// BenchmarkFig10Broadcast32 regenerates Figure 10: LIB, REB and the
// system broadcast on 32 nodes across message sizes.
func BenchmarkFig10Broadcast32(b *testing.B) {
	for _, alg := range []string{"LIB", "REB", "SYS"} {
		for _, size := range []int{0, 1024, 8192} {
			b.Run(fmt.Sprintf("%s/%dB", alg, size), func(b *testing.B) {
				benchJob(b, cm5.NewJob(cm5.MustAlgorithm(alg), 32, size))
			})
		}
	}
}

// BenchmarkFig11BroadcastScaling regenerates Figure 11: REB versus the
// system broadcast across machine sizes.
func BenchmarkFig11BroadcastScaling(b *testing.B) {
	for _, n := range []int{32, 128, 256} {
		for _, alg := range []string{"REB", "SYS"} {
			b.Run(fmt.Sprintf("N%d/%s/2048B", n, alg), func(b *testing.B) {
				benchJob(b, cm5.NewJob(cm5.MustAlgorithm(alg), n, 2048))
			})
		}
	}
}

// BenchmarkTable11Synthetic regenerates Table 11: the four irregular
// schedulers on synthetic patterns of varying density on 32 processors.
func BenchmarkTable11Synthetic(b *testing.B) {
	for _, density := range exp.Table11Densities {
		p := pattern.Synthetic(32, float64(density)/100, 256, int64(density*1000+256))
		for _, alg := range exp.IrregularAlgs {
			b.Run(fmt.Sprintf("%d%%/%s/256B", density, alg), func(b *testing.B) {
				benchJob(b, cm5.PatternJob(cm5.MustAlgorithm(alg), p))
			})
		}
	}
}

// BenchmarkTable12RealPatterns regenerates Table 12: the four schedulers
// on the real halo patterns (CG 16K and the Euler meshes).
func BenchmarkTable12RealPatterns(b *testing.B) {
	patterns, err := exp.RealPatterns(32)
	if err != nil {
		b.Fatal(err)
	}
	for i, prob := range exp.PaperTable12 {
		p := patterns[i]
		for _, alg := range exp.IrregularAlgs {
			b.Run(fmt.Sprintf("%s/%s", prob.Name, alg), func(b *testing.B) {
				benchJob(b, cm5.PatternJob(cm5.MustAlgorithm(alg), p))
			})
		}
	}
}

// BenchmarkScheduleConstruction measures schedule-building cost alone
// (the paper amortizes it over iterations; this shows it is negligible).
func BenchmarkScheduleConstruction(b *testing.B) {
	p := pattern.Synthetic(32, 0.5, 256, 9)
	for _, alg := range exp.IrregularAlgs {
		job := cm5.PatternJob(cm5.MustAlgorithm(alg), p)
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cm5.Plan(job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5TableSweep regenerates the whole Figure 5 table through
// the experiment orchestrator, serially and with one worker per CPU.
// The parallel/serial ratio measures the orchestrator's fan-out win on
// the host (on a single-CPU machine the two are equivalent).
func BenchmarkFig5TableSweep(b *testing.B) {
	cfg := network.DefaultConfig()
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := exp.Fig5Spec(cfg)
				r := &exp.Runner{Workers: workers}
				if err := r.Run(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrchestratorOverhead measures the pure cost of pushing one
// cell through the worker pool (no simulation inside).
func BenchmarkOrchestratorOverhead(b *testing.B) {
	spec := &exp.TableSpec{Name: "bench"}
	for i := 0; i < 1000; i++ {
		spec.AddCell(fmt.Sprintf("bench/%d", i), func(ctx context.Context, _ int64, rec *exp.Rec) error { return nil })
	}
	r := exp.NewRunner(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
