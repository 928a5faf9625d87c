// Package repro is a production-quality Go reproduction of Ponnusamy,
// Thakur, Choudhary and Fox, "Scheduling Regular and Irregular
// Communication Patterns on the CM-5" (SC 1992).
//
// The public API lives in package repro/cm5: a typed Algorithm
// registry and the Run(Job) -> Result entry point over a deterministic
// discrete-event simulation of a CM-5 partition. The benchmark harness
// in bench_test.go regenerates every table and figure of the paper's
// evaluation, and the trace subsystem (internal/trace) records the
// real communication of the bundled CG/FFT/Euler applications and
// replays the recordings as schedulable workloads (the "apps"
// experiment family).
//
// Commands:
//
//	cmd/cmexp      regenerate the paper's tables and figures; parallel,
//	               incremental via the content-addressed result store
//	               (-store), output as text, JSON or CSV (-format)
//	cmd/cmtrace    run one job (flags, or the cmserve job JSON via
//	               -spec) with tracing: rendezvous waits,
//	               per-level/link utilization, per-step completions;
//	               -plan prints its schedule in the paper's table
//	               style; -record/-replay capture a bundled
//	               application's real communication and schedule the
//	               recording
//	cmd/cmserve    experiment-as-a-service HTTP daemon over the result
//	               store (single-flight coalescing, streaming sweeps;
//	               see docs/API.md)
//	cmd/expdiff    regression verdict between two benchmark reports or
//	               result stores (CI's perf gate)
//	cmd/benchjson  topology x algorithm benchmarks as JSON
//
// See README.md for the quickstart, the experiment catalogue, and the
// repository layout, and ARCHITECTURE.md for the package map.
package repro
