package exp

import (
	"context"
	"path/filepath"
	"strings"

	"repro/cm5"
	"repro/internal/obs"
)

// runJob runs one cell's cm5 job with the sweep's observability sinks
// attached from ctx: the per-cell timeline recorder (Runner.TimelineDir
// / `cmexp -timeline`) and the sweep-wide metrics registry
// (Runner.Metrics / the serving layer's /v1/metrics). Every cell
// function routes its simulations through here, so observability
// threads the whole experiment catalogue without any family knowing
// about it. With neither sink in ctx this is exactly cm5.Run.
func runJob(ctx context.Context, job cm5.Job) (cm5.Result, error) {
	if tl := obs.TimelineFrom(ctx); tl != nil {
		job = job.With(cm5.WithTimeline(tl))
	}
	if reg := obs.RegistryFrom(ctx); reg != nil {
		job = job.With(cm5.WithMetrics(reg))
	}
	return cm5.Run(job)
}

// runSpec runs one cell's job as plain data: it validates s, lowers it
// with cm5.Spec.Job under cfg (the lowering POST /v1/jobs and cmtrace
// -spec use, so a cell and the same served job build the same run) and
// runs it through runJob. traces resolves a trace-driven spec's
// recording; nil means a fresh cm5.RecordTrace.
func runSpec(ctx context.Context, cfg cm5.Config, s cm5.Spec,
	traces func(app string, size, n int, seed int64, cfg cm5.Config) (*cm5.AppTrace, error)) (cm5.Result, error) {
	if err := s.Validate(); err != nil {
		return cm5.Result{}, err
	}
	job, err := s.Job(cfg, traces)
	if err != nil {
		return cm5.Result{}, err
	}
	return runJob(ctx, job)
}

// specCell is the cell function of the common shape: run s under cfg
// and record its makespan in milliseconds at (row, col).
func specCell(cfg cm5.Config, s cm5.Spec, row, col int) func(context.Context, int64, *Rec) error {
	return func(ctx context.Context, _ int64, rec *Rec) error {
		res, err := runSpec(ctx, cfg, s, nil)
		if err != nil {
			return err
		}
		rec.Set(row, col, "%.3f", res.Elapsed.Millis())
		return nil
	}
}

// timelinePath maps a cell key to its timeline file: slashes flatten to
// underscores ("fig5/LEX/N32/256B" -> "fig5_LEX_N32_256B.trace.json"),
// keeping one flat directory of Perfetto-loadable files.
func timelinePath(dir, key string) string {
	return filepath.Join(dir, strings.ReplaceAll(key, "/", "_")+".trace.json")
}
