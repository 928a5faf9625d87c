package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/apps/cg"
	"repro/internal/apps/euler"
	"repro/internal/apps/fft"
	"repro/internal/cmmd"
	"repro/internal/mesh"
	"repro/internal/network"
)

// Recorder accumulates message events from a cmmd machine. Attach its
// Sink to the run (cmmd.Machine.SetTraceSink, or the apps' trace-sink
// options), then Finalize into a canonical Trace. The sink is called
// from inside the simulation, which runs one step at a time, so the
// Recorder needs no lock.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Sink returns the callback that tees the machine's MsgEvent stream
// into the recorder.
func (r *Recorder) Sink() func(cmmd.MsgEvent) {
	return func(ev cmmd.MsgEvent) {
		r.events = append(r.events, Event{
			Src: ev.Src, Dst: ev.Dst, Tag: ev.Tag, Bytes: ev.Bytes,
			Posted: ev.Posted, Started: ev.Started, Ended: ev.Ended,
		})
	}
}

// Finalize stamps the recorded events into a canonical Trace: events
// sorted into canonical order, current format version, identifying
// inputs attached.
func (r *Recorder) Finalize(app string, size, nprocs int, seed int64) *Trace {
	events := append([]Event(nil), r.events...)
	sortEvents(events)
	return &Trace{
		Version: TraceVersion,
		App:     app, Size: size, Procs: nprocs, Seed: seed,
		Events: events,
	}
}

// The recording baselines: which execution schedule each app runs under
// while being recorded, and how much work it does. These are part of
// the trace semantics — the collapsed pattern is independent of the
// baseline scheduler, but the recorded nanosecond times are not — so
// changing any of them requires bumping TraceVersion.
const (
	cgTraceAlg      = "BS"  // halo-exchange schedule of the recorded CG run
	cgTraceIters    = 8     // fixed CG iteration budget (tolerance set unreachably tight)
	fftTraceAlg     = "PEX" // transpose algorithm of the recorded FFT run
	eulerTraceAlg   = "BS"  // halo-exchange schedule of the recorded Euler run
	eulerTraceSteps = 4     // explicit time steps of the recorded Euler run
)

// App is one recordable application: a real distributed program of
// internal/apps whose communication Record captures.
type App struct {
	// Name is the registry key ("cg", "fft", "euler").
	Name string
	// Doc is the one-line description listings print.
	Doc string
	// DefaultSize is the canonical problem size (mesh vertices for cg
	// and euler, array edge for fft) used when callers pass size 0.
	DefaultSize int
	// MaxSize is the largest problem size Record accepts, so that no
	// request can ask for an unbounded array. On 16 processors a
	// recording at MaxSize peaks at 20-45 MB of heap; the peak also
	// grows with the processor count.
	MaxSize int

	record func(size, nprocs int, seed int64, cfg network.Config, sink func(cmmd.MsgEvent)) error
}

// apps is the registry, in canonical order.
var apps = []App{
	{
		Name: "cg",
		Doc: "distributed conjugate gradient on an unstructured mesh: " +
			"8 fixed iterations, one BS-scheduled halo exchange each (size = mesh vertices)",
		DefaultSize: 512,
		MaxSize:     1 << 15, // 30 MB peak heap on 16 processors
		record:      recordCG,
	},
	{
		Name: "fft",
		Doc: "distributed 2-D FFT of a size x size complex array: " +
			"row FFTs, one PEX-scheduled transpose, row FFTs (size = array edge, power of two)",
		DefaultSize: 64,
		MaxSize:     512, // 22 MB peak heap on 16 processors; an edge of 1024 takes 87 MB
		record:      recordFFT,
	},
	{
		Name: "euler",
		Doc: "explicit unstructured-mesh Euler solver: " +
			"4 time steps, one BS-scheduled halo exchange each (size = mesh vertices)",
		DefaultSize: 256,
		MaxSize:     1 << 15, // 44 MB peak heap on 16 processors
		record:      recordEuler,
	},
}

// ErrUnknownApp is returned (wrapped, with the requested name and the
// known names) by Record and Lookup on an app-name miss.
var ErrUnknownApp = errors.New("unknown trace app")

// Apps returns the recordable application names in canonical order.
func Apps() []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	return out
}

// AppDoc returns the one-line description of a recordable app, or ""
// for an unknown name.
func AppDoc(name string) string {
	for _, a := range apps {
		if a.Name == name {
			return a.Doc
		}
	}
	return ""
}

// Lookup resolves an app name; a miss returns an error wrapping
// ErrUnknownApp that lists every known name.
func Lookup(name string) (App, error) {
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("trace: %w %q (known: %s)",
		ErrUnknownApp, name, strings.Join(Apps(), " "))
}

// Record runs the named application for real on nprocs simulated CM-5
// nodes and captures its communication. size 0 means the app's default.
// The result is a pure function of (app, size, nprocs, seed, cfg):
// recording the same tuple twice yields byte-identical Encode output.
func Record(app string, size, nprocs int, seed int64, cfg network.Config) (*Trace, error) {
	a, err := Lookup(app)
	if err != nil {
		return nil, err
	}
	if size < 0 || size > a.MaxSize {
		return nil, fmt.Errorf("trace: %s problem size %d must be in [0, %d]", a.Name, size, a.MaxSize)
	}
	if size == 0 {
		size = a.DefaultSize
	}
	rec := NewRecorder()
	if err := a.record(size, nprocs, seed, cfg, rec.Sink()); err != nil {
		return nil, fmt.Errorf("trace: record %s: %w", app, err)
	}
	return rec.Finalize(a.Name, size, nprocs, seed), nil
}

// recordCG runs the distributed CG solver on the seed's mesh of size
// vertices. The iteration budget is fixed and the tolerance unreachably
// tight, so every recording runs exactly cgTraceIters halo exchanges.
func recordCG(size, nprocs int, seed int64, cfg network.Config, sink func(cmmd.MsgEvent)) error {
	m := mesh.Generate(size, seed)
	b := make([]float64, m.NumVertices())
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	_, err := cg.Solve(nprocs, m, b, cg.Options{
		Alg: cgTraceAlg, Tol: 1e-300, MaxIter: cgTraceIters, TraceSink: sink,
	}, cfg)
	return err
}

// recordFFT runs the distributed 2-D FFT on a size x size array filled
// from the seed's generator.
func recordFFT(size, nprocs int, seed int64, cfg network.Config, sink func(cmmd.MsgEvent)) error {
	rng := rand.New(rand.NewSource(seed))
	input := make([][]complex128, size)
	for r := range input {
		row := make([]complex128, size)
		for c := range row {
			row[c] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		input[r] = row
	}
	_, err := fft.Run2D(nprocs, input, fft.Options{Alg: fftTraceAlg, TraceSink: sink}, cfg)
	return err
}

// recordEuler advances the Euler solver on the seed's mesh: freestream
// flow with a smooth density perturbation, eulerTraceSteps steps.
func recordEuler(size, nprocs int, seed int64, cfg network.Config, sink func(cmmd.MsgEvent)) error {
	m := mesh.Generate(size, seed)
	initFn := func(p mesh.Point) euler.State {
		rho := 1 + 0.1*math.Sin(math.Pi*p.X)*math.Cos(math.Pi*p.Y)
		return euler.Freestream(rho, 0.5, 0, 1)
	}
	_, err := euler.Run(nprocs, m, initFn, euler.Options{
		Alg: eulerTraceAlg, Steps: eulerTraceSteps, TraceSink: sink,
	}, cfg)
	return err
}
