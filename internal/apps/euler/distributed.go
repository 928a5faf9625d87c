package euler

import (
	"math"

	"repro/internal/cmmd"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Options configures a distributed Euler run.
type Options struct {
	Alg   string  // irregular scheduler: LS, PS, BS, GS
	Steps int     // explicit time steps
	CFL   float64 // CFL number (default 0.5)
	// TraceSink, when non-nil, receives every data-network message
	// event of the run (cmmd.Machine.SetTraceSink) — the recording
	// entry point of internal/trace. It never changes simulated timing.
	TraceSink func(cmmd.MsgEvent)
}

// Result reports a distributed run.
type Result struct {
	U        []State
	Elapsed  sim.Time
	Dts      []float64      // time step sizes taken
	Pattern  pattern.Matrix // halo pattern (32 bytes per shared vertex)
	Schedule *sched.Schedule
}

// BytesPerVertex is the halo payload per shared vertex: four conserved
// variables of 8 bytes.
const BytesPerVertex = 32

// Run advances the Euler solution opts.Steps explicit steps on nprocs
// simulated CM-5 nodes. The mesh is partitioned by recursive coordinate
// bisection; each step performs one halo exchange of the conserved
// variables through the chosen irregular schedule (built once, reused
// every iteration) and one control-network reduction for the global CFL
// time step.
func Run(nprocs int, m *mesh.Mesh, initFn func(mesh.Point) State, opts Options, cfg network.Config) (*Result, error) {
	if opts.Steps <= 0 {
		opts.Steps = 1
	}
	if opts.CFL <= 0 {
		opts.CFL = 0.5
	}
	geom, err := NewGeometry(m)
	if err != nil {
		return nil, err
	}
	owner := mesh.PartitionRCB(m, nprocs)
	pt, err := mesh.NewPartition(m, owner, nprocs)
	if err != nil {
		return nil, err
	}
	halo := pt.HaloPattern(BytesPerVertex)
	alg, err := sched.Lookup(opts.Alg)
	if err != nil {
		return nil, err
	}
	schedule, err := alg.Plan(sched.Request{Pattern: halo})
	if err != nil {
		return nil, err
	}
	index := sched.NewIndex(schedule)
	mach, err := cmmd.NewMachine(nprocs, cfg)
	if err != nil {
		return nil, err
	}
	if opts.TraceSink != nil {
		mach.SetTraceSink(opts.TraceSink)
	}

	nv := m.NumVertices()
	edges := m.Edges()
	// Per-processor edge lists: edges touching an owned vertex, in
	// global order (so per-vertex accumulation order matches the
	// sequential oracle bit for bit).
	myEdges := make([][]int, nprocs)
	for ei, e := range edges {
		oa, ob := owner[e[0]], owner[e[1]]
		myEdges[oa] = append(myEdges[oa], ei)
		if ob != oa {
			myEdges[ob] = append(myEdges[ob], ei)
		}
	}

	final := make([]State, nv)
	dts := make([]float64, opts.Steps)

	program := func(node *cmmd.Node) {
		me := node.ID()
		mine := pt.Owned[me]
		owned := make([]bool, nv)
		for _, v := range mine {
			owned[v] = true
		}
		u := make([]State, nv)
		for v := range u {
			u[v] = initFn(m.Pts[v]) // everyone can evaluate the initial condition
		}
		res := make([]State, nv)

		exchange := func() {
			hooks := sched.DataHooks{
				OnSend: func(step, src, dst int) []byte {
					verts := pt.SendVertices(me, dst)
					buf := make([]byte, BytesPerVertex*len(verts))
					for i, v := range verts {
						for k := 0; k < 4; k++ {
							putF64(buf[BytesPerVertex*i+8*k:], u[v][k])
						}
					}
					node.MemCopy(len(buf))
					return buf
				},
				OnRecv: func(step int, msg cmmd.Message) {
					verts := pt.SendVertices(msg.Src, me)
					for i, v := range verts {
						for k := 0; k < 4; k++ {
							u[v][k] = getF64(msg.Data[BytesPerVertex*i+8*k:])
						}
					}
					node.MemCopy(len(msg.Data))
				},
			}
			sched.ExecuteNode(node, index, hooks)
		}

		for step := 0; step < opts.Steps; step++ {
			exchange()
			// Residuals for owned vertices only.
			for _, v := range mine {
				res[v] = State{}
			}
			for _, ei := range myEdges[me] {
				e := edges[ei]
				a, b := e[0], e[1]
				n := geom.EdgeNormal[ei]
				f := Rusanov(u[a], u[b], n[0], n[1])
				if owned[a] {
					for k := 0; k < 4; k++ {
						res[a][k] += f[k]
					}
				}
				if owned[b] {
					for k := 0; k < 4; k++ {
						res[b][k] -= f[k]
					}
				}
			}
			node.ComputeFlops(90 * float64(len(myEdges[me])))

			// Global CFL step via the control network.
			localDt := math.Inf(1)
			for _, v := range mine {
				rho, uu, vv, p := u[v].Primitives()
				if rho <= 0 || p <= 0 {
					localDt = 0
					break
				}
				speed := math.Hypot(uu, vv) + math.Sqrt(Gamma*p/rho)
				if speed == 0 {
					continue
				}
				if cand := opts.CFL * math.Sqrt(geom.DualArea[v]) / speed; cand < localDt {
					localDt = cand
				}
			}
			node.ComputeFlops(12 * float64(len(mine)))
			dt := node.AllReduce(localDt, cmmd.OpMin)
			if me == 0 {
				dts[step] = dt
			}
			for _, v := range mine {
				if geom.Boundary[v] {
					continue
				}
				for k := 0; k < 4; k++ {
					u[v][k] -= dt / geom.DualArea[v] * res[v][k]
				}
			}
			node.ComputeFlops(12 * float64(len(mine)))
		}
		for _, v := range mine {
			final[v] = u[v]
		}
	}

	elapsed, err := mach.Run(program)
	if err != nil {
		return nil, err
	}
	return &Result{U: final, Elapsed: elapsed, Dts: dts, Pattern: halo, Schedule: schedule}, nil
}

// RunSequentialOracle advances the same problem on one machine with the
// identical time-step policy, for verifying the distributed solver.
func RunSequentialOracle(m *mesh.Mesh, initFn func(mesh.Point) State, steps int, cfl float64) ([]State, error) {
	geom, err := NewGeometry(m)
	if err != nil {
		return nil, err
	}
	u := make([]State, m.NumVertices())
	for v := range u {
		u[v] = initFn(m.Pts[v])
	}
	res := make([]State, len(u))
	for s := 0; s < steps; s++ {
		dt := geom.MaxStableDt(u, cfl)
		geom.StepSequential(u, dt, res)
	}
	return u, nil
}

func putF64(b []byte, f float64) {
	u := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

func getF64(b []byte) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return math.Float64frombits(u)
}
