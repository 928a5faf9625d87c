// Package cg implements the paper's conjugate-gradient application: a
// distributed CG solver on an unstructured-mesh operator whose
// per-iteration halo exchange is an irregular communication pattern
// scheduled by any of the paper's four algorithms (Section 4.5,
// Table 12's "Conj. Grad. 16K" column).
//
// The operator is the graph Laplacian of the mesh plus the identity
// (symmetric positive definite), row-distributed by the mesh partition.
// Dot products use the CM-5 control network's hardware reduction.
package cg

import (
	"fmt"
	"math"

	"repro/internal/cmmd"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sim"
)

// CSR is a compressed sparse row matrix.
type CSR struct {
	N      int
	RowPtr []int
	ColIdx []int
	Vals   []float64
}

// BuildLaplacianPlusI assembles A = L + I for the mesh graph: A[i][i] =
// degree(i) + 1, A[i][j] = -1 for every edge (i,j). The result is
// symmetric positive definite.
func BuildLaplacianPlusI(m *mesh.Mesh) *CSR {
	adj := m.Adjacency()
	n := m.NumVertices()
	csr := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		csr.RowPtr[i+1] = csr.RowPtr[i] + len(adj[i]) + 1
	}
	nnz := csr.RowPtr[n]
	csr.ColIdx = make([]int, 0, nnz)
	csr.Vals = make([]float64, 0, nnz)
	for i := 0; i < n; i++ {
		// Diagonal first, then neighbors ascending (adjacency is sorted).
		csr.ColIdx = append(csr.ColIdx, i)
		csr.Vals = append(csr.Vals, float64(len(adj[i]))+1)
		for _, j := range adj[i] {
			csr.ColIdx = append(csr.ColIdx, j)
			csr.Vals = append(csr.Vals, -1)
		}
	}
	return csr
}

// MatVec computes y = A x.
func (a *CSR) MatVec(x, y []float64) {
	for i := 0; i < a.N; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Vals[k] * x[a.ColIdx[k]]
		}
		y[i] = sum
	}
}

// SolveSequential runs plain CG to relative residual tol, returning the
// solution and iteration count. The single-machine oracle for the
// distributed solver.
func SolveSequential(a *CSR, b []float64, tol float64, maxIter int) ([]float64, int) {
	n := a.N
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	ap := make([]float64, n)
	rr := dot(r, r)
	bNorm := math.Sqrt(dot(b, b))
	if bNorm == 0 {
		return x, 0
	}
	for iter := 1; iter <= maxIter; iter++ {
		a.MatVec(p, ap)
		alpha := rr / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		if math.Sqrt(rrNew)/bNorm < tol {
			return x, iter
		}
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	return x, maxIter
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Options configures a distributed solve.
type Options struct {
	Alg     string // irregular scheduler: LS, PS, BS, GS
	Tol     float64
	MaxIter int
	// TraceSink, when non-nil, receives every data-network message
	// event of the run (cmmd.Machine.SetTraceSink) — the recording
	// entry point of internal/trace. It never changes simulated timing.
	TraceSink func(cmmd.MsgEvent)
}

// Result reports a distributed solve.
type Result struct {
	X        []float64
	Iters    int
	Residual float64 // final relative residual
	Elapsed  sim.Time
	Pattern  pattern.Matrix // the halo pattern the scheduler consumed
	Schedule *sched.Schedule
}

// Solve runs distributed CG on nprocs simulated CM-5 nodes. The mesh is
// partitioned with recursive coordinate bisection; the halo-exchange
// schedule is built once (the paper: "the communication schedule needs to
// be created only once and can be used thereafter ... amortized over all
// the iterations") and re-executed every iteration.
func Solve(nprocs int, m *mesh.Mesh, b []float64, opts Options, cfg network.Config) (*Result, error) {
	if len(b) != m.NumVertices() {
		return nil, fmt.Errorf("cg: b has %d entries for %d vertices", len(b), m.NumVertices())
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 500
	}
	owner := mesh.PartitionRCB(m, nprocs)
	pt, err := mesh.NewPartition(m, owner, nprocs)
	if err != nil {
		return nil, err
	}
	halo := pt.HaloPattern(8)
	alg, err := sched.Lookup(opts.Alg)
	if err != nil {
		return nil, err
	}
	schedule, err := alg.Plan(sched.Request{Pattern: halo})
	if err != nil {
		return nil, err
	}
	index := sched.NewIndex(schedule)
	a := BuildLaplacianPlusI(m)

	mach, err := cmmd.NewMachine(nprocs, cfg)
	if err != nil {
		return nil, err
	}
	if opts.TraceSink != nil {
		mach.SetTraceSink(opts.TraceSink)
	}

	n := m.NumVertices()
	x := make([]float64, n) // final solution, owned entries written per node
	iters := make([]int, nprocs)
	finalRes := make([]float64, nprocs)

	program := func(node *cmmd.Node) {
		me := node.ID()
		mine := pt.Owned[me]
		// Full-length local vectors; only owned (+ ghost for p) entries
		// are meaningful on this node.
		xl := make([]float64, n)
		r := make([]float64, n)
		p := make([]float64, n)
		ap := make([]float64, n)
		for _, v := range mine {
			r[v] = b[v]
			p[v] = b[v]
		}
		exchange := func(vec []float64) {
			hooks := sched.DataHooks{
				OnSend: func(step, src, dst int) []byte {
					verts := pt.SendVertices(me, dst)
					buf := make([]byte, 8*len(verts))
					for i, v := range verts {
						putFloat64(buf[8*i:], vec[v])
					}
					node.MemCopy(len(buf))
					return buf
				},
				OnRecv: func(step int, msg cmmd.Message) {
					verts := pt.SendVertices(msg.Src, me)
					for i, v := range verts {
						vec[v] = getFloat64(msg.Data[8*i:])
					}
					node.MemCopy(len(msg.Data))
				},
			}
			sched.ExecuteNode(node, index, hooks)
		}
		localDot := func(u, w []float64) float64 {
			s := 0.0
			for _, v := range mine {
				s += u[v] * w[v]
			}
			node.ComputeFlops(2 * float64(len(mine)))
			return s
		}
		matVecLocal := func() {
			flops := 0.0
			for _, i := range mine {
				sum := 0.0
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					sum += a.Vals[k] * p[a.ColIdx[k]]
				}
				ap[i] = sum
				flops += 2 * float64(a.RowPtr[i+1]-a.RowPtr[i])
			}
			node.ComputeFlops(flops)
		}

		rr := node.AllReduce(localDot(r, r), cmmd.OpSum)
		bNorm := math.Sqrt(node.AllReduce(localDot(r, r), cmmd.OpSum))
		if bNorm == 0 {
			return
		}
		it := 0
		res := math.Sqrt(rr) / bNorm
		for it < opts.MaxIter && res >= opts.Tol {
			it++
			exchange(p) // ghost values of p for the local matvec
			matVecLocal()
			pap := node.AllReduce(localDot(p, ap), cmmd.OpSum)
			alpha := rr / pap
			for _, v := range mine {
				xl[v] += alpha * p[v]
				r[v] -= alpha * ap[v]
			}
			node.ComputeFlops(4 * float64(len(mine)))
			rrNew := node.AllReduce(localDot(r, r), cmmd.OpSum)
			beta := rrNew / rr
			for _, v := range mine {
				p[v] = r[v] + beta*p[v]
			}
			node.ComputeFlops(2 * float64(len(mine)))
			rr = rrNew
			res = math.Sqrt(rr) / bNorm
		}
		for _, v := range mine {
			x[v] = xl[v]
		}
		iters[me] = it
		finalRes[me] = res
	}

	elapsed, err := mach.Run(program)
	if err != nil {
		return nil, err
	}
	return &Result{
		X:        x,
		Iters:    iters[0],
		Residual: finalRes[0],
		Elapsed:  elapsed,
		Pattern:  halo,
		Schedule: schedule,
	}, nil
}

func putFloat64(b []byte, f float64) {
	u := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

func getFloat64(b []byte) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return math.Float64frombits(u)
}
