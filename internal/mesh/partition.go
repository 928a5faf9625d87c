package mesh

import (
	"fmt"
	"sort"

	"repro/internal/pattern"
)

// Partition describes a mesh distributed over p processors: ownership,
// per-processor vertex lists, and the ghost-exchange lists that drive the
// irregular communication of the paper's CG and Euler solvers.
type Partition struct {
	Mesh  *Mesh
	P     int
	Owner []int

	// Owned[p] lists the vertices owned by processor p, ascending.
	Owned [][]int

	// SendList[p][q] lists the vertices owned by p whose values q needs
	// (p's boundary vertices adjacent to q's vertices), ascending.
	// Receive lists are the mirror: proc q receives SendList[p][q] from p.
	SendList [][]map[int]bool

	sendSorted [][][]int
}

// NewPartition builds the distribution structures for a mesh and an
// ownership vector over p processors.
func NewPartition(m *Mesh, owner []int, p int) (*Partition, error) {
	if len(owner) != m.NumVertices() {
		return nil, fmt.Errorf("mesh: owner vector has %d entries for %d vertices", len(owner), m.NumVertices())
	}
	for v, o := range owner {
		if o < 0 || o >= p {
			return nil, fmt.Errorf("mesh: vertex %d assigned to processor %d of %d", v, o, p)
		}
	}
	pt := &Partition{Mesh: m, P: p, Owner: owner}
	pt.Owned = make([][]int, p)
	for v, o := range owner {
		pt.Owned[o] = append(pt.Owned[o], v)
	}
	pt.SendList = make([][]map[int]bool, p)
	for i := range pt.SendList {
		pt.SendList[i] = make([]map[int]bool, p)
	}
	for _, e := range m.Edges() {
		a, b := e[0], e[1]
		oa, ob := owner[a], owner[b]
		if oa == ob {
			continue
		}
		// b's owner needs a's value and vice versa.
		addSend(pt, oa, ob, a)
		addSend(pt, ob, oa, b)
	}
	pt.sendSorted = make([][][]int, p)
	for src := 0; src < p; src++ {
		pt.sendSorted[src] = make([][]int, p)
		for dst := 0; dst < p; dst++ {
			set := pt.SendList[src][dst]
			if set == nil {
				continue
			}
			lst := make([]int, 0, len(set))
			for v := range set {
				lst = append(lst, v)
			}
			sort.Ints(lst)
			pt.sendSorted[src][dst] = lst
		}
	}
	return pt, nil
}

func addSend(pt *Partition, from, to, vertex int) {
	if pt.SendList[from][to] == nil {
		pt.SendList[from][to] = make(map[int]bool)
	}
	pt.SendList[from][to][vertex] = true
}

// SendVertices returns the sorted vertices processor src must send to
// dst each halo exchange (nil if none).
func (pt *Partition) SendVertices(src, dst int) []int {
	return pt.sendSorted[src][dst]
}

// HaloPattern returns the communication matrix for one halo exchange
// with bytesPerVertex bytes per ghost value — the input the paper's
// irregular schedulers consume. For the conjugate-gradient solver
// bytesPerVertex is 8 (one float64); for the Euler solver it is 32
// (four conserved variables).
func (pt *Partition) HaloPattern(bytesPerVertex int) pattern.Matrix {
	m := pattern.New(pt.P)
	for src := 0; src < pt.P; src++ {
		for dst := 0; dst < pt.P; dst++ {
			if lst := pt.sendSorted[src][dst]; len(lst) > 0 {
				m[src][dst] = len(lst) * bytesPerVertex
			}
		}
	}
	return m
}

// WideHaloPattern returns the communication matrix for a distance-2
// halo exchange: processor q receives every vertex of p within two graph
// hops of q's owned set. Wider halos model the richer processor
// connectivity of the paper's three-dimensional Euler meshes (and of
// higher-order/multigrid stencils generally): they raise both pattern
// density and per-message size relative to HaloPattern.
func (pt *Partition) WideHaloPattern(bytesPerVertex int) pattern.Matrix {
	adj := pt.Mesh.Adjacency()
	m := pattern.New(pt.P)
	// For each vertex v, the set of processors owning vertices within
	// distance 2 of v; v's owner must send v to each of them.
	for v := range adj {
		src := pt.Owner[v]
		needed := make(map[int]bool)
		for _, w := range adj[v] {
			needed[pt.Owner[w]] = true
			for _, x := range adj[w] {
				needed[pt.Owner[x]] = true
			}
		}
		for dst := range needed {
			if dst != src {
				m[src][dst] += bytesPerVertex
			}
		}
	}
	return m
}

// GhostVertices returns the sorted vertices processor p needs but does
// not own (the union of what its neighbors send it).
func (pt *Partition) GhostVertices(p int) []int {
	set := make(map[int]bool)
	for src := 0; src < pt.P; src++ {
		for _, v := range pt.sendSorted[src][p] {
			set[v] = true
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
