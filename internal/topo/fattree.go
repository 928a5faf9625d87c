package topo

import (
	"fmt"

	"repro/internal/fattree"
)

// FatTree is the 4-ary fat tree as a link-capacity graph: each node has
// an injection and an ejection link, and each level-l cluster has one
// aggregated uplink bundle and one downlink bundle toward the level
// above. Capacities come either from the calibrated CM-5 rates
// (NewFatTree — 20/10/5 MB/s envelope, byte-identical to the original
// hardwired solver) or from a geometric taper (NewTaperedFatTree).
type FatTree struct {
	tree    *fattree.Topology
	name    string
	caps    []float64 // caps[l]: capacity of one level-l cluster uplink (l >= 1)
	offset  []int     // offset[l]: first link index of level l's bundles
	nodeCap float64
	nLinks  int
}

// NewFatTree builds the CM-5 fat tree over n nodes with the machine's
// rate constants: node links at r.NodeLink, level-1 cluster uplinks at
// r.Cluster4Up, and level-l uplinks (l >= 2) at 4^l * r.ThinPerNode —
// exactly the capacities the original fixed-topology solver used, so
// simulations over this topology are byte-identical to it.
func NewFatTree(n int, r Rates) (*FatTree, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return newFatTree(n, "fat-tree", r.NodeLink, func(level int) float64 {
		if level == 1 {
			return r.Cluster4Up
		}
		nodes := 1 << (2 * uint(level))
		return float64(nodes) * r.ThinPerNode
	})
}

// NewTaperedFatTree builds a fat tree whose per-node bandwidth share
// shrinks geometrically toward the root: a level-l cluster uplink has
// capacity 4^l * nodeRate * taper^l. taper = 1 is a full-bandwidth
// (non-blocking) tree; taper = 0.5 halves the per-node share at every
// level (the CM-5 matches it at levels 1-2 before flattening at
// 5 MB/s). taper must be in (0, 1].
func NewTaperedFatTree(n int, nodeRate, taper float64) (*FatTree, error) {
	if !(nodeRate > 0) {
		return nil, fmt.Errorf("topo: tapered fat-tree node rate %v must be positive", nodeRate)
	}
	if !(taper > 0) || taper > 1 {
		return nil, fmt.Errorf("topo: taper ratio %v must be in (0, 1]", taper)
	}
	// perNode[l] = nodeRate * taper^l, built multiplicatively so the
	// floats are deterministic without math.Pow.
	name := fmt.Sprintf("tapered(%g)", taper)
	perNode := nodeRate
	shares := []float64{}
	for c := 1; c < n; c *= fattree.Arity {
		perNode *= taper
		shares = append(shares, perNode)
	}
	return newFatTree(n, name, nodeRate, func(level int) float64 {
		nodes := 1 << (2 * uint(level))
		return float64(nodes) * shares[level-1]
	})
}

// newFatTree assembles the link index space: node links first (2 per
// node), then per level l = 1..Levels()-1 the cluster bundles (2 per
// cluster). The top level has no uplink — routes never cross it.
func newFatTree(n int, name string, nodeCap float64, capAt func(level int) float64) (*FatTree, error) {
	tree, err := fattree.New(n)
	if err != nil {
		return nil, err
	}
	f := &FatTree{tree: tree, name: name, nodeCap: nodeCap}
	f.caps = make([]float64, tree.Levels())
	f.offset = make([]int, tree.Levels())
	idx := 2 * n
	for l := 1; l < tree.Levels(); l++ {
		f.caps[l] = capAt(l)
		f.offset[l] = idx
		idx += 2 * tree.NumGroups(l)
	}
	f.nLinks = idx
	return f, nil
}

// Name identifies the topology family.
func (f *FatTree) Name() string { return f.name }

// N returns the number of nodes.
func (f *FatTree) N() int { return f.tree.N() }

// NumLinks returns the number of directed links.
func (f *FatTree) NumLinks() int { return f.nLinks }

// linkIndex returns the index of the level-l bundle of cluster g in the
// given direction (l >= 1).
func (f *FatTree) linkIndex(level, group int, up bool) int {
	i := f.offset[level] + 2*group
	if !up {
		i++
	}
	return i
}

// Link returns the static description of link i.
func (f *FatTree) Link(i int) Link {
	if i < 0 || i >= f.nLinks {
		panic(fmt.Sprintf("topo: fat-tree link %d out of range [0,%d)", i, f.nLinks))
	}
	if i < 2*f.tree.N() {
		id := fattree.LinkID{Level: 0, Group: i / 2, Up: i%2 == 0}
		return Link{Cap: f.nodeCap, Level: 0, Name: id.String()}
	}
	level := len(f.offset) - 1
	for l := 1; l < len(f.offset); l++ {
		if i < f.offset[l] {
			level = l - 1
			break
		}
	}
	rel := i - f.offset[level]
	id := fattree.LinkID{Level: level, Group: rel / 2, Up: rel%2 == 0}
	return Link{Cap: f.caps[level], Level: level, Name: id.String()}
}

// RouteAppend appends src's injection link, the uplinks of src's
// clusters below the LCA, the downlinks of dst's clusters below the
// LCA, and dst's ejection link — the exact traversal order of the
// original solver.
func (f *FatTree) RouteAppend(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	lca := f.tree.LCALevel(src, dst)
	buf = append(buf, 2*src)
	for l := 1; l < lca; l++ {
		buf = append(buf, f.linkIndex(l, f.tree.Group(src, l), true))
	}
	for l := lca - 1; l >= 1; l-- {
		buf = append(buf, f.linkIndex(l, f.tree.Group(dst, l), false))
	}
	return append(buf, 2*dst+1)
}
