package topo

import "fmt"

// MaxNodes is the largest CM-5 partition, and so the largest machine
// the simulator builds.
const MaxNodes = 16384

// FatTreeLevels returns the number of grouping levels of the CM-5's
// 4-ary fat tree over an n-node partition: the smallest L with 4^L >= n.
// Nodes are grouped in clusters of 4 (level 1), clusters of 4 clusters
// (level 2, 16 nodes), and so on; level L holds the whole partition.
// n must be a power of two in [2, MaxNodes]: CM-5 partitions came in
// powers of two, not necessarily of four.
func FatTreeLevels(n int) (int, error) {
	if n < 2 || n > MaxNodes || n&(n-1) != 0 {
		return 0, fmt.Errorf("topo: machine size %d must be a power of two in [2, %d]", n, MaxNodes)
	}
	return (log2(n) + 1) / 2, nil
}

// FatTree is the CM-5's 4-ary fat tree as a link-capacity graph: each
// node has an injection and an ejection link, and each level-l cluster
// has one aggregated uplink bundle and one downlink bundle toward the
// level above. Node a's level-l cluster is a >> 2l, so two nodes meet
// at their least common ancestor (LCA): the smallest level whose
// clusters they share. The LCA sets both a message's route and its
// peak bandwidth: the CM-5 delivered 20 MB/s within a cluster of 4,
// 10 MB/s within a cluster of 16, and a guaranteed 5 MB/s system-wide
// (the tree "thins" toward the root). Capacities come either from the
// calibrated CM-5 rates (NewFatTree) or from a geometric taper
// (NewTaperedFatTree).
type FatTree struct {
	n, levels int
	name      string
	caps      []float64 // caps[l]: capacity of one level-l cluster uplink (l >= 1)
	offset    []int     // offset[l]: first link index of level l's bundles
	nodeCap   float64
	nLinks    int
}

// NewFatTree builds the CM-5 fat tree over n nodes with the machine's
// rate constants: node links at r.NodeLink, level-1 cluster uplinks at
// r.Cluster4Up, and level-l uplinks (l >= 2) at 4^l * r.ThinPerNode.
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
	for c := 1; c < n; c *= 4 {
		perNode *= taper
		shares = append(shares, perNode)
	}
	return newFatTree(n, name, nodeRate, func(level int) float64 {
		nodes := 1 << (2 * uint(level))
		return float64(nodes) * shares[level-1]
	})
}

// newFatTree assembles the link index space: node links first (2 per
// node), then per level l = 1..levels-1 the cluster bundles (2 per
// cluster). The top level has no uplink — routes never cross it.
func newFatTree(n int, name string, nodeCap float64, capAt func(level int) float64) (*FatTree, error) {
	levels, err := FatTreeLevels(n)
	if err != nil {
		return nil, err
	}
	f := &FatTree{n: n, levels: levels, name: name, nodeCap: nodeCap}
	f.caps = make([]float64, levels)
	f.offset = make([]int, levels)
	idx := 2 * n
	for l := 1; l < levels; l++ {
		f.caps[l] = capAt(l)
		f.offset[l] = idx
		clusters := (n + 1<<(2*uint(l)) - 1) >> (2 * uint(l))
		idx += 2 * clusters
	}
	f.nLinks = idx
	return f, nil
}

// Name identifies the topology family.
func (f *FatTree) Name() string { return f.name }

// N returns the number of nodes.
func (f *FatTree) N() int { return f.n }

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

// Link returns the static description of link i. Its name is
// L<level>/<group>/<up|down>: level 0 is node group's injection (up)
// or ejection (down) link, level l >= 1 the bundle joining level-l
// cluster group to the level above.
func (f *FatTree) Link(i int) Link {
	if i < 0 || i >= f.nLinks {
		panic(fmt.Sprintf("topo: fat-tree link %d out of range [0,%d)", i, f.nLinks))
	}
	level, rel, capacity := 0, i, f.nodeCap
	if i >= 2*f.n {
		level = len(f.offset) - 1
		for l := 1; l < len(f.offset); l++ {
			if i < f.offset[l] {
				level = l - 1
				break
			}
		}
		rel, capacity = i-f.offset[level], f.caps[level]
	}
	dir := "up"
	if rel%2 == 1 {
		dir = "down"
	}
	return Link{Cap: capacity, Level: level, Name: fmt.Sprintf("L%d/%d/%s", level, rel/2, dir)}
}

// lca returns the least-common-ancestor level of distinct nodes a and
// b: the smallest l >= 1 at which they share a cluster.
func (f *FatTree) lca(a, b int) int {
	l := 1
	for a>>(2*uint(l)) != b>>(2*uint(l)) {
		l++
	}
	return l
}

// RouteAppend appends src's injection link, the uplinks of src's
// clusters below the LCA, the downlinks of dst's clusters below the
// LCA, and dst's ejection link: 2*LCA links in all.
func (f *FatTree) RouteAppend(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	f.checkNode(src)
	f.checkNode(dst)
	lca := f.lca(src, dst)
	buf = append(buf, 2*src)
	for l := 1; l < lca; l++ {
		buf = append(buf, f.linkIndex(l, src>>(2*uint(l)), true))
	}
	for l := lca - 1; l >= 1; l-- {
		buf = append(buf, f.linkIndex(l, dst>>(2*uint(l)), false))
	}
	return append(buf, 2*dst+1)
}

// CrossesTop reports whether a message between a and b crosses the top
// of the partition's tree: their LCA is the root. This is the paper's
// "global exchange" predicate behind BEX's advantage over PEX.
func (f *FatTree) CrossesTop(a, b int) bool {
	if a == b {
		return false
	}
	f.checkNode(a)
	f.checkNode(b)
	return f.lca(a, b) == f.levels
}

func (f *FatTree) checkNode(node int) {
	if node < 0 || node >= f.n {
		panic(fmt.Sprintf("topo: fat-tree node %d out of range [0,%d)", node, f.n))
	}
}
