package topo

import "fmt"

// Dragonfly is the aggregated two-tier dragonfly: nodes are partitioned
// into groups, each group's router serves its nodes through a shared
// local crossbar link (Level 1), and every ordered group pair is joined
// by one directed global link (Level 2). Routes are minimal: source
// router, one global hop, destination router. The global links are the
// tapered, contended resource — exactly the role the upper fat-tree
// levels play on the CM-5 — while the router links model finite local
// switching capacity.
type Dragonfly struct {
	groups, size int
	nodeRate     float64
	localRate    float64 // per-group router crossbar capacity
	globalRate   float64 // per directed group-pair global link capacity
	name         string
}

// NewDragonfly builds a dragonfly of groups x size nodes. The router
// crossbar capacity is size * nodeRate (full local injection bandwidth),
// and each directed global link gets size * nodeRate / (2 * (groups-1)):
// a group's aggregate global bandwidth is half its injection bandwidth,
// spread evenly over its peers — a balanced, tapered global tier.
func NewDragonfly(groups, size int, nodeRate, linkRate float64) (*Dragonfly, error) {
	if groups < 2 || size < 1 {
		return nil, fmt.Errorf("topo: dragonfly needs >= 2 groups of >= 1 node (got %dx%d)", groups, size)
	}
	if !(nodeRate > 0) || !(linkRate > 0) {
		return nil, fmt.Errorf("topo: dragonfly rates (node %v, link %v) must be positive", nodeRate, linkRate)
	}
	return &Dragonfly{
		groups: groups, size: size,
		nodeRate:   nodeRate,
		localRate:  float64(size) * linkRate,
		globalRate: float64(size) * linkRate / (2 * float64(groups-1)),
		name:       fmt.Sprintf("dragonfly(%dx%d)", groups, size),
	}, nil
}

// Name identifies the topology family and shape.
func (g *Dragonfly) Name() string { return g.name }

// N returns the number of nodes.
func (g *Dragonfly) N() int { return g.groups * g.size }

// NumLinks returns the number of directed links: 2 node links per node,
// one router link per group, and one global link per ordered group pair.
func (g *Dragonfly) NumLinks() int {
	n := g.N()
	return 2*n + g.groups + g.groups*(g.groups-1)
}

// routerIndex returns group gr's shared crossbar link.
func (g *Dragonfly) routerIndex(gr int) int { return 2*g.N() + gr }

// globalIndex returns the directed global link from group a to group b.
func (g *Dragonfly) globalIndex(a, b int) int {
	rel := b
	if b > a {
		rel--
	}
	return 2*g.N() + g.groups + a*(g.groups-1) + rel
}

// Link returns the static description of link i.
func (g *Dragonfly) Link(i int) Link {
	n := g.N()
	if i < 0 || i >= g.NumLinks() {
		panic(fmt.Sprintf("topo: dragonfly link %d out of range [0,%d)", i, g.NumLinks()))
	}
	switch {
	case i < 2*n:
		return Link{Cap: g.nodeRate, Level: 0, Name: nodeLinkName(i)}
	case i < 2*n+g.groups:
		return Link{Cap: g.localRate, Level: 1, Name: fmt.Sprintf("router/g%d", i-2*n)}
	default:
		rel := i - 2*n - g.groups
		a, b := rel/(g.groups-1), rel%(g.groups-1)
		if b >= a {
			b++
		}
		return Link{Cap: g.globalRate, Level: 2, Name: fmt.Sprintf("global/g%d-g%d", a, b)}
	}
}

// RouteAppend routes minimally: injection, source router, a global hop
// when the groups differ, destination router, ejection. Intra-group
// traffic crosses its group's router once.
func (g *Dragonfly) RouteAppend(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	g.checkNode(src)
	g.checkNode(dst)
	buf = append(buf, 2*src)
	gs, gd := src/g.size, dst/g.size
	if gs == gd {
		buf = append(buf, g.routerIndex(gs))
	} else {
		buf = append(buf, g.routerIndex(gs), g.globalIndex(gs, gd), g.routerIndex(gd))
	}
	return append(buf, 2*dst+1)
}

func (g *Dragonfly) checkNode(node int) {
	if node < 0 || node >= g.N() {
		panic(fmt.Sprintf("topo: dragonfly node %d out of range [0,%d)", node, g.N()))
	}
}
