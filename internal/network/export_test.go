package network

// ActiveFlows returns the number of in-flight flows.
func (d *DataNet) ActiveFlows() int { return len(d.flows) }

// LinkCarried returns the total wire bytes each link has carried so far,
// keyed by topology link index. Only links that ever carried traffic
// appear.
func (d *DataNet) LinkCarried() map[int]float64 {
	out := make(map[int]float64)
	for idx, l := range d.links {
		if l != nil && l.carried > 0 {
			out[idx] = l.carried
		}
	}
	return out
}

// LevelCarried aggregates LinkCarried by topology level (both
// directions combined): how many wire bytes crossed each tier of the
// network. For the fat tree the levels are the tree levels; other
// topologies define their own tiers (see topo.Link).
func (d *DataNet) LevelCarried() map[int]float64 {
	out := make(map[int]float64)
	for idx, l := range d.links {
		if l != nil && l.carried > 0 {
			out[d.top.Link(idx).Level] += l.carried
		}
	}
	return out
}
