package cmmd

import "repro/internal/sim"

// NodeFinishTimes returns each node's program completion time. Valid
// after Run.
func (m *Machine) NodeFinishTimes() []sim.Time {
	out := make([]sim.Time, len(m.nodes))
	for i, n := range m.nodes {
		out[i] = n.finished
	}
	return out
}
