package network

import "repro/internal/sim"

// ControlNet models the CM-5 control network: a dedicated hardware tree
// for broadcasts, reductions, parallel-prefix operations, and barriers.
// It is contention-free (one collective at a time, which is how the
// synchronous CMMD programming model used it) and has 2-5 us latency.
//
// ControlNet computes collective durations; the coordination of node
// arrival is done by the messaging layer on top.
type ControlNet struct {
	levels int
	cfg    Config
}

// NewControlNet creates a control network over a partition whose tree
// has the given number of levels (topo.FatTreeLevels of its size).
func NewControlNet(levels int, cfg Config) *ControlNet {
	return &ControlNet{levels: levels, cfg: cfg}
}

// base is the latency floor of any control-network operation: the base
// latency plus per-level propagation up and down the tree.
func (c *ControlNet) base() sim.Time {
	return c.cfg.CtrlBaseLatency + sim.Time(2*c.levels)*c.cfg.CtrlPerLevelTime
}

// BarrierTime returns the duration of a full-partition barrier.
func (c *ControlNet) BarrierTime() sim.Time { return c.base() }

// BcastTime returns the duration of the system broadcast of n user bytes
// from one node to all others. The control network's broadcast bandwidth
// is far below the data network's node rate, which is why the paper's
// Recursive Broadcast overtakes the system call for large messages.
func (c *ControlNet) BcastTime(userBytes int) sim.Time {
	if userBytes < 0 {
		userBytes = 0
	}
	return c.base() + sim.FromSeconds(float64(userBytes)/c.cfg.CtrlBcastRate)
}

// CombineTime returns the duration of a global reduction or parallel
// prefix over n user bytes per node.
func (c *ControlNet) CombineTime(userBytes int) sim.Time {
	if userBytes < 0 {
		userBytes = 0
	}
	return c.base() + sim.FromSeconds(float64(userBytes)/c.cfg.CtrlCombineRate)
}
