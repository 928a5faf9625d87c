// Package network simulates the CM-5's two interprocessor networks.
//
// The data network is modeled at flow level: each in-flight message is a
// flow whose instantaneous rate is the max-min fair bandwidth allocation
// subject to the fat tree's aggregated link capacities. The capacities are
// chosen so the simulator reproduces the machine's published envelope:
// 20 MB/s per node inside a cluster of 4, 10 MB/s inside a cluster of 16,
// and 5 MB/s per node across the partition root — a single uncontended
// flow gets the full 20 MB/s node-interface rate at any distance, while
// saturating all-to-all traffic drops to 5 MB/s per node, exactly the
// behaviour the scheduling algorithms in the paper exploit.
//
// The control network is a separate, contention-free model of the CM-5's
// hardware broadcast/combine tree with microsecond-scale base latency and
// a far lower broadcast bandwidth than the data network.
//
// The package also defines the fault model (fault.go): a FaultPlan is a
// versioned, seed-deterministic list of timed events — link failures
// (in-flight flows detour and the residual graph is re-solved max-min),
// degraded link capacity, straggler nodes, and injected background
// cross-traffic — applied to a DataNet by cmmd.Machine.ApplyFaults.
// Named profiles (FaultProfiles) generate plans for any topology from a
// seed, so faulty runs stay cacheable in the result store.
package network

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Config holds the CM-5 timing constants used by the simulator. All rates
// are bytes per second; MB/s in the paper means 1e6 bytes/s.
type Config struct {
	// NodeLinkRate is the capacity of each node's injection and ejection
	// link (20 MB/s on the CM-5), and therefore the peak rate of any
	// single flow.
	NodeLinkRate float64

	// Cluster4UpRate is the aggregate capacity connecting a cluster of 4
	// nodes to the level above, one direction (40 MB/s: 10 MB/s per node
	// when all four stream outward).
	Cluster4UpRate float64

	// ThinRatePerNode is the per-node share guaranteed above level 1
	// (5 MB/s on the CM-5): a level-l cluster of 4^l nodes (l >= 2) has
	// 4^l * ThinRatePerNode of capacity toward the level above.
	ThinRatePerNode float64

	// PacketSize and PacketPayload describe data-network packetization:
	// 20-byte packets carrying 16 bytes of user data.
	PacketSize    int
	PacketPayload int

	// WireLatency is the fixed network traversal latency of a message
	// once its transfer begins.
	WireLatency sim.Time

	// SendOverhead and RecvOverhead are the per-message software costs on
	// the sending and receiving SPARC nodes (CMMD call overhead). They
	// are chosen so a zero-byte message costs the paper's measured 88 us
	// end to end: SendOverhead + RecvOverhead + WireLatency + one packet.
	SendOverhead sim.Time
	RecvOverhead sim.Time

	// MemCopyRate models node-local memcpy bandwidth (used for message
	// pack/unpack in the store-and-forward Recursive Exchange, and for
	// node-local "self" messages).
	MemCopyRate float64

	// FlopRate models sustained node floating-point throughput (flops/s)
	// for the application studies (2-D FFT, CG, Euler). The CM-5 node of
	// the paper ran without vector units.
	FlopRate float64

	// Control network.
	CtrlBaseLatency  sim.Time // barrier / 0-byte collective latency (2-5 us)
	CtrlBcastRate    float64  // system broadcast bandwidth (bytes/s)
	CtrlCombineRate  float64  // reduction/scan bandwidth (bytes/s)
	CtrlPerLevelTime sim.Time // extra latency per tree level
}

// DefaultConfig returns the calibrated CM-5 model constants.
func DefaultConfig() Config {
	return Config{
		NodeLinkRate:     20e6,
		Cluster4UpRate:   40e6,
		ThinRatePerNode:  5e6,
		PacketSize:       20,
		PacketPayload:    16,
		WireLatency:      7 * sim.Microsecond,
		SendOverhead:     40 * sim.Microsecond,
		RecvOverhead:     40 * sim.Microsecond,
		MemCopyRate:      50e6,
		FlopRate:         2.5e6,
		CtrlBaseLatency:  4 * sim.Microsecond,
		CtrlBcastRate:    0.85e6,
		CtrlCombineRate:  2e6,
		CtrlPerLevelTime: 500 * sim.Nanosecond,
	}
}

// Validate rejects configurations that would drive the flow solver to
// NaN rates or zero-progress allocations: every rate and packet size
// must be positive, latencies and overheads non-negative, and the
// packet payload must fit its packet. NewMachine validates its Config
// up front so a bad constant fails with a descriptive error instead of
// a panic deep in the solver.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"NodeLinkRate", c.NodeLinkRate},
		{"Cluster4UpRate", c.Cluster4UpRate},
		{"ThinRatePerNode", c.ThinRatePerNode},
		{"MemCopyRate", c.MemCopyRate},
		{"FlopRate", c.FlopRate},
		{"CtrlBcastRate", c.CtrlBcastRate},
		{"CtrlCombineRate", c.CtrlCombineRate},
	}
	for _, r := range rates {
		if !(r.v > 0) { // negated to also catch NaN
			return fmt.Errorf("network: config %s = %v; must be positive", r.name, r.v)
		}
	}
	if c.PacketSize <= 0 {
		return fmt.Errorf("network: config PacketSize = %d; must be positive", c.PacketSize)
	}
	if c.PacketPayload <= 0 || c.PacketPayload > c.PacketSize {
		return fmt.Errorf("network: config PacketPayload = %d; must be in [1, PacketSize=%d]",
			c.PacketPayload, c.PacketSize)
	}
	times := []struct {
		name string
		v    sim.Time
	}{
		{"WireLatency", c.WireLatency},
		{"SendOverhead", c.SendOverhead},
		{"RecvOverhead", c.RecvOverhead},
		{"CtrlBaseLatency", c.CtrlBaseLatency},
		{"CtrlPerLevelTime", c.CtrlPerLevelTime},
	}
	for _, t := range times {
		if t.v < 0 {
			return fmt.Errorf("network: config %s = %v; must be non-negative", t.name, t.v)
		}
	}
	return nil
}

// TopologyRates extracts the rate constants topology constructors
// consume.
func (c Config) TopologyRates() topo.Rates {
	return topo.Rates{
		NodeLink:    c.NodeLinkRate,
		Cluster4Up:  c.Cluster4UpRate,
		ThinPerNode: c.ThinRatePerNode,
	}
}

// FatTree builds the calibrated CM-5 fat tree over n nodes from this
// configuration's rates — the topology NewMachine uses by default.
func (c Config) FatTree(n int) (topo.Topology, error) {
	return topo.NewFatTree(n, c.TopologyRates())
}

// WireBytes returns the number of bytes a message of userBytes occupies on
// the wire after packetization: whole 20-byte packets of 16 bytes payload
// each. A zero-byte message still costs one packet.
func (c Config) WireBytes(userBytes int) int {
	if userBytes < 0 {
		userBytes = 0
	}
	packets := (userBytes + c.PacketPayload - 1) / c.PacketPayload
	if packets == 0 {
		packets = 1
	}
	return packets * c.PacketSize
}

// MemCopyTime returns the virtual time to copy n bytes node-locally.
func (c Config) MemCopyTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.FromSeconds(float64(n) / c.MemCopyRate)
}

// ComputeTime returns the virtual time to execute n floating-point
// operations at the configured node throughput.
func (c Config) ComputeTime(flops float64) sim.Time {
	if flops <= 0 {
		return 0
	}
	return sim.FromSeconds(flops / c.FlopRate)
}
