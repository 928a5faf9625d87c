package sched

import (
	"fmt"

	"repro/internal/cmmd"
)

// crystalHeaderBytes is the per-message routing header the crystal
// router carries for each forwarded item (origin, destination, length).
const crystalHeaderBytes = 8

// runCrystalMetrics executes the request's irregular communication
// pattern with the crystal router of Fox et al. (Solving Problems on
// Concurrent Processors, 1988) — the hypercube store-and-forward
// baseline the paper cites for dynamic message scheduling (Section 4).
//
// In dimension-order rounds d = lg N - 1 .. 0, every node combines all
// messages it holds (original or forwarded) whose destination differs
// from it in bit d into one packet train and exchanges it with its
// dimension-d neighbor. After lg N rounds every message has arrived.
// Like REX, it trades per-message overhead (only lg N exchanges per
// node) for forwarded bytes and pack/unpack work — a trade that loses to
// the paper's direct schedulers on sparse patterns.
func runCrystalMetrics(req Request) (*Metrics, error) {
	p := req.Pattern
	n := p.N()
	m, err := newMachine(n, req)
	if err != nil {
		return nil, err
	}
	lg := LgN(n)
	// trains[node][d] is the packet train node sends across dimension
	// d; its peer unpacks exactly those items once its Recv returns.
	trains := make([][][]crystalItem, n)
	delivered := make([][]int, n) // delivered[dst] = bytes received per origin
	for i := range delivered {
		trains[i] = make([][]crystalItem, lg)
		delivered[i] = make([]int, n)
	}
	elapsed, err := m.Run(func(node *cmmd.Node) {
		me := node.ID()
		var items []crystalItem
		for dst := 0; dst < n; dst++ {
			if p[me][dst] > 0 {
				items = append(items, crystalItem{origin: me, dest: dst, bytes: p[me][dst]})
			}
		}
		for d := lg - 1; d >= 0; d-- {
			peer := me ^ (1 << uint(d))
			var keep, train []crystalItem
			for _, it := range items {
				if (it.dest>>uint(d))&1 != (me>>uint(d))&1 {
					train = append(train, it)
				} else {
					keep = append(keep, it)
				}
			}
			trains[me][d] = train
			sendBytes := crystalTrainBytes(train)
			node.MemCopy(sendBytes) // pack the outgoing train
			if me < peer {
				node.Recv(peer, d)
				node.SendN(peer, d, sendBytes)
			} else {
				node.SendN(peer, d, sendBytes)
				node.Recv(peer, d)
			}
			incoming := trains[peer][d]
			node.MemCopy(crystalTrainBytes(incoming)) // unpack
			items = append(keep, incoming...)
		}
		for _, it := range items {
			if it.dest != me {
				panic(fmt.Sprintf("sched: crystal router stranded %d->%d at %d", it.origin, it.dest, me))
			}
			delivered[me][it.origin] = it.bytes
		}
	})
	if err != nil {
		return nil, err
	}
	// Verify every message arrived intact.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if p[src][dst] > 0 && delivered[dst][src] != p[src][dst] {
				return nil, fmt.Errorf("sched: crystal router delivered %d of %d bytes for %d->%d",
					delivered[dst][src], p[src][dst], src, dst)
			}
		}
	}
	met := &Metrics{Steps: lg, MaxFanIn: 1}
	met.Messages = m.Net().TotalFlows()
	met.TotalBytes = m.UserBytesSent()
	finishMetrics(met, m, elapsed)
	return met, nil
}

// crystalItem is one routed message inside a combined train.
type crystalItem struct{ origin, dest, bytes int }

// crystalTrainBytes is a train's size on the wire: every item's payload
// plus its routing header.
func crystalTrainBytes(train []crystalItem) int {
	total := 0
	for _, it := range train {
		total += it.bytes + crystalHeaderBytes
	}
	return total
}
