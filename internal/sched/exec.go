package sched

import (
	"fmt"

	"repro/internal/cmmd"
	"repro/internal/sim"
)

// DataHooks supply real payloads when a schedule moves application data.
// With nil hooks the executor sends size-only synthetic messages.
type DataHooks struct {
	// OnSend returns the payload for the transfer src->dst in the given
	// step. Its length overrides the schedule's byte count.
	OnSend func(step int, src, dst int) []byte
	// OnRecv consumes a delivered message.
	OnRecv func(step int, msg cmmd.Message)
	// OnStepDone fires after a node finishes its transfers of a step
	// (nodes with no work in the step never report it). The engine runs
	// exactly one node at a time, so callbacks never race; the metrics
	// executor folds them into per-step completion times.
	OnStepDone func(step, node int, at sim.Time)
}

// RunOn executes the schedule on an existing (un-run) machine and
// returns the simulated completion time of the slowest node. Steps are
// not barrier-separated — just like the paper's algorithms, the
// pairwise rendezvous themselves enforce ordering — so a node with no
// work in a step proceeds immediately.
func RunOn(m *cmmd.Machine, s *Schedule, hooks DataHooks) (sim.Time, error) {
	if m.N() != s.N {
		return 0, fmt.Errorf("sched: machine has %d nodes, schedule wants %d", m.N(), s.N)
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	x := NewIndex(s)
	return m.Run(func(n *cmmd.Node) { ExecuteNode(n, x, hooks) })
}

// Index lists each node's transfers of a schedule, so a node's executor
// visits only its own. It is a CSR layout of exact size: node v's
// entries are ord[off[v]:off[v+1]], the global ordinals (step-major, list
// order within a step) of the transfers v sends or receives, ascending;
// step k's transfers hold ordinals stepStart[k] to stepStart[k+1]-1. At
// PEX N=256 it takes about 0.5 MB, 2·Messages int32 ordinals.
type Index struct {
	s         *Schedule
	off       []int32 // N+1 entries
	ord       []int32 // 2·Messages entries
	stepStart []int32 // steps+1 entries
}

// NewIndex builds the per-node transfer index of a valid schedule (see
// Schedule.Validate), once per run; every node's executor shares it.
func NewIndex(s *Schedule) *Index {
	msgs := s.Messages()
	buf := make([]int32, s.N+1+2*msgs+len(s.Steps)+1)
	x := &Index{
		s:         s,
		off:       buf[:s.N+1],
		ord:       buf[s.N+1 : s.N+1+2*msgs],
		stepStart: buf[s.N+1+2*msgs:],
	}
	// Count node v's transfers into off[v+2], so that after the prefix
	// sum off[v+1] is v's first slot: the fill below advances it as v's
	// cursor and leaves it at v's end, which is where v+1 starts.
	for _, st := range s.Steps {
		for _, tr := range st {
			if tr.Src+2 <= s.N {
				x.off[tr.Src+2]++
			}
			if tr.Dst+2 <= s.N {
				x.off[tr.Dst+2]++
			}
		}
	}
	for v := 2; v <= s.N; v++ {
		x.off[v] += x.off[v-1]
	}
	g := int32(0)
	for k, st := range s.Steps {
		x.stepStart[k] = g
		for _, tr := range st {
			x.ord[x.off[tr.Src+1]] = g
			x.off[tr.Src+1]++
			x.ord[x.off[tr.Dst+1]] = g
			x.off[tr.Dst+1]++
			g++
		}
	}
	x.stepStart[len(s.Steps)] = g
	return x
}

// endpoint is the part of a cmmd.Node the executor drives.
type endpoint interface {
	ID() int
	Now() sim.Time
	Send(dst, tag int, data []byte)
	SendN(dst, tag, nbytes int)
	Recv(src, tag int) cmmd.Message
}

// ExecuteNode runs one node's part of the indexed schedule; exposed so
// applications can interleave schedule execution with computation. The
// node visits only its own transfers, in step order and list order
// within a step.
func ExecuteNode(n *cmmd.Node, x *Index, hooks DataHooks) { executeNode(n, x, hooks) }

func executeNode(n endpoint, x *Index, hooks DataHooks) {
	me := n.ID()
	steps := x.s.Steps
	mine := x.ord[x.off[me]:x.off[me+1]]
	step := 0
	for i, g := range mine {
		for x.stepStart[step+1] <= g {
			step++
		}
		tr := steps[step][g-x.stepStart[step]]
		if me == tr.Src {
			if hooks.OnSend != nil {
				n.Send(tr.Dst, step, hooks.OnSend(step, tr.Src, tr.Dst))
			} else {
				n.SendN(tr.Dst, step, tr.Bytes)
			}
		} else {
			msg := n.Recv(tr.Src, step)
			if hooks.OnRecv != nil {
				hooks.OnRecv(step, msg)
			}
		}
		// The step is done after the node's last transfer in it.
		if hooks.OnStepDone != nil && (i+1 == len(mine) || mine[i+1] >= x.stepStart[step+1]) {
			hooks.OnStepDone(step, me, n.Now())
		}
	}
}

// ExecuteREXNode runs one node's Recursive Exchange complete exchange
// of bytesPerPair per processor pair (paper Figure 3) with synthetic
// payloads. Unlike the direct algorithms, REX is store-and-forward: each
// of the lg N steps moves a combined message of bytesPerPair*N/2 bytes
// and pays pack/unpack memory-copy costs for the reshuffle the paper
// describes. It follows Figure 3's ordering exactly: the lower-numbered
// partner packs and sends before receiving; the higher-numbered partner
// receives first.
func ExecuteREXNode(node *cmmd.Node, bytesPerPair int) {
	n := node.N()
	me := node.ID()
	msg := bytesPerPair * n / 2
	for k := 0; n>>uint(k) >= 2; k++ {
		peer := REXPartner(me, k, n)
		if me < peer {
			node.MemCopy(msg) // pack message to send
			node.SendN(peer, k, msg)
			node.Recv(peer, k)
			node.MemCopy(msg) // unpack received message
		} else {
			node.Recv(peer, k)
			node.MemCopy(msg)
			node.MemCopy(msg)
			node.SendN(peer, k, msg)
		}
	}
}
