package sched

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cmmd"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// executeNodeOracle is the executor as first written: every node scans
// every transfer of every step and acts on the ones it is part of. The
// indexed executor must make exactly its calls, in its order.
func executeNodeOracle(n endpoint, s *Schedule, hooks DataHooks) {
	me := n.ID()
	for step, st := range s.Steps {
		acted := false
		for _, tr := range st {
			switch me {
			case tr.Src:
				if hooks.OnSend != nil {
					n.Send(tr.Dst, step, hooks.OnSend(step, tr.Src, tr.Dst))
				} else {
					n.SendN(tr.Dst, step, tr.Bytes)
				}
				acted = true
			case tr.Dst:
				msg := n.Recv(tr.Src, step)
				if hooks.OnRecv != nil {
					hooks.OnRecv(step, msg)
				}
				acted = true
			}
		}
		if acted && hooks.OnStepDone != nil {
			hooks.OnStepDone(step, me, n.Now())
		}
	}
}

// callLog is an endpoint that records the executor's calls instead of
// simulating them. Its clock is the number of calls so far, so an
// OnStepDone fired at a different point reads a different time.
type callLog struct {
	id    int
	calls []string
}

func (c *callLog) log(format string, args ...any) {
	c.calls = append(c.calls, fmt.Sprintf(format, args...))
}

func (c *callLog) ID() int       { return c.id }
func (c *callLog) Now() sim.Time { return sim.Time(len(c.calls)) }
func (c *callLog) Send(dst, tag int, data []byte) {
	c.log("Send(dst=%d tag=%d size=%d)", dst, tag, len(data))
}
func (c *callLog) SendN(dst, tag, nbytes int) {
	c.log("SendN(dst=%d tag=%d size=%d)", dst, tag, nbytes)
}
func (c *callLog) Recv(src, tag int) cmmd.Message {
	c.log("Recv(src=%d tag=%d)", src, tag)
	return cmmd.Message{Src: src, Tag: tag, Size: src + tag}
}

// nodeCalls runs every node of the schedule through exec on a call log,
// once with payload hooks (Send, OnSend, OnRecv) and once with the
// size-only hooks ExecuteSchedule uses (SendN), and returns each node's
// calls.
func nodeCalls(s *Schedule, exec func(endpoint, DataHooks)) [][]string {
	out := make([][]string, s.N)
	for v := range out {
		c := &callLog{id: v}
		done := func(step, node int, at sim.Time) {
			c.log("OnStepDone(step=%d node=%d at=%d)", step, node, at)
		}
		exec(c, DataHooks{
			OnSend: func(step, src, dst int) []byte {
				c.log("OnSend(step=%d src=%d dst=%d)", step, src, dst)
				return make([]byte, step+src+dst)
			},
			OnRecv: func(step int, msg cmmd.Message) {
				c.log("OnRecv(step=%d src=%d tag=%d size=%d)", step, msg.Src, msg.Tag, msg.Size)
			},
			OnStepDone: done,
		})
		exec(c, DataHooks{OnStepDone: done})
		out[v] = c.calls
	}
	return out
}

// TestExecuteNodeMatchesOracle checks that the indexed executor makes
// every node's calls exactly as the full scan does: every registry
// schedule at N=2..64, and the paper's irregular schedulers on the
// catalogue's skewed and structured patterns. LEX is the funnel: in step
// i node i receives N-1 transfers in list order.
func TestExecuteNodeMatchesOracle(t *testing.T) {
	type tc struct {
		name string
		s    *Schedule
	}
	var cases []tc
	for n := 2; n <= 64; n *= 2 {
		for _, inf := range Algorithms() {
			if inf.plan == nil {
				continue
			}
			req := Request{N: n, Bytes: 96, Offset: n/2 + 1, Seed: 3}
			if inf.Kind == KindIrregular {
				req.Pattern = pattern.Synthetic(n, 0.3, 96, int64(n))
			}
			s, err := inf.Plan(req)
			if err != nil {
				t.Fatalf("%s N=%d: %v", inf.Name, n, err)
			}
			cases = append(cases, tc{fmt.Sprintf("%s/N%d", inf.Name, n), s})
		}
	}
	patterns := []struct {
		name string
		p    pattern.Matrix
	}{
		{"hotspot", pattern.HotSpot(64, 5, 128)},
		{"stencil3d", pattern.Stencil3D(64, 128)},
		{"synthetic10", pattern.Synthetic(64, 0.1, 128, 7)},
		{"synthetic50", pattern.Synthetic(64, 0.5, 128, 7)},
	}
	for _, p := range patterns {
		for _, alg := range []string{"LS", "PS", "BS", "GS"} {
			inf, err := Lookup(alg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := inf.Plan(Request{Pattern: p.p})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tc{alg + "/" + p.name, s})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.s.Validate(); err != nil {
				t.Fatal(err)
			}
			x := NewIndex(c.s)
			want := nodeCalls(c.s, func(n endpoint, h DataHooks) { executeNodeOracle(n, c.s, h) })
			got := nodeCalls(c.s, func(n endpoint, h DataHooks) { executeNode(n, x, h) })
			visits := 0
			for v := range want {
				if i := firstDiff(got[v], want[v]); i >= 0 {
					t.Fatalf("node %d call %d: indexed executor %q, full scan %q",
						v, i, at(got[v], i), at(want[v], i))
				}
				visits += int(x.off[v+1] - x.off[v])
			}
			if visits != 2*c.s.Messages() {
				t.Fatalf("index lists %d transfer visits, want 2·%d", visits, c.s.Messages())
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []string) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func at(calls []string, i int) string {
	if i < len(calls) {
		return calls[i]
	}
	return "<end>"
}
