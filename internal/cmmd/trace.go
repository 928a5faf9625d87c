package cmmd

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// MsgEvent records one message's lifecycle: when the sender finished its
// software overhead and entered the rendezvous (Posted), when the wire
// transfer began (Started — the rendezvous wait is Started-Posted), and
// when the last byte arrived (Ended).
type MsgEvent struct {
	Src, Dst, Tag int
	Bytes         int
	Posted        sim.Time
	Started       sim.Time
	Ended         sim.Time
}

// Wait returns how long the message waited for its rendezvous partner
// (zero under buffered sends).
func (e MsgEvent) Wait() sim.Time { return e.Started - e.Posted }

// Trace collects message events for a machine run.
type Trace struct {
	Events []MsgEvent
}

// NodeSummary aggregates one node's sending behaviour.
type NodeSummary struct {
	Node      int
	Messages  int
	Bytes     int64
	TotalWait sim.Time
	MaxWait   sim.Time
}

// BySender returns per-sending-node summaries, indexed by node id.
func (t *Trace) BySender(n int) []NodeSummary {
	out := make([]NodeSummary, n)
	for i := range out {
		out[i].Node = i
	}
	for _, e := range t.Events {
		s := &out[e.Src]
		s.Messages++
		s.Bytes += int64(e.Bytes)
		w := e.Wait()
		s.TotalWait += w
		if w > s.MaxWait {
			s.MaxWait = w
		}
	}
	return out
}

// TotalWait sums rendezvous waiting across all messages — the idle time
// the paper's scheduling algorithms compete to eliminate.
func (t *Trace) TotalWait() sim.Time {
	var total sim.Time
	for _, e := range t.Events {
		total += e.Wait()
	}
	return total
}

// Summary renders a compact per-node wait report.
func (t *Trace) Summary(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5s  %8s  %10s  %12s  %12s\n", "node", "msgs", "bytes", "wait total", "wait max")
	for _, r := range t.BySender(n) {
		fmt.Fprintf(&b, "%5d  %8d  %10d  %9.3f ms  %9.3f ms\n",
			r.Node, r.Messages, r.Bytes, r.TotalWait.Millis(), r.MaxWait.Millis())
	}
	return b.String()
}

// EnableTrace turns on message tracing; must be called before Run.
func (m *Machine) EnableTrace() {
	if m.trace == nil {
		m.trace = &Trace{}
	}
}

// Trace returns the recorded events (nil unless EnableTrace was called).
func (m *Machine) Trace() *Trace { return m.trace }

// SetTraceSink registers fn to receive every message event as it
// completes, independently of EnableTrace — the tee behind the trace
// recorder of internal/trace. Must be called before Run. The callback
// runs inside the simulation (one engine step at a time) and must not
// block; a nil fn detaches the sink.
func (m *Machine) SetTraceSink(fn func(MsgEvent)) { m.sink = fn }

// recordEvent files one completed message with the trace buffer, the
// sink, and the timeline, whichever are attached.
func (m *Machine) recordEvent(ev MsgEvent) {
	if m.trace != nil {
		m.trace.Events = append(m.trace.Events, ev)
	}
	if m.sink != nil {
		m.sink(ev)
	}
	if m.tl != nil {
		m.recordTimeline(ev)
	}
}
