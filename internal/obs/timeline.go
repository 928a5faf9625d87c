package obs

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Arg is one integer annotation on a timeline event (byte counts, step
// indices). Values are int64 because everything the simulator knows —
// sim times, wire bytes, node ids — is integral; keeping args integral
// keeps the encoded JSON trivially deterministic.
type Arg struct {
	Key string
	Val int64
}

// Span is a closed interval of simulated time on one track: a flow
// lifetime, a message wait or transfer, a scheduler step or phase.
type Span struct {
	Cat        string // track category: "flow", "msg", "sched"
	Name       string
	Tid        int   // track id: node/source id, or -1 for run-scoped events
	Start, End int64 // simulated nanoseconds
	Args       []Arg
}

// Instant is a point event in simulated time: a fault firing, an AS
// re-plan.
type Instant struct {
	Cat  string
	Name string
	Tid  int
	At   int64 // simulated nanoseconds
	Args []Arg
}

// Timeline records spans and instants in simulated nanoseconds and
// encodes them as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing). Sim time is deterministic, so a timeline is too:
// the encoded bytes of a fixed run can be pinned in a golden test.
//
// A nil *Timeline is valid: every method is a no-op, which is how the
// stack stays unobserved by default.
type Timeline struct {
	mu       sync.Mutex
	spans    []Span
	instants []Instant
}

// NewTimeline returns an empty recorder.
func NewTimeline() *Timeline { return &Timeline{} }

// RecordSpan appends a span. No-op on a nil timeline.
func (t *Timeline) RecordSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// RecordInstant appends an instant. No-op on a nil timeline.
func (t *Timeline) RecordInstant(i Instant) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.instants = append(t.instants, i)
	t.mu.Unlock()
}

// Instants returns a copy of the recorded instants in insertion order.
func (t *Timeline) Instants() []Instant {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Instant, len(t.instants))
	copy(out, t.instants)
	return out
}

// Len returns the number of recorded spans and instants.
func (t *Timeline) Len() (spans, instants int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), len(t.instants)
}

// usec renders simulated nanoseconds as the trace format's fractional
// microseconds with exact nanosecond precision (88125 ns -> "88.125").
func usec(ns int64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

func writeArgs(b *strings.Builder, args []Arg) {
	if len(args) == 0 {
		return
	}
	b.WriteString(`,"args":{`)
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(a.Key))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(a.Val, 10))
	}
	b.WriteByte('}')
}

// Encode renders the timeline as Chrome trace-event JSON: spans as
// ph="X" duration events, instants as ph="i". Events are stably sorted
// by start time (insertion order breaks ties), timestamps are sim
// nanoseconds rendered as microsecond floats, and every map is emitted
// in a fixed field order — the bytes are fully deterministic.
func (t *Timeline) Encode() []byte {
	if t == nil {
		return []byte("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n")
	}
	t.mu.Lock()
	type ev struct {
		at   int64
		ord  int
		span bool
		idx  int
	}
	evs := make([]ev, 0, len(t.spans)+len(t.instants))
	for i, s := range t.spans {
		evs = append(evs, ev{at: s.Start, ord: len(evs), span: true, idx: i})
	}
	for i, in := range t.instants {
		evs = append(evs, ev{at: in.At, ord: len(evs), span: false, idx: i})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].ord < evs[j].ord
	})
	var b strings.Builder
	b.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	for i, e := range evs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n")
		if e.span {
			s := t.spans[e.idx]
			fmt.Fprintf(&b, `{"name":%s,"cat":%s,"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s`,
				strconv.Quote(s.Name), strconv.Quote(s.Cat), s.Tid, usec(s.Start), usec(s.End-s.Start))
			writeArgs(&b, s.Args)
		} else {
			in := t.instants[e.idx]
			fmt.Fprintf(&b, `{"name":%s,"cat":%s,"ph":"i","s":"g","pid":0,"tid":%d,"ts":%s`,
				strconv.Quote(in.Name), strconv.Quote(in.Cat), in.Tid, usec(in.At))
			writeArgs(&b, in.Args)
		}
		b.WriteByte('}')
	}
	t.mu.Unlock()
	b.WriteString("\n]}\n")
	return []byte(b.String())
}

// WriteFile encodes the timeline to path.
func (t *Timeline) WriteFile(path string) error {
	return os.WriteFile(path, t.Encode(), 0o644)
}
