// Package sim provides a deterministic discrete-event simulation engine
// with a cooperative process model.
//
// Each simulated processor runs as a coroutine (iter.Pull) driven by one
// scheduler loop in Engine.Run. A process runs until it parks; the loop
// then resumes the next runnable process, or, when none is runnable,
// pops the next event from a single heap ordered by (time, sequence
// number) and fires it. Exactly one process or event executes at any
// instant, so a simulation is fully deterministic: the same inputs always
// produce the same virtual-time trace.
//
// Virtual time is measured in integer nanoseconds (type Time).
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
)

// Time is virtual simulation time in nanoseconds.
type Time int64

// Common durations, for readability at call sites.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts a virtual time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Millis converts a virtual time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest nanosecond. NaN and non-positive inputs give zero; +Inf and
// values past the largest Time saturate at math.MaxInt64.
func FromSeconds(s float64) Time {
	if !(s > 0) {
		return 0
	}
	if ns := s*1e9 + 0.5; ns < 1<<63 {
		return Time(ns)
	}
	return math.MaxInt64
}

// event is a scheduled callback or a timed process wakeup. Events are
// pooled: the engine recycles them instead of allocating one per
// Schedule/Sleep call.
type event struct {
	at    Time
	seq   uint64 // tie-break: FIFO among events at the same instant
	idx   int    // heap position, -1 when not queued
	fn    func()
	proc  *Proc  // timed wakeup: ready proc directly, no closure
	timer *Timer // owned by a Timer: reusable, never pooled
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procNew procState = iota
	procRunnable
	procRunning
	procParked
	procDone
)

// Proc is a simulated process (one per simulated processor). Its body
// function runs as a coroutine resumed by the Engine's scheduler loop.
// All Proc methods must be called from the body.
type Proc struct {
	id       int
	name     string
	eng      *Engine
	body     func(*Proc)
	yield    func(struct{}) bool     // parks the body, back to the loop
	next     func() (struct{}, bool) // resumes the body; false once done
	stop     func()                  // releases a body that never finished
	state    procState
	wakeable bool // parked via Park (Ready allowed), not via Sleep
}

// ID returns the process's index in the engine (0-based, creation order).
func (p *Proc) ID() int { return p.id }

// Name returns the process's debug name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep advances the process's virtual time by d. A non-positive d yields
// without advancing time (the process re-runs in the same instant after
// pending same-time events).
func (p *Proc) Sleep(d Time) {
	eng := p.eng
	ev := eng.getEvent()
	ev.proc = p
	eng.enqueue(eng.deadline(d), ev)
	p.park(false)
}

// Park blocks the process until another component calls Engine.Ready(p)
// (typically from an event callback or another process). A Sleep-parked
// process cannot be woken by Ready; only its own timer resumes it.
func (p *Proc) Park() { p.park(true) }

func (p *Proc) park(wakeable bool) {
	p.state = procParked
	p.wakeable = wakeable
	if !p.yield(struct{}{}) {
		panic(released{}) // Run has returned: unwind the body
	}
}

// released is the panic value that unwinds a body still parked when Run
// returns; run recovers it so that only the body's own panics escape.
type released struct{}

// run is the coroutine body wrapper handed to iter.Pull.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(released); !ok {
				panic(r)
			}
		}
	}()
	p.body(p)
}

// Engine is a deterministic discrete-event simulator.
type Engine struct {
	now      Time
	events   []*event // binary heap ordered by (at, seq)
	seq      uint64
	procs    []*Proc
	runq     []*Proc
	runqHead int
	free     []*event // event pool
	done     int      // finished processes
	ran      bool
	stats    Stats
}

// Stats are the engine's internal event-machinery counters, maintained
// unconditionally (plain integer increments on paths that already
// touch the same cache lines) and folded into the observability layer
// after the run.
type Stats struct {
	EventsFired     int64 // events executed, including timed wakeups
	EventsPooled    int64 // events recycled from the free pool
	EventsAllocated int64 // events allocated because the pool was empty
	HeapHighWater   int   // maximum heap depth reached
}

// Stats returns the engine's event counters.
func (e *Engine) Stats() Stats { return e.stats }

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

func (e *Engine) getEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.stats.EventsPooled++
		return ev
	}
	e.stats.EventsAllocated++
	return &event{idx: -1}
}

func (e *Engine) putEvent(ev *event) {
	ev.fn = nil
	ev.proc = nil
	ev.idx = -1
	e.free = append(e.free, ev)
}

// enqueue stamps the event with the next sequence number and pushes it
// on the heap.
func (e *Engine) enqueue(at Time, ev *event) {
	e.seq++
	ev.at = at
	ev.seq = e.seq
	e.heapPush(ev)
}

// Schedule registers fn to run at virtual time at. Events scheduled for
// the same instant run in registration order. Scheduling in the past is an
// error that panics (it indicates a model bug).
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	ev := e.getEvent()
	ev.fn = fn
	e.enqueue(at, ev)
}

// After schedules fn to run d from now.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.deadline(d), fn) }

// deadline returns the time d from now, clamping a negative d to zero and
// saturating at the largest Time instead of overflowing.
func (e *Engine) deadline(d Time) Time {
	if d < 0 {
		return e.now
	}
	if d > math.MaxInt64-e.now {
		return math.MaxInt64
	}
	return e.now + d
}

// Spawn creates a process with the given debug name and body. It must be
// called before Run.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	if e.ran {
		panic("sim: Spawn after Run")
	}
	p := &Proc{id: len(e.procs), name: name, eng: e, body: body, state: procNew}
	e.procs = append(e.procs, p)
	return p
}

// Ready marks a parked process runnable. It must be called from engine
// context (an event callback or a running process). Readying a process
// that is not parked panics — it indicates a lost-wakeup or double-wakeup
// bug in the model.
func (e *Engine) Ready(p *Proc) {
	if p.state != procParked {
		panic(fmt.Sprintf("sim: Ready(%s) in state %d", p.name, p.state))
	}
	if !p.wakeable {
		panic(fmt.Sprintf("sim: Ready(%s) while in timed sleep", p.name))
	}
	e.ready(p)
}

func (e *Engine) ready(p *Proc) {
	p.state = procRunnable
	e.runq = append(e.runq, p)
}

// fire runs one due event.
func (e *Engine) fire(ev *event) {
	e.stats.EventsFired++
	if ev.proc != nil {
		e.ready(ev.proc)
		e.putEvent(ev)
		return
	}
	if ev.timer != nil {
		ev.fn() // reusable: the timer keeps owning the event
		return
	}
	fn := ev.fn
	e.putEvent(ev)
	fn()
}

// DeadlockError reports that the simulation stalled with live processes.
type DeadlockError struct {
	At      Time
	Parked  []string // names of parked processes
	Pending int      // processes not yet finished
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v ns: %d process(es) parked forever: %v",
		int64(d.At), d.Pending, d.Parked)
}

// Run executes the simulation to completion: all processes finished and no
// events remain, or — if there are no processes — until the event queue
// drains. It returns the final virtual time. If processes remain parked
// with no pending events, Run returns a *DeadlockError. A panic in a
// process body or an event callback propagates out of Run on the caller's
// goroutine, after every process still parked has been released.
func (e *Engine) Run() (Time, error) {
	if e.ran {
		return e.now, fmt.Errorf("sim: Run called twice")
	}
	e.ran = true
	for _, p := range e.procs {
		p.next, p.stop = iter.Pull(p.run)
		e.ready(p)
	}
	defer func() {
		for _, p := range e.procs {
			p.stop()
		}
	}()

	for {
		// Run-queue first: woken processes run before the clock moves.
		if e.runqHead < len(e.runq) {
			p := e.runq[e.runqHead]
			e.runq[e.runqHead] = nil
			e.runqHead++
			p.state = procRunning
			if _, ok := p.next(); !ok {
				p.state = procDone
				e.done++
			}
			continue
		}
		e.runq = e.runq[:0]
		e.runqHead = 0

		if len(e.events) == 0 {
			break
		}
		ev := e.heapPop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.fire(ev)
	}

	if e.done != len(e.procs) {
		var parked []string
		for _, p := range e.procs {
			if p.state != procDone {
				parked = append(parked, p.name)
			}
		}
		sort.Strings(parked)
		return e.now, &DeadlockError{At: e.now, Parked: parked, Pending: len(parked)}
	}
	return e.now, nil
}

// Timer is a reusable, reschedulable event. It exists for the
// schedule-then-supersede pattern (e.g. the data network's
// earliest-completion tick, re-armed on every rate change): Reset moves
// the timer's single heap entry instead of abandoning a stale event and
// allocating a fresh closure each time.
type Timer struct {
	eng *Engine
	ev  *event
}

// NewTimer returns a stopped timer that runs fn in engine context when it
// fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{eng: e, ev: &event{idx: -1, fn: fn}}
	t.ev.timer = t
	return t
}

// Active reports whether the timer is currently scheduled.
func (t *Timer) Active() bool { return t.ev.idx >= 0 }

// Reset schedules the timer to fire at the given time, rescheduling it if
// already pending. Like Schedule, resetting into the past panics.
func (t *Timer) Reset(at Time) {
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: timer reset at %d before now %d", at, e.now))
	}
	e.seq++
	ev := t.ev
	ev.at = at
	ev.seq = e.seq
	if ev.idx >= 0 {
		e.heapFix(ev)
	} else {
		e.heapPush(ev)
	}
}

// Stop unschedules the timer if pending. Stopping a stopped timer is a
// no-op.
func (t *Timer) Stop() {
	if t.ev.idx >= 0 {
		t.eng.heapRemove(t.ev)
	}
}

// Event heap: a hand-rolled binary heap over (at, seq) with position
// tracking, avoiding container/heap's interface boxing on the hottest
// path in the simulator.

func (e *Engine) heapLess(i, j int) bool {
	a, b := e.events[i], e.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapSwap(i, j int) {
	e.events[i], e.events[j] = e.events[j], e.events[i]
	e.events[i].idx = i
	e.events[j].idx = j
}

func (e *Engine) heapPush(ev *event) {
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	if len(e.events) > e.stats.HeapHighWater {
		e.stats.HeapHighWater = len(e.events)
	}
	e.siftUp(ev.idx)
}

func (e *Engine) heapPop() *event {
	top := e.events[0]
	last := len(e.events) - 1
	e.events[0] = e.events[last]
	e.events[0].idx = 0
	e.events[last] = nil
	e.events = e.events[:last]
	if last > 0 {
		e.siftDown(0)
	}
	top.idx = -1
	return top
}

func (e *Engine) heapRemove(ev *event) {
	i := ev.idx
	last := len(e.events) - 1
	if i != last {
		e.events[i] = e.events[last]
		e.events[i].idx = i
	}
	e.events[last] = nil
	e.events = e.events[:last]
	if i < last {
		e.siftDown(i)
		e.siftUp(i)
	}
	ev.idx = -1
}

func (e *Engine) heapFix(ev *event) {
	i := ev.idx
	e.siftDown(i)
	if e.events[i] == ev {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heapLess(i, parent) {
			break
		}
		e.heapSwap(i, parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.events)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		small := left
		if right := left + 1; right < n && e.heapLess(right, left) {
			small = right
		}
		if !e.heapLess(small, i) {
			break
		}
		e.heapSwap(i, small)
		i = small
	}
}
