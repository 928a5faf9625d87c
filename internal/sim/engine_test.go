package sim

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// settleGoroutines waits briefly for the goroutine count to fall to want
// and returns the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestEmptyEngineRuns(t *testing.T) {
	e := NewEngine()
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 0 {
		t.Fatalf("end = %d, want 0", end)
	}
}

func TestRunTwiceErrors(t *testing.T) {
	e := NewEngine()
	if _, err := e.Run(); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run should error")
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 30 {
		t.Fatalf("end = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestEventsChainedFromEvents(t *testing.T) {
	e := NewEngine()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 100 {
			e.After(1, chain)
		}
	}
	e.Schedule(0, chain)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 100 || end != 99 {
		t.Fatalf("n=%d end=%d, want 100, 99", n, end)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Microsecond)
			ticks = append(ticks, p.Now())
		}
	})
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 50*Microsecond {
		t.Fatalf("end = %d, want 50us", end)
	}
	for i, tk := range ticks {
		if want := Time(i+1) * 10 * Microsecond; tk != want {
			t.Fatalf("tick %d at %d, want %d", i, tk, want)
		}
	}
}

func TestProcZeroSleepYields(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		ran = true
		if p.Now() != 0 {
			t.Errorf("zero sleep advanced time to %d", p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("process did not resume after zero sleep")
	}
}

func TestLongSleepSaturates(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5)
		p.Sleep(FromSeconds(1e10))
		p.Sleep(1)
	})
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != math.MaxInt64 {
		t.Fatalf("end = %d, want the largest Time", end)
	}
}

func TestNegativeSleepClamps(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("negative sleep moved time to %d", p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		mk := func(name string, d Time) func(*Proc) {
			return func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Sleep(d)
					log = append(log, name)
				}
			}
		}
		e.Spawn("a", mk("a", 3))
		e.Spawn("b", mk("b", 5))
		if _, err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic length")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// a at 3,6,9,12; b at 5,10,15,20 -> a b a a b a b b
	want := []string{"a", "b", "a", "a", "b", "a", "b", "b"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("interleaving = %v, want %v", first, want)
		}
	}
}

func TestParkAndReady(t *testing.T) {
	e := NewEngine()
	var wokeAt Time
	p := e.Spawn("sleeper", func(p *Proc) {
		p.Park()
		wokeAt = p.Now()
	})
	e.Schedule(42, func() { e.Ready(p) })
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 42 {
		t.Fatalf("woke at %d, want 42", wokeAt)
	}
}

func TestProcWakesAnotherProc(t *testing.T) {
	e := NewEngine()
	var order []string
	var waiter *Proc
	waiter = e.Spawn("waiter", func(p *Proc) {
		p.Park()
		order = append(order, "waiter")
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "waker")
		e.Ready(waiter)
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "waker" || order[1] != "waiter" {
		t.Fatalf("order = %v", order)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck-a", func(p *Proc) { p.Park() })
	e.Spawn("stuck-b", func(p *Proc) { p.Park() })
	_, err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if de.Pending != 2 {
		t.Fatalf("Pending = %d, want 2", de.Pending)
	}
	if len(de.Parked) != 2 || de.Parked[0] != "stuck-a" || de.Parked[1] != "stuck-b" {
		t.Fatalf("Parked = %v", de.Parked)
	}
	if de.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestPartialDeadlockStillReported(t *testing.T) {
	e := NewEngine()
	e.Spawn("ok", func(p *Proc) { p.Sleep(5) })
	e.Spawn("stuck", func(p *Proc) { p.Park() })
	_, err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok || de.Pending != 1 || de.Parked[0] != "stuck" {
		t.Fatalf("err = %v", err)
	}

	// Run releases the parked bodies: their deferred calls run and
	// nothing is left blocked once it returns.
	base := runtime.NumGoroutine()
	released := 0
	for run := 0; run < 10; run++ {
		e := NewEngine()
		e.Spawn("ok", func(p *Proc) { p.Sleep(5) })
		for i := 0; i < 50; i++ {
			e.Spawn("stuck", func(p *Proc) {
				defer func() { released++ }()
				p.Park()
			})
		}
		if _, err := e.Run(); err == nil {
			t.Fatal("deadlock not reported")
		}
	}
	if released != 500 {
		t.Errorf("released %d parked bodies, want 500", released)
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("goroutines = %d after Run, baseline %d", n, base)
	}
}

func TestBodyPanicSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	released := false
	e.Spawn("parked", func(p *Proc) {
		defer func() { released = true }()
		p.Park()
	})
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the body's panic value", r)
			}
		}()
		e.Run()
		t.Error("Run returned instead of panicking")
	}()
	if !released {
		t.Error("parked body was not released")
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("goroutines = %d after Run, baseline %d", n, base)
	}
}

func TestManyProcsAllFinish(t *testing.T) {
	e := NewEngine()
	const n = 256
	fin := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(Time(i))
			fin++
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fin != n {
		t.Fatalf("finished = %d, want %d", fin, n)
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	e := NewEngine()
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Run should panic")
		}
	}()
	e.Spawn("late", func(p *Proc) {})
}

func TestReadyNonParkedPanics(t *testing.T) {
	e := NewEngine()
	var p2 *Proc
	p2 = e.Spawn("b", func(p *Proc) { p.Park() })
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1) // let b reach Park
		defer func() {
			if recover() == nil {
				t.Error("Ready on runnable proc should panic")
			}
		}()
		e.Ready(p2) // legal wake
		e.Ready(p2) // b already runnable: must panic
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestReadyDuringSleepPanics(t *testing.T) {
	e := NewEngine()
	var p2 *Proc
	p2 = e.Spawn("b", func(p *Proc) { p.Sleep(100) })
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1)
		defer func() {
			if recover() == nil {
				t.Error("Ready on sleeping proc should panic")
			}
		}()
		e.Ready(p2)
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestProcIdentity(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("alpha", func(p *Proc) {
		if p.ID() != 0 || p.Name() != "alpha" || p.Engine() != e {
			t.Errorf("identity wrong: id=%d name=%q", p.ID(), p.Name())
		}
	})
	if p.ID() != 0 {
		t.Fatalf("ID = %d", p.ID())
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Error("Second.Seconds")
	}
	if Millisecond.Millis() != 1.0 {
		t.Error("Millisecond.Millis")
	}
	if Microsecond.Micros() != 1.0 {
		t.Error("Microsecond.Micros")
	}
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Error("FromSeconds(1.5)")
	}
	if FromSeconds(-1) != 0 {
		t.Error("FromSeconds negative should clamp to 0")
	}
	if FromSeconds(0) != 0 {
		t.Error("FromSeconds(0)")
	}
	for _, s := range []float64{math.NaN(), math.Inf(-1)} {
		if got := FromSeconds(s); got != 0 {
			t.Errorf("FromSeconds(%v) = %d, want 0", s, got)
		}
	}
	for _, s := range []float64{math.Inf(1), 1e10, math.MaxFloat64} {
		if got := FromSeconds(s); got != math.MaxInt64 {
			t.Errorf("FromSeconds(%v) = %d, want the largest Time", s, got)
		}
	}
	if got := FromSeconds(9e9); got != 9e18 {
		t.Errorf("FromSeconds(9e9) = %d, want 9e18", got)
	}
}

// Property: running a random batch of events always executes them in
// nondecreasing time order and ends at the max scheduled time.
func TestQuickEventOrdering(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		times := make([]Time, n)
		var fired []Time
		for i := 0; i < n; i++ {
			times[i] = Time(rng.Intn(1000))
			at := times[i]
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		end, err := e.Run()
		if err != nil {
			return false
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(fired) != n {
			return false
		}
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return end == times[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: N procs each sleeping k times by random positive deltas finish
// at the sum of their deltas, and the engine ends at the max.
func TestQuickProcFinishTimes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := rng.Intn(8) + 1
		ends := make([]Time, n)
		var max Time
		for i := 0; i < n; i++ {
			i := i
			k := rng.Intn(5) + 1
			var total Time
			deltas := make([]Time, k)
			for j := range deltas {
				deltas[j] = Time(rng.Intn(100) + 1)
				total += deltas[j]
			}
			if total > max {
				max = total
			}
			want := total
			e.Spawn("p", func(p *Proc) {
				for _, d := range deltas {
					p.Sleep(d)
				}
				ends[i] = p.Now()
				if p.Now() != want {
					panic("wrong finish time")
				}
			})
		}
		end, err := e.Run()
		return err == nil && end == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetMovesSingleEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
	e.Schedule(0, func() {
		tm.Reset(100)
		tm.Reset(40) // earlier: must move, not duplicate
	})
	e.Schedule(60, func() { tm.Reset(70) }) // re-arm after firing
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 2 || fired[0] != 40 || fired[1] != 70 {
		t.Fatalf("fired = %v, want [40 70]", fired)
	}
	if end != 70 {
		t.Fatalf("end = %d, want 70", end)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.NewTimer(func() { fired = true })
	e.Schedule(0, func() {
		tm.Reset(50)
		if !tm.Active() {
			t.Error("timer should be active after Reset")
		}
		tm.Stop()
		tm.Stop() // stopping a stopped timer is a no-op
		if tm.Active() {
			t.Error("timer should be inactive after Stop")
		}
	})
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
	if end != 0 {
		t.Fatalf("end = %d, want 0", end)
	}
}

func TestTimerInterleavesWithEventsBySeq(t *testing.T) {
	// A timer Reset to the same instant as an existing event must fire
	// after it (the event was registered first).
	e := NewEngine()
	var order []string
	tm := e.NewTimer(func() { order = append(order, "timer") })
	e.Schedule(10, func() { order = append(order, "event") })
	e.Schedule(0, func() { tm.Reset(10) })
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "timer" {
		t.Fatalf("order = %v, want [event timer]", order)
	}
}

func TestTimerResetPastPanics(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer(func() {})
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset into the past should panic")
			}
		}()
		tm.Reset(50)
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEventPoolReuseKeepsOrdering(t *testing.T) {
	// Heavy schedule/fire churn through the pool must not disturb the
	// (at, seq) ordering contract.
	e := NewEngine()
	var got []int
	n := 0
	for round := 0; round < 50; round++ {
		round := round
		e.Schedule(Time(round), func() {
			for k := 0; k < 4; k++ {
				v := n
				n++
				e.After(0, func() { got = append(got, v) })
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 200 {
		t.Fatalf("got %d events, want 200", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant burst out of order at %d: %v...", i, got[:i+1])
		}
	}
}

func TestSelfResumeNeedsNoOtherProcs(t *testing.T) {
	// A lone process sleeping repeatedly: each wakeup is its own timer
	// event, so the loop resumes the same coroutine it just parked.
	e := NewEngine()
	var at Time
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(1)
		}
		at = p.Now()
	})
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 1000 || end != 1000 {
		t.Fatalf("at=%d end=%d, want 1000", at, end)
	}
}
