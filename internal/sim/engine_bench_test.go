package sim

import "testing"

// BenchmarkLockstepProcs measures the process hand-off path: n procs in
// lockstep sleeps, the dominant pattern under the cmmd rendezvous model.
func BenchmarkLockstepProcs(b *testing.B) {
	for _, n := range []int{1, 32, 256} {
		b.Run(map[int]string{1: "1proc", 32: "32procs", 256: "256procs"}[n], func(b *testing.B) {
			steps := b.N
			e := NewEngine()
			for i := 0; i < n; i++ {
				e.Spawn("p", func(p *Proc) {
					for s := 0; s < steps; s++ {
						p.Sleep(Microsecond)
					}
				})
			}
			b.ResetTimer()
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEventChurn measures pure event scheduling: chained callbacks
// through the pooled-event path.
func BenchmarkEventChurn(b *testing.B) {
	e := NewEngine()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			e.After(1, chain)
		}
	}
	e.Schedule(0, chain)
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSameInstantBurst measures same-instant events through the
// heap: each fired event immediately schedules another at the current
// time.
func BenchmarkSameInstantBurst(b *testing.B) {
	e := NewEngine()
	n := 0
	var burst func()
	burst = func() {
		n++
		if n < b.N {
			e.After(0, burst)
		}
	}
	e.Schedule(0, burst)
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerReset measures re-arming one timer, the data network's
// completion-tick pattern.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine()
	tm := e.NewTimer(func() {})
	n := 0
	var rearm func()
	rearm = func() {
		n++
		tm.Reset(e.Now() + 10)
		if n < b.N {
			e.After(1, rearm)
		}
	}
	e.Schedule(0, rearm)
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
