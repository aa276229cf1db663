package sim

import (
	"runtime"
	"testing"
)

// TestKillParkedProc kills a process idling in Park (the WAL-flusher shape)
// and checks it unwinds promptly without deadlocking the engine.
func TestKillParkedProc(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("bg", func(p *Proc) {
		p.Park()
		t.Error("parked proc ran past its park after kill")
	})
	e.Schedule(10, func() { p.Kill() })
	e.Run(0)
	if !p.Done() {
		t.Fatal("killed proc not done")
	}
	if got := e.Procs(); got != 0 {
		t.Fatalf("Procs() = %d, want 0", got)
	}
	if e.Now() != 10 {
		t.Fatalf("unwind at t=%d, want 10", e.Now())
	}
}

// TestKillSleepingProc kills a process mid-Sleep: the already-scheduled
// timer must double as the unwind resume (no second wake, no deadlock).
func TestKillSleepingProc(t *testing.T) {
	e := NewEngine(1)
	var reached bool
	p := e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		reached = true
	})
	e.Schedule(40, func() { p.Kill() })
	e.Run(0)
	if reached {
		t.Error("sleeper ran past its sleep after kill")
	}
	if !p.Done() {
		t.Fatal("killed sleeper not done")
	}
	// The unwind rides the sleep timer.
	if e.Now() != 100 {
		t.Fatalf("unwind at t=%d, want 100", e.Now())
	}
}

// TestWakeThenKillSameInstant schedules a Wake and a Kill for the same
// parked process in the same event batch: exactly one resume must be
// delivered and the process must unwind cleanly.
func TestWakeThenKillSameInstant(t *testing.T) {
	e := NewEngine(1)
	var woke bool
	p := e.Go("bg", func(p *Proc) {
		p.Park()
		woke = true
		p.Park()
		t.Error("proc survived kill")
	})
	e.Schedule(10, func() { p.Wake() })
	e.Schedule(10, func() { p.Kill() })
	e.Run(0)
	if woke {
		t.Error("proc observed the wake despite a same-instant kill")
	}
	if !p.Done() {
		t.Fatal("proc not done")
	}
}

// TestKillThenLateWake kills a parked process and then delivers a wake that
// was scheduled before the kill landed: the stale wake must be dropped, not
// delivered to a finished coroutine.
func TestKillThenLateWake(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("bg", func(p *Proc) { p.Park() })
	e.Schedule(5, func() { p.Kill() })
	e.Schedule(20, func() { p.Wake() }) // stale owner wake after death
	e.Run(0)
	if !p.Done() {
		t.Fatal("proc not done")
	}
	if e.Now() != 20 {
		t.Fatalf("run ended at t=%d, want 20 (stale wake consumed)", e.Now())
	}
}

// TestKillReleasesHeldResource kills a process mid-Use: the deferred
// release must return the unit so later acquirers are not starved.
func TestKillReleasesHeldResource(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	victim := e.Go("holder", func(p *Proc) {
		p.Use(r, 1000)
		t.Error("holder survived kill")
	})
	e.Schedule(10, func() { victim.Kill() })
	var acquiredAt Time
	e.GoAt(20, "successor", func(p *Proc) {
		r.Acquire(p)
		acquiredAt = p.Now()
		r.Release()
	})
	e.Run(0)
	if r.InUse() != 0 {
		t.Fatalf("resource leaked: inUse=%d", r.InUse())
	}
	// The unwind rides the Use sleep timer (t=1000); the successor gets the
	// unit then, not at t=20.
	if acquiredAt != 1000 {
		t.Fatalf("successor acquired at t=%d, want 1000", acquiredAt)
	}
}

// TestKilledQueuedWaiterCompletesAcquisition kills a process while it waits
// in a resource queue: it must still be granted the unit (the grant is
// pre-accounted), then unwind at its next cancellation point, releasing the
// unit via Use's defer — no leak, no double-resume.
func TestKilledQueuedWaiterCompletesAcquisition(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	e.Go("holder", func(p *Proc) { p.Use(r, 100) })
	var waiter *Proc
	waiter = e.GoAt(1, "waiter", func(p *Proc) {
		p.Use(r, 100)
		t.Error("waiter survived kill")
	})
	e.Schedule(50, func() { waiter.Kill() })
	e.Run(0)
	if !waiter.Done() {
		t.Fatal("waiter not done")
	}
	if r.InUse() != 0 {
		t.Fatalf("resource leaked: inUse=%d", r.InUse())
	}
	if r.QueueLen() != 0 {
		t.Fatalf("queue not drained: len=%d", r.QueueLen())
	}
}

// TestKillBeforeStart kills a process that has not begun executing: the
// body must never run, and its coroutine must still exit.
func TestKillBeforeStart(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	var ran bool
	p := e.GoAt(100, "late", func(p *Proc) { ran = true })
	e.Schedule(10, func() { p.Kill() })
	e.Run(0)
	if ran {
		t.Error("killed-before-start proc ran")
	}
	if !p.Done() {
		t.Fatal("proc not accounted as done")
	}
	if e.Procs() != 0 {
		t.Fatalf("Procs() = %d, want 0", e.Procs())
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("NumGoroutine = %d, want <= %d", got, before)
	}
}

// TestKillIdempotent double-kills and kills a finished proc; both must be
// no-ops.
func TestKillIdempotent(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("bg", func(p *Proc) { p.Park() })
	e.Schedule(5, func() { p.Kill(); p.Kill() })
	e.Run(0)
	p.Kill() // on a finished proc
	if e.Procs() != 0 {
		t.Fatalf("Procs() = %d, want 0", e.Procs())
	}
}

// TestKilledVisibleToCooperativeLoop checks Killed() so process loops can
// exit between cancellation points.
func TestKilledVisibleToCooperativeLoop(t *testing.T) {
	e := NewEngine(1)
	var sawKill bool
	p := e.Go("loop", func(p *Proc) {
		for !p.Killed() {
			p.Sleep(10)
		}
		sawKill = true // unreachable: Sleep unwinds first
	})
	e.Schedule(35, func() { p.Kill() })
	e.Run(0)
	if sawKill {
		t.Error("loop observed kill without unwinding (Sleep should unwind)")
	}
	if !p.Done() {
		t.Fatal("loop proc not done")
	}
}
