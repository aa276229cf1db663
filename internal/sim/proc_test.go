package sim

import (
	"runtime"
	"testing"
)

// runRecovering runs e to completion and returns whatever Run panicked
// with (nil if it returned normally).
func runRecovering(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run(0)
	return nil
}

// TestDoubleWakePanics pins that a second pending wake on a live process
// fails loudly instead of resuming the process early and corrupting its
// virtual time.
func TestDoubleWakePanics(t *testing.T) {
	cases := map[string]func(e *Engine){
		"wake of a sleeping proc": func(e *Engine) {
			p := e.Go("victim", func(p *Proc) { p.Sleep(100) })
			e.Schedule(10, func() { p.Wake() })
		},
		"two wakes of a parked proc": func(e *Engine) {
			p := e.Go("victim", func(p *Proc) { p.Park() })
			e.Schedule(10, func() { p.Wake(); p.WakeAfter(5) })
		},
		"wake from process code": func(e *Engine) {
			victim := e.Go("victim", func(p *Proc) { p.Sleep(100) })
			e.GoAt(10, "waker", func(p *Proc) { victim.Wake() })
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(1)
			setup(e)
			if got := runRecovering(e); got != "sim: double wake of victim" {
				t.Fatalf("Run panicked with %v, want the double-wake panic", got)
			}
		})
	}
}

// TestKillThenWakeSameInstant: an owner's wake racing a kill is dropped,
// not reported as a double wake, because the kill's own resume unwinds the
// process first (the documented Wake-vs-teardown exemption).
func TestKillThenWakeSameInstant(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("bg", func(p *Proc) {
		p.Park()
		t.Error("proc ran past its park after kill")
	})
	e.Schedule(10, func() { p.Kill(); p.Wake() })
	if r := runRecovering(e); r != nil {
		t.Fatalf("Run panicked: %v", r)
	}
	if !p.Done() || e.Procs() != 0 {
		t.Fatalf("Done=%v Procs=%d, want true/0", p.Done(), e.Procs())
	}
}

// TestProcPanicSurfacesAtRun: a panic in process code (other than the
// internal kill unwind) re-panics on the goroutine that called Run, where
// the caller can recover it.
func TestProcPanicSurfacesAtRun(t *testing.T) {
	e := NewEngine(1)
	e.Go("faulty", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	if got := runRecovering(e); got != "boom" {
		t.Fatalf("Run panicked with %v, want boom", got)
	}
	if e.Now() != 5 {
		t.Fatalf("panic surfaced at t=%d, want 5", e.Now())
	}
}

// TestFinishedProcsReleaseGoroutines pins that a coroutine exits with its
// process: once every process has returned or been killed, the goroutine
// count is back where it started.
func TestFinishedProcsReleaseGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	const n = 100
	var parked []*Proc
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			e.Go("returns", func(p *Proc) { p.Sleep(Time(i)) })
		} else {
			parked = append(parked, e.Go("parks", func(p *Proc) { p.Park() }))
		}
	}
	e.Run(0)
	if e.Procs() != len(parked) {
		t.Fatalf("Procs() = %d, want %d parked", e.Procs(), len(parked))
	}
	for _, p := range parked {
		p.Kill()
	}
	e.Run(0)
	if e.Procs() != 0 {
		t.Fatalf("Procs() = %d after kills, want 0", e.Procs())
	}
	// At most: an unrelated background goroutine may exit meanwhile.
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("NumGoroutine = %d after all procs finished, want <= %d", got, before)
	}
}
