// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock from event to event. Simulated
// activities are written as ordinary Go functions running in "processes"
// (coroutines resumed one at a time from the goroutine calling Run, so
// process code never races with other process code and a context switch is
// a direct handoff). Processes sleep in virtual time, queue on counted
// resources, and park/wake explicitly, which is enough to express clients,
// servers, disks, NICs and background daemons.
//
// All randomness used by a simulation should come from Engine.Rand so that a
// run is fully determined by its seed.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations, mirroring time.Duration's constants but in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a scheduled callback. seq breaks ties so that events scheduled
// earlier run earlier, keeping runs deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). Events are
// stored by value and moved with plain assignments, so Push/Pop never box
// through interface{} the way container/heap does; on the hot path a
// scheduled event costs zero heap allocations. The 4-ary layout halves the
// tree depth versus a binary heap, which favours the push-heavy access
// pattern of a discrete-event loop.
type eventHeap []event

func (h eventHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the fn reference so the closure can be collected
	s = s[:n]
	*h = s
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.before(c, min) {
				min = c
			}
		}
		if !s.before(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Engine is a discrete-event scheduler with a virtual clock.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand

	procs   int // live processes (started and not yet finished)
	stopped bool
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from process code or event callbacks (never concurrently).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn at now+delay. A negative delay is treated as zero.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.events.push(event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until no events remain, until the clock passes until
// (when until > 0), or until Stop is called. It returns the virtual time at
// which it stopped.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		if until > 0 && e.events[0].at > until {
			// Leave the event queued so a later Run can resume exactly here.
			e.now = until
			return e.now
		}
		ev := e.events.pop()
		e.now = ev.at
		ev.fn()
	}
	if until > 0 && e.now < until && !e.stopped {
		e.now = until
	}
	// A drained queue releases the heap's backing array: load and measure
	// phases can grow it to hundreds of thousands of slots, and a long-lived
	// multi-figure process would otherwise pin that peak for every engine
	// still reachable between Run horizons.
	if len(e.events) == 0 && cap(e.events) > 64 {
		e.events = nil
	}
	return e.now
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// Procs reports the number of live processes.
func (e *Engine) Procs() int { return e.procs }

// Proc is a simulated process: an iter.Pull coroutine that the engine
// resumes from its event loop. Process code calls Sleep/Park/Acquire to
// advance virtual time; a panic in it re-panics in Engine.Run. A process
// parked forever holds its suspended coroutine until the program exits.
type Proc struct {
	eng  *Engine
	name string
	// next resumes the coroutine; yield, called inside it, suspends it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	dead  bool
	// killed marks a process cancelled by Kill. The process unwinds the
	// next time it reaches a cancellation point (Sleep or Park).
	killed bool
	// killable is true while the process is blocked at a cancellation
	// point, i.e. Kill may resume it immediately. Resource waits are not
	// cancellation points: a queued process must complete its acquisition
	// (the grant is already accounted) and unwinds at its next Sleep/Park.
	killable bool
	// pendingWakes counts scheduled-but-undelivered wake events, so Kill
	// never double-schedules a resume (a second resume would run the
	// process early, from whatever wait it reached next).
	pendingWakes int
	// wakeFn is the event callback that resumes this process. It is built
	// once at process creation and rescheduled for every Sleep/Wake, so the
	// scheduler's hottest operation (context switch) allocates nothing.
	wakeFn func()
}

// procKilled is the panic value used to unwind a killed process's stack.
// It is recovered by the process wrapper and treated as a normal exit.
type procKilled struct{}

// Go starts fn as a new process at the current virtual time. The process
// begins executing when the engine reaches the start event.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAt(0, name, fn)
}

// GoAt starts fn as a new process after delay.
func (e *Engine) GoAt(delay Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	// No stop: a process ends only by returning or by a Kill unwind.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(r)
				}
			}
			p.dead = true
			e.procs--
		}()
		if !p.killed {
			fn(p)
		}
	})
	p.wakeFn = func() {
		p.pendingWakes--
		if p.dead {
			// The wake raced with the process's death (e.g. a timer fired
			// after a kill-unwind); there is no coroutine left to resume.
			return
		}
		p.next()
	}
	e.procs++
	e.Schedule(delay, func() { p.next() })
	return p
}

// Engine returns the engine that owns p.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Rand returns the engine's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.eng.rng }

// park hands control back to the engine and blocks until woken.
func (p *Proc) park() { p.yield(struct{}{}) }

// wake schedules p to resume at now+delay, reusing its wake callback. A
// second pending wake would resume a live process early, so it panics.
func (e *Engine) wake(p *Proc, delay Time) {
	p.pendingWakes++
	if p.pendingWakes > 1 && !p.dead && !p.killed {
		panic("sim: double wake of " + p.name)
	}
	e.Schedule(delay, p.wakeFn)
}

// checkKilled unwinds the process if it has been cancelled.
func (p *Proc) checkKilled() {
	if p.killed {
		panic(procKilled{})
	}
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d Time) {
	p.checkKilled()
	if d < 0 {
		d = 0
	}
	p.eng.wake(p, d)
	p.killable = true
	p.park()
	p.killable = false
	p.checkKilled()
}

// Park blocks the process until another process or event calls Wake.
func (p *Proc) Park() {
	p.checkKilled()
	p.killable = true
	p.park()
	p.killable = false
	p.checkKilled()
}

// Wake resumes a process parked with Park at the current virtual time.
// Calling Wake on a process that already has a wake pending (a sleeping
// process, or one woken twice) is a programming error and panics with
// "sim: double wake". The exception is a process that already finished or
// was killed: such wakes are dropped, so owners of long-lived background
// processes need not synchronize Wake against teardown.
func (p *Proc) Wake() { p.eng.wake(p, 0) }

// Kill cancels the process. The cancellation is cooperative: the process
// unwinds at its next cancellation point (Sleep or Park), releasing any
// resources held through Use on the way out. A process blocked in Sleep or
// Park when Kill is called is resumed immediately (a sleeping process's
// already-scheduled timer doubles as the resume, so the unwind happens at
// the timer). A process waiting in a Resource queue completes its
// acquisition first — the grant accounting must stay balanced — and
// unwinds at the next point after that. Kill is idempotent and a no-op on
// a finished process.
func (p *Proc) Kill() {
	if p.dead || p.killed {
		return
	}
	p.killed = true
	if p.killable && p.pendingWakes == 0 {
		p.eng.wake(p, 0)
	}
}

// Killed reports whether Kill has been called; long-running process loops
// may poll it to exit early between cancellation points.
func (p *Proc) Killed() bool { return p.killed }

// Done reports whether the process has finished (returned or unwound).
func (p *Proc) Done() bool { return p.dead }

// WakeAfter resumes a parked process after delay.
func (p *Proc) WakeAfter(delay Time) { p.eng.wake(p, delay) }
