package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvancesToEvent(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.Schedule(5*Millisecond, func() { fired = e.Now() })
	e.Run(0)
	if fired != 5*Millisecond {
		t.Fatalf("event fired at %v, want 5ms", fired)
	}
	if e.Now() != 5*Millisecond {
		t.Fatalf("clock at %v, want 5ms", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(3*Millisecond, func() { order = append(order, 3) })
	e.Schedule(1*Millisecond, func() { order = append(order, 1) })
	e.Schedule(2*Millisecond, func() { order = append(order, 2) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v, want [1 2 3]", order)
	}
}

func TestSameTimeEventsFIFOBySchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1*Millisecond, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (ties must run in scheduling order)", i, v, i)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(10*Second, func() { ran = true })
	end := e.Run(1 * Second)
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if end != 1*Second {
		t.Fatalf("Run returned %v, want 1s", end)
	}
	// Resuming runs the deferred event.
	e.Run(0)
	if !ran {
		t.Fatal("event did not run after resume")
	}
}

func TestProcSleepSequence(t *testing.T) {
	e := NewEngine(1)
	var marks []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		marks = append(marks, p.Now())
		p.Sleep(3 * Millisecond)
		marks = append(marks, p.Now())
	})
	e.Run(0)
	if len(marks) != 2 || marks[0] != 2*Millisecond || marks[1] != 5*Millisecond {
		t.Fatalf("marks = %v, want [2ms 5ms]", marks)
	}
	if e.Procs() != 0 {
		t.Fatalf("%d live procs after run, want 0", e.Procs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(Time(1+len(name)) * Millisecond) // same for all; ties by start order
					log = append(log, name)
				}
			})
		}
		e.Run(0)
		return log
	}
	first := run()
	second := run()
	if len(first) != 9 {
		t.Fatalf("got %d log entries, want 9", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, first, second)
		}
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(4 * Millisecond)
		waiter.Wake()
	})
	e.Run(0)
	if woke != 4*Millisecond {
		t.Fatalf("waiter woke at %v, want 4ms", woke)
	}
}

func TestResourceSerializesWork(t *testing.T) {
	e := NewEngine(1)
	disk := NewResource(e, "disk", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			p.Use(disk, 10*Millisecond)
			done = append(done, p.Now())
		})
	}
	e.Run(0)
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceParallelismMatchesCapacity(t *testing.T) {
	e := NewEngine(1)
	cpu := NewResource(e, "cpu", 4)
	var last Time
	for i := 0; i < 8; i++ {
		e.Go("w", func(p *Proc) {
			p.Use(cpu, 10*Millisecond)
			last = p.Now()
		})
	}
	e.Run(0)
	if last != 20*Millisecond {
		t.Fatalf("8 jobs on 4 cores finished at %v, want 20ms", last)
	}
	if u := cpu.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %f, want ~1.0", u)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.GoAt(Time(i)*Microsecond, "w", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(1 * Millisecond)
			r.Release()
			order = append(order, i)
		})
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on idle resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on busy resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestUtilizationHalfBusy(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	e.Go("w", func(p *Proc) {
		p.Use(r, 5*Millisecond)
		p.Sleep(5 * Millisecond)
	})
	e.Run(0)
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %f, want 0.5", u)
	}
}

func TestAvgWaitAccounting(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *Proc) { p.Use(r, 10*Millisecond) })
	}
	e.Run(0)
	// Second proc waits 10ms; average over one waiter is 10ms.
	if w := r.AvgWait(); w != 10*Millisecond {
		t.Fatalf("AvgWait = %v, want 10ms", w)
	}
	if r.MaxQueueLen() != 1 {
		t.Fatalf("MaxQueueLen = %d, want 1", r.MaxQueueLen())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same-seed engines produced different random streams")
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500 * Nanosecond:       "500ns",
		250 * Microsecond:      "250.00µs",
		5*Millisecond + 500000: "5.50ms",
		2 * Second:             "2.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock ends at the maximum delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(1)
		var prev Time = -1
		ok := true
		var max Time
		for _, d := range delays {
			d := Time(d) * Microsecond
			if d > max {
				max = d
			}
			e.Schedule(d, func() {
				if e.Now() < prev {
					ok = false
				}
				prev = e.Now()
			})
		}
		end := e.Run(0)
		return ok && end == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: N jobs of service time s on a capacity-c resource complete in
// ceil(N/c)*s (deterministic batch schedule).
func TestPropertyResourceMakespan(t *testing.T) {
	f := func(n8, c8 uint8) bool {
		n := int(n8%32) + 1
		c := int(c8%8) + 1
		e := NewEngine(1)
		r := NewResource(e, "r", c)
		var last Time
		for i := 0; i < n; i++ {
			e.Go("w", func(p *Proc) {
				p.Use(r, Millisecond)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run(0)
		batches := (n + c - 1) / c
		return last == Time(batches)*Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Events scheduled from inside a running event at the current timestamp
// must run after already-queued same-time events, in scheduling order —
// the seq tie-break must survive heap restructuring.
func TestNestedSameTimeSchedulingFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(Millisecond, func() {
		order = append(order, 0)
		e.Schedule(0, func() { order = append(order, 3) })
		e.Schedule(0, func() { order = append(order, 4) })
	})
	e.Schedule(Millisecond, func() { order = append(order, 1) })
	e.Schedule(Millisecond, func() { order = append(order, 2) })
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want [0 1 2 3 4]", order)
		}
	}
}

func BenchmarkProcSleepSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Go("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	e.Run(0)
}

func BenchmarkResourceUse(b *testing.B) {
	e := NewEngine(1)
	r := NewResource(e, "r", 2)
	e.Go("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Use(r, Microsecond)
		}
	})
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkProcSpawn measures a whole process lifecycle: Go, one Sleep,
// exit. Processes run in batches of 64 so the event heap stays at one
// steady size (Run releases larger drained heaps) and only per-process
// setup and teardown is counted.
func BenchmarkProcSpawn(b *testing.B) {
	const batch = 64
	e := NewEngine(1)
	body := func(p *Proc) { p.Sleep(Microsecond) }
	for i := 0; i < b.N; i += batch {
		for j := i; j < min(i+batch, b.N); j++ {
			e.Go("w", body)
		}
		e.Run(0)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(1*Millisecond, func() { ran++; e.Stop() })
	e.Schedule(2*Millisecond, func() { ran++ })
	e.Run(0)
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
	// Resuming continues with the remaining event.
	e.Run(0)
	if ran != 2 {
		t.Fatalf("ran %d events after resume, want 2", ran)
	}
}

func TestGoAtDelaysStart(t *testing.T) {
	e := NewEngine(1)
	var started Time
	e.GoAt(7*Millisecond, "late", func(p *Proc) { started = p.Now() })
	e.Run(0)
	if started != 7*Millisecond {
		t.Fatalf("proc started at %v, want 7ms", started)
	}
}

func TestWakeAfterDelay(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	var waiter *Proc
	waiter = e.Go("w", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		waiter.WakeAfter(9 * Millisecond)
	})
	e.Run(0)
	if woke != 9*Millisecond {
		t.Fatalf("woke at %v, want 9ms", woke)
	}
}

func TestPendingAndProcsCounters(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(Millisecond, func() {})
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Go("p", func(p *Proc) { p.Sleep(Millisecond) })
	if e.Procs() != 1 {
		t.Fatalf("procs = %d, want 1", e.Procs())
	}
	e.Run(0)
	if e.Procs() != 0 || e.Pending() != 0 {
		t.Fatalf("procs/pending = %d/%d after drain", e.Procs(), e.Pending())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine(1)
	var after Time
	e.Go("w", func(p *Proc) {
		p.Sleep(-5)
		after = p.Now()
	})
	e.Run(0)
	if after != 0 {
		t.Fatalf("negative sleep advanced clock to %v", after)
	}
}

func TestProcName(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("alpha", func(p *Proc) {})
	if p.Name() != "alpha" {
		t.Fatalf("name = %q", p.Name())
	}
	e.Run(0)
}

// Property: resource utilization never exceeds 1 and the queue always
// drains when all holders release.
func TestPropertyResourceUtilizationBounded(t *testing.T) {
	f := func(jobs []uint8, cap8 uint8) bool {
		c := int(cap8%6) + 1
		e := NewEngine(9)
		r := NewResource(e, "r", c)
		for _, j := range jobs {
			d := Time(j%50+1) * Microsecond
			e.Go("w", func(p *Proc) { p.Use(r, d) })
		}
		e.Run(0)
		return r.Utilization() <= 1.0001 && r.InUse() == 0 && r.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReleasesDrainedEventArray(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 10_000; i++ {
		e.Schedule(Time(i), func() {})
	}
	if cap(e.events) < 10_000 {
		t.Fatalf("heap backing array cap = %d, want >= 10000", cap(e.events))
	}
	e.Run(0)
	if cap(e.events) != 0 {
		t.Errorf("drained heap still pins %d slots, want released backing array", cap(e.events))
	}
	// The engine stays usable after the release.
	fired := false
	e.Schedule(1, func() { fired = true })
	e.Run(0)
	if !fired {
		t.Fatal("engine unusable after heap release")
	}
}

func TestRunKeepsPendingEventsAcrossHorizons(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Schedule(5, func() { fired++ })
	e.Schedule(50, func() { fired++ })
	e.Run(10) // stops mid-queue: the later event must survive
	if fired != 1 || e.Pending() != 1 {
		t.Fatalf("after first horizon: fired=%d pending=%d, want 1/1", fired, e.Pending())
	}
	e.Run(100)
	if fired != 2 {
		t.Fatalf("second horizon dropped the queued event: fired=%d", fired)
	}
}
