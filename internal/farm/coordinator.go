package farm

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
)

// ErrClosed is returned for cells still pending when the coordinator shuts
// down with no way to finish them.
var ErrClosed = errors.New("farm: coordinator closed")

// maxCopies bounds concurrent leases per task under speculation: the
// original plus one speculative copy.
const maxCopies = 2

// task is one unit of work: a cell plus the channel its requester blocks
// on. Tasks move queue → one or more leases (a requeue or a speculative
// duplicate can put the same task on several workers) → done. The first
// valid answer completes the task; later duplicates are byte-compared
// against it and any mismatch is a fatal cross-worker divergence.
type task struct {
	id   int64
	cell harness.Cell
	done chan struct{}
	res  harness.CellResult
	err  error
	// completed guards done: set exactly once, under the coordinator lock.
	completed bool
	// copies counts live leases (worker or local) for this task.
	copies int
	// enqueued is when the task first entered the queue; the local
	// fallback triggers off the age of the queue head.
	enqueued time.Time
}

// lease is one grant of a task to a worker (or the local fallback):
// start orders straggler speculation (oldest lease = slowest cell), and
// deadline bounds how long the coordinator waits before requeueing.
type lease struct {
	t        *task
	start    time.Time
	deadline time.Time
}

// workerState is the coordinator's view of one joined worker. All fields
// after the immutable header are guarded by the coordinator mutex.
type workerState struct {
	id     int64
	addr   string
	c      *conn
	deadCh chan struct{} // closed when the result reader exits

	capacity    int // dockable: each missed lease deadline costs one slot
	outstanding map[int64]*lease
	dead        bool
	reaped      bool
}

func (w *workerState) String() string {
	return fmt.Sprintf("worker w%d (%s)", w.id, w.addr)
}

// Stats is a point-in-time snapshot of the farm's health counters.
type Stats struct {
	// LiveWorkers counts currently joined (unreaped) workers.
	LiveWorkers int
	// Joins counts hellos accepted over the coordinator's lifetime.
	Joins int64
	// Expired counts leases that missed their deadline and were requeued.
	Expired int64
	// Speculated counts duplicate leases handed to idle workers.
	Speculated int64
	// LocalRuns counts cells the coordinator executed itself because no
	// live worker was available.
	LocalRuns int64
	// Requeued counts leases returned to the queue (death or expiry).
	Requeued int64
	// DuplicateResults counts redundant answers byte-checked against the
	// accepted result (each is one passed cross-worker determinism audit).
	DuplicateResults int64
}

// Coordinator accepts workers and leases cells to them. It implements
// harness.CellExecutor: plug it into Runner.Executor and RunAll's pool
// becomes the dispatch width, with each ExecuteCell call blocking until
// some worker returns the cell's result. Safe for concurrent use.
//
// Fault tolerance (all of it invisible in the output, because cell seeds
// make re-executions byte-identical): a worker that dies has its leases
// requeued at the queue front; a worker that goes silent past the
// heartbeat window is treated as dead; a lease that misses LeaseTimeout
// is requeued and the worker's capacity docked by one, so a hung worker
// degrades the farm instead of wedging it; when the queue is empty but
// leases are outstanding, idle workers re-run the slowest cells
// (Speculate) and the first valid answer wins; and when no live worker
// exists at all, the coordinator falls back to executing cells locally
// after FallbackAfter. Duplicate answers from any of these paths are
// byte-compared — a mismatch fails the whole run via Err/Close.
type Coordinator struct {
	cfg     harness.Config
	version string
	// Logf, when set, receives one line per farm event (worker joined,
	// rejected, died, leases requeued, speculation, local fallback).
	// Never required for correctness. Workers are identified by the
	// stable id assigned at hello ("worker w3"), so requeue, death and
	// speculation lines for one worker correlate across the run.
	Logf func(format string, args ...any)

	// LeaseTimeout bounds how long a leased cell may stay unanswered
	// before it is requeued and the holder's capacity docked. 0 means
	// DefaultLeaseTimeout(cfg): scaled to cell fidelity, generous enough
	// that only a genuinely hung worker trips it. Set before Listen.
	LeaseTimeout time.Duration
	// HeartbeatInterval is the keepalive cadence both directions
	// (announced to workers at hello); 5× of silence marks a peer dead.
	// 0 means 1s. Set before Listen.
	HeartbeatInterval time.Duration
	// Speculate re-leases the slowest outstanding cells to idle workers
	// when the queue is empty (bounded by maxCopies; first valid result
	// wins, duplicates are byte-compared). NewCoordinator enables it.
	Speculate bool
	// FallbackAfter is how long queued work may wait with zero live
	// workers before the coordinator executes it locally. 0 means 10s.
	// Set before Listen.
	FallbackAfter time.Duration

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*task
	tasks     map[int64]*task // every task ever enqueued, for late-duplicate audit
	workers   map[int64]*workerState
	localRuns map[int64]*lease
	nextID    int64
	nextWID   int64
	closed    bool
	fatal     error

	joins      int64
	expired    int64
	speculated int64
	localRan   int64
	requeued   int64
	dupResults int64

	// local executes fallback cells: a plain in-process runner over the
	// coordinator's config, built on first use.
	local *harness.Runner

	ln net.Listener
	wg sync.WaitGroup
}

// NewCoordinator creates a coordinator for the given experiment config.
// version is the binary's model identity (repro.ModelVersion()); workers
// whose hello carries a different version are rejected. Speculation is on
// by default; timing knobs resolve their defaults at Listen.
func NewCoordinator(cfg harness.Config, version string) *Coordinator {
	co := &Coordinator{
		cfg:       cfg.Defaults(),
		version:   version,
		Speculate: true,
		tasks:     map[int64]*task{},
		workers:   map[int64]*workerState{},
		localRuns: map[int64]*lease{},
	}
	co.cond = sync.NewCond(&co.mu)
	return co
}

// DefaultLeaseTimeout scales the lease deadline to cell fidelity: a rough
// wall-clock estimate per cell (virtual seconds × scale × repetitions,
// calibrated against the reference core) with a 20× safety margin,
// clamped to [30s, 30m]. Only a hung worker should ever trip it — a
// false expiry costs one redundant (byte-identical) re-execution, never
// a wrong number.
func DefaultLeaseTimeout(cfg harness.Config) time.Duration {
	cfg = cfg.Defaults()
	virtSecs := float64(cfg.Warmup+cfg.Measure) / float64(sim.Second)
	est := time.Duration(virtSecs * cfg.Scale * 400 * float64(cfg.Repetitions) * float64(time.Second))
	d := 20 * est
	if d < 30*time.Second {
		d = 30 * time.Second
	}
	if d > 30*time.Minute {
		d = 30 * time.Minute
	}
	return d
}

// Listen binds addr, resolves the timing knobs' defaults, and starts
// accepting workers plus the lease-deadline and local-fallback monitors
// in the background. Returns the bound address (useful with ":0").
func (co *Coordinator) Listen(addr string) (net.Addr, error) {
	if co.LeaseTimeout <= 0 {
		co.LeaseTimeout = DefaultLeaseTimeout(co.cfg)
	}
	if co.HeartbeatInterval <= 0 {
		co.HeartbeatInterval = time.Second
	}
	if co.FallbackAfter <= 0 {
		co.FallbackAfter = 10 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	co.mu.Lock()
	co.ln = ln
	co.mu.Unlock()
	co.wg.Add(3)
	go co.acceptLoop(ln)
	go co.expiryLoop()
	go co.fallbackLoop()
	return ln.Addr(), nil
}

func (co *Coordinator) acceptLoop(ln net.Listener) {
	defer co.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		co.wg.Add(1)
		go func() {
			defer co.wg.Done()
			co.serveWorker(newConn(c))
		}()
	}
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.Logf != nil {
		co.Logf(format, args...)
	}
}

// serveWorker runs one worker connection: handshake, then a lease pump
// with a concurrent result reader until the worker leaves, goes silent,
// or the coordinator drains it.
func (co *Coordinator) serveWorker(c *conn) {
	defer c.close()
	// Bound the handshake: a dialer that never sends a hello must not pin
	// this goroutine (or hold Close hostage) forever.
	c.readTimeout = handshakeTimeout
	hello, err := c.recv()
	if err != nil || hello.Type != msgHello {
		return
	}
	if hello.Version != co.version {
		co.logf("farm: rejected worker %s: model version %.12s != %.12s",
			c.c.RemoteAddr(), hello.Version, co.version)
		c.send(message{Type: msgReject, Reason: fmt.Sprintf(
			"model version mismatch: worker %s, coordinator %s", hello.Version, co.version)})
		return
	}
	capacity := hello.Capacity
	if capacity < 1 {
		capacity = 1
	}

	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		c.send(message{Type: msgDrain})
		return
	}
	co.nextWID++
	co.joins++
	w := &workerState{
		id:          co.nextWID,
		addr:        c.c.RemoteAddr().String(),
		c:           c,
		deadCh:      make(chan struct{}),
		capacity:    capacity,
		outstanding: map[int64]*lease{},
	}
	co.workers[w.id] = w
	co.cond.Broadcast()
	co.mu.Unlock()

	cfg := co.cfg
	if err := c.send(message{
		Type:            msgHelloAck,
		Config:          &cfg,
		WorkerID:        w.id,
		HeartbeatMillis: co.HeartbeatInterval.Milliseconds(),
	}); err != nil {
		co.reapWorker(w)
		return
	}
	co.logf("farm: %s joined (capacity %d)", w, capacity)

	// After the handshake the worker heartbeats every HeartbeatInterval,
	// so a read that stalls past the stale window means the worker is
	// gone (hung process, dead host, cut network) even if TCP never
	// notices. Symmetrically, heartbeat back so an idle worker can tell
	// a quiet farm from a dead coordinator.
	c.readTimeout = staleAfter(co.HeartbeatInterval)
	stopHB := make(chan struct{})
	defer close(stopHB)
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		t := time.NewTicker(co.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-t.C:
				if c.send(message{Type: msgHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	go co.readWorker(w)
	co.pumpWorker(w)
}

// readWorker consumes one worker's messages: results and errors complete
// (or audit) tasks, heartbeats refresh the read deadline as a side
// effect, anything else is a protocol violation and drops the worker. On
// exit the worker is marked dead and the pump woken.
func (co *Coordinator) readWorker(w *workerState) {
	defer func() {
		co.mu.Lock()
		w.dead = true
		co.cond.Broadcast()
		co.mu.Unlock()
		close(w.deadCh)
	}()
	for {
		m, err := w.c.recv()
		if err != nil {
			return
		}
		switch m.Type {
		case msgHeartbeat:
			continue
		case msgResult, msgError:
			co.mu.Lock()
			if l, ok := w.outstanding[m.ID]; ok {
				delete(w.outstanding, m.ID)
				l.t.copies--
			}
			t := co.tasks[m.ID]
			co.cond.Broadcast() // a slot freed; the pump may proceed
			co.mu.Unlock()
			if t == nil {
				co.logf("farm: %s answered unknown lease %d; ignoring", w, m.ID)
				continue
			}
			switch {
			case m.Type == msgError:
				co.deliver(t, harness.CellResult{}, fmt.Errorf("farm: %s: %s", w, m.Reason), w.String())
			case m.Result == nil:
				co.deliver(t, harness.CellResult{}, fmt.Errorf("farm: %s sent result %d with no payload", w, m.ID), w.String())
			default:
				co.deliver(t, *m.Result, nil, w.String())
			}
		default:
			co.logf("farm: %s sent unexpected %q mid-session; disconnecting", w, m.Type)
			return
		}
	}
}

// pumpWorker hands the worker a cell whenever it has a free slot: queued
// work first, then — with an empty queue — a speculative duplicate of the
// slowest outstanding cell elsewhere in the farm.
func (co *Coordinator) pumpWorker(w *workerState) {
	for {
		co.mu.Lock()
		var t *task
		speculative := false
		for {
			if co.closed || co.fatal != nil || w.dead {
				break
			}
			// Drop queue heads completed by a late duplicate answer while
			// they waited: leasing them again would be pure waste.
			for len(co.queue) > 0 && co.queue[0].completed {
				co.queue = co.queue[1:]
			}
			if len(w.outstanding) < w.capacity {
				if len(co.queue) > 0 {
					t = co.queue[0]
					co.queue = co.queue[1:]
					break
				}
				if co.Speculate {
					if cand := co.speculationCandidateLocked(w); cand != nil {
						t, speculative = cand, true
						break
					}
				}
			}
			co.cond.Wait()
		}
		if w.dead {
			co.mu.Unlock()
			co.reapWorker(w)
			return
		}
		if co.closed || co.fatal != nil {
			// Drain: let the worker finish in-flight cells, but bound the
			// wait by the latest outstanding deadline so a hung worker
			// cannot hold Close hostage.
			wait := staleAfter(co.HeartbeatInterval)
			now := time.Now()
			for _, l := range w.outstanding {
				if d := l.deadline.Add(staleAfter(co.HeartbeatInterval)).Sub(now); d > wait {
					wait = d
				}
			}
			co.mu.Unlock()
			w.c.send(message{Type: msgDrain})
			select {
			case <-w.deadCh:
			case <-time.After(wait):
				co.logf("farm: %s ignored drain for %v; dropping", w, wait)
				w.c.close()
				<-w.deadCh
			}
			co.reapWorker(w)
			return
		}
		now := time.Now()
		l := &lease{t: t, start: now, deadline: now.Add(co.LeaseTimeout)}
		w.outstanding[t.id] = l
		t.copies++
		if speculative {
			co.speculated++
			co.logf("farm: speculating cell %s (lease %d) on idle %s", cellLabel(t.cell), t.id, w)
		}
		co.mu.Unlock()
		cell := t.cell
		if err := w.c.send(message{Type: msgLease, ID: t.id, Cell: &cell}); err != nil {
			co.reapWorker(w)
			return
		}
	}
}

// speculationCandidateLocked picks the slowest (earliest-leased) cell
// outstanding anywhere in the farm that worker w could duplicate: not
// completed, under the copy bound, and not already leased to w. Returns
// nil when there is nothing worth racing. Caller holds co.mu.
func (co *Coordinator) speculationCandidateLocked(w *workerState) *task {
	var best *task
	var bestStart time.Time
	consider := func(l *lease) {
		t := l.t
		if t.completed || t.copies >= maxCopies {
			return
		}
		if _, held := w.outstanding[t.id]; held {
			return
		}
		if best == nil || l.start.Before(bestStart) {
			best, bestStart = t, l.start
		}
	}
	for _, ow := range co.workers {
		if ow == w {
			continue
		}
		for _, l := range ow.outstanding {
			consider(l)
		}
	}
	for _, l := range co.localRuns {
		consider(l)
	}
	return best
}

// reapWorker removes a dead (or drained) worker, returning its live
// leases to the queue front so surviving workers pick them up first.
// Idempotent: the pump and the reader can both conclude a worker is gone.
func (co *Coordinator) reapWorker(w *workerState) {
	co.mu.Lock()
	if w.reaped {
		co.mu.Unlock()
		return
	}
	w.reaped = true
	delete(co.workers, w.id)
	var orphans []*task
	for id, l := range w.outstanding {
		delete(w.outstanding, id)
		l.t.copies--
		if !l.t.completed && l.t.copies == 0 {
			orphans = append(orphans, l.t)
		}
	}
	closed := co.closed || co.fatal != nil
	if closed {
		// The farm is draining; no worker will ever take these.
		for _, t := range orphans {
			t.completed = true
			t.err = ErrClosed
			close(t.done)
		}
	} else if len(orphans) > 0 {
		co.queue = append(orphans, co.queue...)
		co.requeued += int64(len(orphans))
	}
	co.cond.Broadcast()
	co.mu.Unlock()
	if !closed && len(orphans) > 0 {
		co.logf("farm: %s left; requeued %d cells at the queue front", w, len(orphans))
	} else if !closed {
		co.logf("farm: %s left", w)
	}
}

// expiryLoop requeues leases that miss their deadline and docks the
// holder's capacity, so a hung-but-heartbeating worker hands its work
// back and stops being leased new cells once fully docked.
func (co *Coordinator) expiryLoop() {
	defer co.wg.Done()
	tick := co.LeaseTimeout / 4
	if tick > 500*time.Millisecond {
		tick = 500 * time.Millisecond
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for range t.C {
		co.mu.Lock()
		if co.closed {
			co.mu.Unlock()
			return
		}
		now := time.Now()
		type expiry struct {
			w    *workerState
			t    *task
			from int
		}
		var hits []expiry
		for _, w := range co.workers {
			for id, l := range w.outstanding {
				if now.Before(l.deadline) {
					continue
				}
				delete(w.outstanding, id)
				l.t.copies--
				from := w.capacity
				if w.capacity > 0 {
					w.capacity--
				}
				co.expired++
				if !l.t.completed && l.t.copies == 0 {
					co.queue = append([]*task{l.t}, co.queue...)
					co.requeued++
				}
				hits = append(hits, expiry{w, l.t, from})
			}
		}
		if len(hits) > 0 {
			co.cond.Broadcast()
		}
		co.mu.Unlock()
		for _, h := range hits {
			co.logf("farm: %s missed the %v lease deadline on cell %s (lease %d); requeued at front, capacity %d→%d",
				h.w, co.LeaseTimeout, cellLabel(h.t.cell), h.t.id, h.from, h.w.capacity)
		}
	}
}

// fallbackLoop executes queued cells locally when no live worker exists:
// a farm run with zero (or only fully docked) workers degrades to a
// plain in-process run instead of hanging. Local executions are bounded
// by GOMAXPROCS and produce byte-identical results by construction.
func (co *Coordinator) fallbackLoop() {
	defer co.wg.Done()
	tick := co.FallbackAfter / 4
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	maxLocal := runtime.GOMAXPROCS(0)
	t := time.NewTicker(tick)
	defer t.Stop()
	for range t.C {
		co.mu.Lock()
		if co.closed {
			co.mu.Unlock()
			return
		}
		now := time.Now()
		for co.fatal == nil && len(co.localRuns) < maxLocal {
			for len(co.queue) > 0 && co.queue[0].completed {
				co.queue = co.queue[1:]
			}
			if len(co.queue) == 0 || co.liveCapacityLocked() > 0 ||
				now.Sub(co.queue[0].enqueued) < co.FallbackAfter {
				break
			}
			tk := co.queue[0]
			co.queue = co.queue[1:]
			tk.copies++
			co.localRuns[tk.id] = &lease{t: tk, start: now}
			co.localRan++
			co.wg.Add(1)
			go co.runLocal(tk)
			co.logf("farm: no live workers for %v; executing cell %s locally", co.FallbackAfter, cellLabel(tk.cell))
		}
		co.mu.Unlock()
	}
}

func (co *Coordinator) liveCapacityLocked() int {
	n := 0
	for _, w := range co.workers {
		if !w.dead {
			n += w.capacity
		}
	}
	return n
}

func (co *Coordinator) runLocal(t *task) {
	defer co.wg.Done()
	co.mu.Lock()
	if co.local == nil {
		co.local = harness.NewRunner(co.cfg)
	}
	local := co.local
	co.mu.Unlock()
	res, err := local.ExecuteCell(t.cell)
	co.mu.Lock()
	delete(co.localRuns, t.id)
	t.copies--
	co.cond.Broadcast()
	co.mu.Unlock()
	co.deliver(t, res, err, "local fallback")
}

// deliver completes a task with its first answer, or audits a duplicate
// answer against the accepted one. Duplicates arise from requeues racing
// late answers and from speculation; honest duplicates are byte-identical
// by the seeding contract, so any mismatch is a model divergence between
// executors and fails the whole run.
func (co *Coordinator) deliver(t *task, res harness.CellResult, err error, from string) {
	co.mu.Lock()
	if !t.completed {
		t.completed = true
		t.res, t.err = res, err
		close(t.done)
		co.cond.Broadcast()
		co.mu.Unlock()
		return
	}
	prev, prevErr := t.res, t.err
	co.mu.Unlock()
	if err != nil || prevErr != nil {
		// An error answer is not a number to audit; log and move on (the
		// task already has its authoritative outcome).
		co.logf("farm: late duplicate answer for cell %s from %s dropped (first err=%v, dup err=%v)",
			cellLabel(t.cell), from, prevErr, err)
		return
	}
	if !resultsEqual(prev, res) {
		co.fail(fmt.Errorf("farm: cross-worker divergence on cell %s: duplicate result from %s does not match the accepted one (throughput %v vs %v, ops %d vs %d) — executors disagree on a deterministic cell, refusing to pick one",
			cellLabel(t.cell), from, res.Throughput, prev.Throughput, res.Ops, prev.Ops))
		return
	}
	co.mu.Lock()
	co.dupResults++
	co.mu.Unlock()
	co.logf("farm: duplicate result for cell %s from %s byte-matches the accepted one (cross-worker determinism check passed)",
		cellLabel(t.cell), from)
}

// fail poisons the farm: the error becomes Err()'s and Close()'s result,
// every incomplete task completes with it, and no new work is accepted.
func (co *Coordinator) fail(err error) {
	co.mu.Lock()
	if co.fatal != nil {
		co.mu.Unlock()
		return
	}
	co.fatal = err
	for _, t := range co.tasks {
		if !t.completed {
			t.completed = true
			t.err = err
			close(t.done)
		}
	}
	co.queue = nil
	co.cond.Broadcast()
	co.mu.Unlock()
	co.logf("farm: FATAL: %v", err)
}

// ExecuteCell implements harness.CellExecutor: enqueue the cell and block
// until an executor (worker, speculative duplicate, or local fallback)
// returns its result. The runner's singleflight layer guarantees each
// distinct cell reaches here at most once per process.
func (co *Coordinator) ExecuteCell(cell harness.Cell) (harness.CellResult, error) {
	co.mu.Lock()
	if err := co.fatal; err != nil {
		co.mu.Unlock()
		return harness.CellResult{}, err
	}
	if co.closed {
		co.mu.Unlock()
		return harness.CellResult{}, ErrClosed
	}
	co.nextID++
	t := &task{id: co.nextID, cell: cell, done: make(chan struct{}), enqueued: time.Now()}
	co.tasks[t.id] = t
	co.queue = append(co.queue, t)
	co.cond.Broadcast()
	co.mu.Unlock()
	<-t.done
	return t.res, t.err
}

// Workers reports how many workers are currently joined.
func (co *Coordinator) Workers() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.workers)
}

// Stats snapshots the farm's health counters.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return Stats{
		LiveWorkers:      len(co.workers),
		Joins:            co.joins,
		Expired:          co.expired,
		Speculated:       co.speculated,
		LocalRuns:        co.localRan,
		Requeued:         co.requeued,
		DuplicateResults: co.dupResults,
	}
}

// Err reports the farm's fatal error, if any — in particular a
// cross-worker divergence detected on a duplicate result after every
// pending cell already completed. Nil while healthy.
func (co *Coordinator) Err() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.fatal
}

// Close drains the farm: workers finish in-flight cells, receive drain
// and disconnect; cells still queued fail with ErrClosed. Idempotent.
// Returns the farm's fatal error (cross-worker divergence) if one was
// recorded — a caller that ignores it would silently trust a run the
// farm itself flagged as inconsistent.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	if co.closed {
		err := co.fatal
		co.mu.Unlock()
		return err
	}
	co.closed = true
	var pending []*task
	for _, t := range co.queue {
		if !t.completed {
			pending = append(pending, t)
		}
	}
	co.queue = nil
	ln := co.ln
	co.cond.Broadcast()
	for _, t := range pending {
		t.completed = true
		t.err = ErrClosed
		close(t.done)
	}
	co.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	co.wg.Wait()
	return co.Err()
}
