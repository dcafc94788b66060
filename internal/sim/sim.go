// Package sim is a deterministic discrete-event simulator of threads
// contending for synchronization resources on a Niagara-like chip
// (8 in-order cores × 4 hardware threads). It exists because the paper's
// figures are *queueing* claims — how throughput scales when 1..32
// hardware contexts hammer the storage manager's critical sections — and
// this host has a single CPU whose Go runtime (GC, preemption, no thread
// pinning) obscures latch-level behaviour.
//
// Virtual threads are goroutines executing arbitrary Go scripts against a
// virtual clock; only one runs at a time and hand-off is synchronous, so
// results are bit-for-bit deterministic. The processor model captures the
// two effects the figures depend on:
//
//   - hardware-context sharing: k active threads on one core each run at
//     rate min(1, C/k), with C ≈ 3.2 thread-equivalents modelling the
//     latency-hiding of fine-grained multithreading (the paper's "threads
//     contend for hardware resources within the processor itself");
//   - waiting discipline: spinning waiters stay *active* (stealing issue
//     slots from their core-mates) while blocked waiters sleep, and lock
//     hand-off costs differ per primitive (TATAS pays a coherence storm
//     proportional to the number of spinners; MCS pays a constant local
//     hand-off; pthread-style mutexes pay a context-switch wakeup).
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Chip describes the simulated processor.
type Chip struct {
	Cores          int
	ThreadsPerCore int
	// IssueCapacity is per-core capacity in thread-equivalents: with k
	// active threads on a core each runs at min(1, IssueCapacity/k).
	IssueCapacity float64
}

// Niagara returns the Sun T2000 model used throughout the paper.
func Niagara() Chip {
	return Chip{Cores: 8, ThreadsPerCore: 4, IssueCapacity: 3.2}
}

// threadState is a virtual thread's scheduling state.
type threadState int

const (
	stateRunning  threadState = iota // consuming CPU, finishing a work quantum
	stateSpinning                    // busy-waiting on a resource (consumes CPU)
	stateBlocked                     // descheduled (lock queue or sleep)
	stateDone                        // script finished
)

// opKind tags script → scheduler requests.
type opKind int

const (
	opWork opKind = iota
	opSleep
	opLock
	opUnlock
	opLatch
	opUnlatch
	opSemAcquire
	opSemTry
	opSemRelease
	opNowRead
)

type request struct {
	kind  opKind
	ns    float64
	res   *Mutex
	latch *Latch
	mode  LatchMode
	sem   *Semaphore
}

// vthread is one simulated thread.
type vthread struct {
	id    int
	core  int
	state threadState

	remaining float64 // work left at rate 1 (running)
	wakeAt    float64 // absolute deadline (sleeping timers)
	sleeping  bool

	waitMutex *Mutex
	waitLatch *Latch
	waitMode  LatchMode
	waitSem   *Semaphore
	waitStart float64

	req    chan request
	resume chan struct{}
	nowOut chan float64
}

// Ctx is the script-facing API of a virtual thread.
type Ctx struct {
	t *vthread
	s *Sim
}

// ID returns the virtual thread id (0-based).
func (c *Ctx) ID() int { return c.t.id }

// Work consumes ns nanoseconds of CPU at full rate (longer if the core is
// shared).
func (c *Ctx) Work(ns float64) {
	if ns <= 0 {
		return
	}
	c.t.req <- request{kind: opWork, ns: ns}
	<-c.t.resume
}

// Sleep deschedules the thread for ns nanoseconds of wall-clock (virtual)
// time — e.g. an I/O wait. It does not consume CPU.
func (c *Ctx) Sleep(ns float64) {
	if ns <= 0 {
		return
	}
	c.t.req <- request{kind: opSleep, ns: ns}
	<-c.t.resume
}

// Now returns the current virtual time in nanoseconds.
func (c *Ctx) Now() float64 {
	c.t.req <- request{kind: opNowRead}
	now := <-c.t.nowOut
	<-c.t.resume
	return now
}

// Sim is the simulator.
type Sim struct {
	chip    Chip
	now     float64
	threads []*vthread
	timeUp  float64
	mutexes []*Mutex
	latches []*Latch
	sems    []*Semaphore
}

// New creates a simulator for the given chip.
func New(chip Chip) *Sim {
	if chip.Cores <= 0 {
		chip = Niagara()
	}
	return &Sim{chip: chip}
}

// Script is a virtual thread body. It runs until it returns; use
// ctx.Now() against the deadline passed to Run for time-bounded loops.
type Script func(ctx *Ctx)

// Spawn adds a virtual thread running script. Threads are assigned to
// cores round-robin (thread i → core i%Cores), as an OS would spread
// runnable threads.
func (s *Sim) Spawn(script Script) {
	t := &vthread{
		id:     len(s.threads),
		core:   len(s.threads) % s.chip.Cores,
		req:    make(chan request),
		resume: make(chan struct{}),
		nowOut: make(chan float64),
	}
	s.threads = append(s.threads, t)
	go func() {
		ctx := &Ctx{t: t, s: s}
		script(ctx)
		close(t.req)
	}()
}

// rate returns thread t's current execution rate (0..1).
func (s *Sim) rate(t *vthread) float64 {
	active := 0
	for _, u := range s.threads {
		if u.core == t.core && (u.state == stateRunning || u.state == stateSpinning) {
			active++
		}
	}
	if active == 0 {
		return 1
	}
	return math.Min(1, s.chip.IssueCapacity/float64(active))
}

// Run executes the simulation until virtual time reaches horizon (ns).
// It must be called once, after all Spawns.
func (s *Sim) Run(horizon float64) {
	s.timeUp = horizon
	// Collect each thread's first request.
	for _, t := range s.threads {
		s.receive(t)
	}
	for s.now < horizon {
		// Find the next completion among running threads and timers.
		bestT := -1
		bestTime := math.Inf(1)
		for _, t := range s.threads {
			var at float64
			switch {
			case t.state == stateRunning && t.sleeping:
				at = t.wakeAt
			case t.state == stateRunning:
				r := s.rate(t)
				at = s.now + t.remaining/r
			case t.state == stateBlocked && t.sleeping:
				at = t.wakeAt
			default:
				continue
			}
			if at < bestTime {
				bestTime = at
				bestT = t.id
			}
		}
		if bestT < 0 {
			// Everything is done or deadlocked-in-model; stop.
			return
		}
		if bestTime > horizon {
			s.now = horizon
			return
		}
		// Advance work of all running threads to bestTime.
		for _, t := range s.threads {
			if t.state == stateRunning && !t.sleeping {
				t.remaining -= (bestTime - s.now) * s.rate(t)
				if t.remaining < 1e-9 {
					t.remaining = 0
				}
			}
		}
		s.now = bestTime
		t := s.threads[bestT]
		t.sleeping = false
		// The thread's current quantum is complete: resume its script and
		// accept its next request.
		t.state = stateRunning
		t.remaining = 0
		t.resume <- struct{}{}
		s.receive(t)
	}
}

// receive accepts and processes thread t's next request; t stays parked
// until the request completes.
func (s *Sim) receive(t *vthread) {
	for {
		req, ok := <-t.req
		if !ok {
			t.state = stateDone
			return
		}
		switch req.kind {
		case opNowRead:
			t.nowOut <- s.now
			t.resume <- struct{}{}
			continue // script continues synchronously; take its next op
		case opWork:
			t.state = stateRunning
			t.remaining = req.ns
			return
		case opSleep:
			t.state = stateBlocked
			t.sleeping = true
			t.wakeAt = s.now + req.ns
			return
		case opLock:
			if s.lockAcquire(t, req.res) {
				continue // granted synchronously with injected cost? no: cost injected as running
			}
			return
		case opUnlock:
			s.lockRelease(t, req.res)
			t.resume <- struct{}{}
			continue
		case opLatch:
			if s.latchAcquire(t, req.latch, req.mode) {
				continue
			}
			return
		case opUnlatch:
			s.latchRelease(t, req.latch, req.mode)
			t.resume <- struct{}{}
			continue
		case opSemAcquire:
			if s.semAcquire(t, req.sem) {
				continue
			}
			return
		case opSemTry:
			sem := req.sem
			sem.stats.Acquires++
			if sem.inUse < sem.capacity && len(sem.queue) == 0 {
				sem.inUse++
				t.nowOut <- 1
			} else {
				sem.stats.Contended++
				t.nowOut <- 0
			}
			t.resume <- struct{}{}
			continue
		case opSemRelease:
			s.semRelease(t, req.sem)
			t.resume <- struct{}{}
			continue
		default:
			panic(fmt.Sprintf("sim: unknown op %d", req.kind))
		}
	}
}

// grantWork injects ns of CPU work into t representing acquisition cost;
// when it completes, t's pending op finishes and its script resumes.
func (s *Sim) grantWork(t *vthread, ns float64) {
	t.state = stateRunning
	t.remaining = ns
	if ns <= 0 {
		t.remaining = 1 // epsilon to keep event ordering strict
	}
}

// Results ------------------------------------------------------------------

// WaitStats describes one resource's observed contention.
type WaitStats struct {
	Name       string
	Acquires   uint64
	Contended  uint64
	WaitNs     float64 // total time threads spent waiting
	HoldNs     float64 // total time the resource was held
	SpinWasted float64 // CPU-time burned spinning
}

// Profile returns per-resource wait statistics sorted by total wait time —
// the simulator's analogue of the paper's `collect` profiles in §4.
func (s *Sim) Profile() []WaitStats {
	var out []WaitStats
	for _, m := range s.mutexes {
		out = append(out, m.stats)
	}
	for _, l := range s.latches {
		out = append(out, l.stats)
	}
	for _, sem := range s.sems {
		out = append(out, sem.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WaitNs > out[j].WaitNs })
	return out
}

// Now returns the final virtual time after Run.
func (s *Sim) Now() float64 { return s.now }
