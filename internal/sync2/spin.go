// Package sync2 provides the synchronization primitives studied in the
// Shore-MT paper (EDBT 2009): test-and-set and test-and-test-and-set
// spinlocks, MCS queue locks, ticket locks, reader-writer latches and
// hybrid spin-then-block mutexes.
//
// Every primitive records contention statistics (acquisitions, contended
// acquisitions, spin iterations) so that higher layers can produce the
// profiler-style breakdowns the paper uses to locate bottlenecks.
//
// All spin loops yield to the Go scheduler after a bounded number of
// iterations, so the primitives are safe (if slow) even at GOMAXPROCS=1.
package sync2

import (
	"runtime"
	"sync/atomic"
)

// spinBudget is the number of busy-wait iterations performed before the
// spinner yields the processor. Kept small because on a single-CPU host the
// lock holder cannot make progress while we spin.
const spinBudget = 32

// Backoff implements bounded exponential backoff for spin loops.
// The zero value is ready to use.
type Backoff struct {
	i uint
}

// Spin performs one backoff step: it busy-waits briefly and, once the
// budget is exhausted, yields to the scheduler.
func (b *Backoff) Spin() {
	b.i++
	if b.i%spinBudget == 0 {
		runtime.Gosched()
		return
	}
	// A handful of no-op loop iterations approximates a PAUSE instruction.
	for j := uint(0); j < b.i%spinBudget; j++ {
		_ = j
	}
}

// Iterations reports how many backoff steps have been taken.
func (b *Backoff) Iterations() uint { return b.i }

// Reset clears the backoff state.
func (b *Backoff) Reset() { b.i = 0 }

// Stats holds contention counters for a synchronization primitive.
// All fields are updated atomically and may be read concurrently.
type Stats struct {
	Acquisitions uint64 // total successful acquisitions
	Contended    uint64 // acquisitions that observed the lock held
	SpinIters    uint64 // total spin-loop iterations across all acquirers
}

// statCounters is embedded by primitives to collect Stats.
type statCounters struct {
	acquisitions atomic.Uint64
	contended    atomic.Uint64
	spinIters    atomic.Uint64
}

func (c *statCounters) recordAcquire(contended bool, spins uint64) {
	c.acquisitions.Add(1)
	if contended {
		c.contended.Add(1)
	}
	if spins > 0 {
		c.spinIters.Add(spins)
	}
}

// Stats returns a snapshot of the counters.
func (c *statCounters) Stats() Stats {
	return Stats{
		Acquisitions: c.acquisitions.Load(),
		Contended:    c.contended.Load(),
		SpinIters:    c.spinIters.Load(),
	}
}

// ContentionRatio returns the fraction of acquisitions that were contended,
// or 0 if there have been none.
func (s Stats) ContentionRatio() float64 {
	if s.Acquisitions == 0 {
		return 0
	}
	return float64(s.Contended) / float64(s.Acquisitions)
}

// Locker is the minimal mutual-exclusion interface shared by the lock
// variants in this package; it matches sync.Locker and adds TryLock and
// contention statistics, letting callers swap primitives per the paper's
// "use the right synchronization primitive" principle.
type Locker interface {
	Lock()
	Unlock()
	TryLock() bool
	Stats() Stats
}
