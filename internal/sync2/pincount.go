package sync2

import "sync/atomic"

// PinCount implements the atomic "pin-if-pinned" operation from §6.2.1: a
// page's pin count can be incremented without holding the bucket lock
// provided it is already non-zero, because a pinned page cannot be evicted.
type PinCount struct {
	n atomic.Int32
}

// PinIfPinned atomically increments the count only if it is currently
// non-zero and reports whether it did. This is the lock-free fast path of a
// buffer-pool hit on a hot page.
func (p *PinCount) PinIfPinned() bool {
	for {
		old := p.n.Load()
		if old <= 0 {
			return false
		}
		if p.n.CompareAndSwap(old, old+1) {
			return true
		}
	}
}

// Pin unconditionally increments the count. Callers must hold whatever lock
// protects the page's residency (the bucket latch) when pinning from zero.
func (p *PinCount) Pin() { p.n.Add(1) }

// Unpin decrements the count and returns the new value.
func (p *PinCount) Unpin() int32 { return p.n.Add(-1) }

// Get returns the current count.
func (p *PinCount) Get() int32 { return p.n.Load() }

// TryFreeze transitions the count from 0 to -1, claiming the page for
// eviction; it fails if the page is pinned or already frozen.
func (p *PinCount) TryFreeze() bool { return p.n.CompareAndSwap(0, -1) }

// Unfreeze returns a frozen count to 0.
func (p *PinCount) Unfreeze() { p.n.CompareAndSwap(-1, 0) }
