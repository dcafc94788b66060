package lock

import (
	"sync"
	"sync/atomic"
)

// request is a lock request: one transaction's (granted or waiting) claim
// on one lock head. Requests are pooled; Shore-MT found the pool's mutex
// to be a contention point and replaced it with a lock-free stack (§7.5);
// here it is a per-processor pool. A linked request is read and written
// only under its head's bucket latch.
type request struct {
	txID    uint64
	mode    Mode // granted mode (NL while a fresh request waits)
	want    Mode // requested mode; differs from mode during a conversion
	granted bool
	wake    chan struct{} // closed when the request is granted
	next    *request      // intrusive list inside a lock head
	head    *lockHead     // owner, for release
}

// requestPool abstracts the pre-allocated request pool.
type requestPool interface {
	get() *request
	put(r *request)
	// allocations reports how many requests were newly allocated (pool
	// misses).
	allocations() uint64
}

// PoolKind selects the request-pool implementation.
type PoolKind int

// Request pool kinds.
const (
	PoolMutex    PoolKind = iota // free list under one mutex (pre-§7.5)
	PoolLockFree                 // per-processor free lists, no shared word (§7.5)
)

// String names the pool kind.
func (k PoolKind) String() string {
	if k == PoolLockFree {
		return "lockfree"
	}
	return "mutex"
}

// mutexPool is the original design: a single free list guarded by a mutex
// — simple, and a contention point with many threads.
type mutexPool struct {
	mu     sync.Mutex
	free   *request
	allocs atomic.Uint64
}

func (p *mutexPool) get() *request {
	p.mu.Lock()
	r := p.free
	if r != nil {
		p.free = r.next
	}
	p.mu.Unlock()
	if r == nil {
		p.allocs.Add(1)
		r = &request{}
	}
	r.reset()
	return r
}

func (p *mutexPool) put(r *request) {
	p.mu.Lock()
	r.next = p.free
	p.free = r
	p.mu.Unlock()
}

func (p *mutexPool) allocations() uint64 { return p.allocs.Load() }

// lockFreePool is the §7.5 replacement, one step further: §7.5's
// Treiber stack still made every get and put CAS one head word that all
// processors share, which is a cache-line transfer per row lock on a
// multicore. A sync.Pool keeps a free slot and list per processor, so the
// common get and put touch only the caller's own.
type lockFreePool struct {
	pool   sync.Pool
	allocs atomic.Uint64
}

func (p *lockFreePool) get() *request {
	if r, ok := p.pool.Get().(*request); ok {
		r.reset()
		return r
	}
	p.allocs.Add(1)
	return &request{}
}

func (p *lockFreePool) put(r *request) { p.pool.Put(r) }

func (p *lockFreePool) allocations() uint64 { return p.allocs.Load() }

// reset returns a recycled request to the zero value: NL, not granted,
// unlinked.
func (r *request) reset() { *r = request{} }

func newPool(k PoolKind) requestPool {
	if k == PoolLockFree {
		return &lockFreePool{}
	}
	return &mutexPool{}
}
