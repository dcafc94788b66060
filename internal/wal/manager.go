package wal

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/closed"
	"repro/internal/sync2"
)

// Design selects a log-manager implementation.
type Design int

// Log manager designs, in the order Shore-MT's development produced them.
const (
	DesignCoupled      Design = iota // original Shore: global mutex, sync flush
	DesignDecoupled                  // §6.2.2: circular buffer, split mutexes
	DesignConsolidated               // §6.2.4: queuing-lock buffer, parallel copy
)

// String names the design.
func (d Design) String() string {
	switch d {
	case DesignCoupled:
		return "coupled"
	case DesignDecoupled:
		return "decoupled"
	case DesignConsolidated:
		return "consolidated"
	default:
		return "unknown"
	}
}

// Manager is the log manager interface; ringLog implements it for all
// three designs.
type Manager interface {
	// Insert appends rec to the log, assigning and returning its LSN.
	// Durability is NOT guaranteed until Flush covers the LSN.
	Insert(rec *Record) (LSN, error)
	// InsertCLR appends a compensation record; same contract as Insert but,
	// in the decoupled design, uses the dedicated compensation mutex.
	InsertCLR(rec *Record) (LSN, error)
	// Flush blocks until every record with LSN < upTo is durable
	// (group commit: concurrent callers share flushes). A store write or
	// sync that fails is terminal: that error comes back from this and
	// every later call, and the durable boundary never moves again.
	Flush(upTo LSN) error
	// CurLSN returns the LSN that the next inserted record would receive.
	CurLSN() LSN
	// DurableLSN returns the boundary below which all records are durable.
	DurableLSN() LSN
	// Subscribe is Flush for a caller that wants to wait on something else
	// as well: it asks the flusher for upTo (at most CurLSN) and returns a
	// channel that receives nil once every record with LSN < upTo is
	// durable, the device error if the log device has failed, or
	// ErrLogClosed if the manager is closed or killed first. The channel
	// is buffered and receives exactly one value, so a subscriber may walk
	// away from it. Under DesignCoupled, whose flushes are synchronous, the
	// flush runs inside the call and the channel comes back resolved.
	Subscribe(upTo LSN) <-chan error
	// Stats returns contention and traffic counters.
	Stats() ManagerStats
	// Close stops the flusher, if the design has one, and flushes everything:
	// a subscription the final flush covers resolves with nil.
	Close() error
	// Kill stops the manager as a power cut does, writing nothing: once it
	// returns no call of this manager reaches the store again, and every
	// waiter has failed. Call it before Store.Crash.
	Kill()
}

// ManagerStats aggregates log-manager activity.
type ManagerStats struct {
	Inserts       uint64
	InsertedBytes uint64
	Flushes       uint64
	FlushedBytes  uint64
	InsertWaits   uint64 // times an insert waited on buffer space
	Lock          sync2.Stats
}

// ErrLogClosed is returned by operations on a closed manager.
var ErrLogClosed = fmt.Errorf("wal: log manager %w", closed.Err)

// Options configures log-manager construction.
type Options struct {
	Design     Design
	BufferSize int // log buffer bytes; 0 selects a default
}

// DefaultBufferSize is used when Options.BufferSize is zero.
const DefaultBufferSize = 1 << 20

// New constructs a Manager of the requested design over store.
func New(store Store, opts Options) Manager {
	size := opts.BufferSize
	if size <= 0 {
		size = DefaultBufferSize
	}
	return newRingLog(store, size, opts.Design)
}

// groupCommit implements shared flush waiting: callers block until the
// durable LSN passes their target, and a single flusher satisfies many
// waiters at once. It also carries the asynchronous side of the same
// contract: durable-LSN subscriptions, resolved by whoever advances the
// boundary.
type groupCommit struct {
	mu      sync.Mutex
	cond    *sync.Cond
	durable atomic.Uint64
	// want is the highest target anyone has asked to be made durable: a
	// Flush, a subscription, an insert waiting for ring space, or an
	// insert that found the ring over half full. The flusher drains only
	// while want is past durable, so no drain runs that nobody waits for.
	// A target can be past copied (CurLSN is the reservation head), so
	// the drain a waiter asked for may run before the copy it waits for is
	// published; a publisher whose bytes start below want kicks the
	// flusher again, closing that lost wake-up.
	want    atomic.Uint64
	subs    []gcSub // outstanding subscriptions, unordered
	failErr error   // once set, new subscriptions fail immediately
}

// gcSub is one durable-LSN subscription.
type gcSub struct {
	upTo LSN
	ch   chan error
}

func newGroupCommit() *groupCommit {
	g := &groupCommit{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// advance publishes a new durable boundary, wakes waiters, and resolves
// satisfied subscriptions. Callers are serialized: the boundary has one
// writer, the drain.
func (g *groupCommit) advance(to LSN) {
	if to <= g.get() {
		return
	}
	g.durable.Store(uint64(to))
	g.mu.Lock()
	g.cond.Broadcast()
	kept := g.subs[:0]
	for _, s := range g.subs {
		if s.upTo <= to {
			s.ch <- nil // buffered: never blocks
		} else {
			kept = append(kept, s)
		}
	}
	g.subs = kept
	g.mu.Unlock()
}

// subscribe registers a durable-LSN subscription. The returned channel is
// buffered and receives exactly one value; pending reports that it has not
// received it yet, so somebody must get a drain going.
func (g *groupCommit) subscribe(upTo LSN) (ch chan error, pending bool) {
	ch = make(chan error, 1)
	if g.get() >= upTo {
		ch <- nil
		return ch, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.get() >= upTo: // raced with advance
		ch <- nil
	case g.failErr != nil:
		ch <- g.failErr
	default:
		g.ask(upTo)
		g.subs = append(g.subs, gcSub{upTo: upTo, ch: ch})
		pending = true
	}
	return ch, pending
}

// ask raises want to upTo. Call it before getting a drain going for
// upTo: see want.
func (g *groupCommit) ask(upTo LSN) {
	for w := g.want.Load(); w < uint64(upTo); w = g.want.Load() {
		if g.want.CompareAndSwap(w, uint64(upTo)) {
			return
		}
	}
}

// fail resolves every outstanding subscription with err and makes future
// subscriptions fail fast. Called at manager close (after the final drain
// has resolved everything it could) and when the drain hits a store
// failure — a log device that cannot harden bytes must fail waiters, not
// strand them. The first error wins; close-time ErrLogClosed never masks
// a real device error.
func (g *groupCommit) fail(err error) {
	g.mu.Lock()
	if g.failErr == nil {
		g.failErr = err
	}
	for _, s := range g.subs {
		s.ch <- g.failErr
	}
	g.subs = nil
	g.cond.Broadcast()
	g.mu.Unlock()
}

// failed returns the terminal error, if any.
func (g *groupCommit) failed() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failErr
}

// get returns the durable boundary.
func (g *groupCommit) get() LSN { return LSN(g.durable.Load()) }

// wait blocks until the durable boundary reaches at least upTo. It gives
// up with the terminal error once the manager has failed, and with
// ErrLogClosed once closed is set.
func (g *groupCommit) wait(upTo LSN, closed *atomic.Bool) error {
	if g.get() >= upTo {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.get() < upTo {
		if g.failErr != nil {
			return g.failErr
		}
		if closed.Load() {
			return ErrLogClosed
		}
		g.cond.Wait()
	}
	return nil
}
