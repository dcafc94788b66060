// Package waltest holds the log-store double the tests above internal/wal
// share: a store whose Flush can be parked, to hold the window between a
// commit record's insert and its durability open for as long as a test
// needs it, on any log design and without a clock.
package waltest

import (
	"errors"
	"sync/atomic"

	"repro/internal/wal"
)

// ErrPowerCut is what every Flush returns between Cut and Crash.
var ErrPowerCut = errors.New("waltest: power cut with the flush in flight")

// GateStore wraps a wal.Store. While its gate is shut every Flush parks
// before it reaches the store, so nothing becomes durable, whoever asks:
// a committer, the cleaner, a checkpoint.
type GateStore struct {
	wal.Store
	gate atomic.Pointer[gate]
	cut  atomic.Bool
}

type gate struct {
	parked  chan struct{} // receives once a Flush is waiting at the gate
	release chan struct{} // closed to let the waiting ones go
}

// NewGateStore wraps store with the gate open.
func NewGateStore(store wal.Store) *GateStore { return &GateStore{Store: store} }

// Shut closes the gate and returns a channel that receives once a Flush
// has parked at it: a drain of the log is then inside the store, the bytes
// it carries written and not synced.
func (g *GateStore) Shut() <-chan struct{} {
	p := &gate{parked: make(chan struct{}, 1), release: make(chan struct{})}
	g.gate.Store(p)
	return p.parked
}

// Open opens the gate: parked flushes go through to the store.
func (g *GateStore) Open() {
	if p := g.gate.Swap(nil); p != nil {
		close(p.release)
	}
}

// Cut opens the gate as a power cut does: the parked flushes and every
// later one fail with ErrPowerCut without reaching the store — the log
// manager latches that as its terminal device error — and what they wrote
// is lost with the Crash that ends the cut. Call it before
// Engine.CrashHard, which waits for a flush in flight.
func (g *GateStore) Cut() {
	g.cut.Store(true)
	g.Open()
}

// Crash implements wal.Store; the power is back for whoever opens the
// store next.
func (g *GateStore) Crash() {
	g.Store.Crash()
	g.cut.Store(false)
}

// Flush implements wal.Store.
func (g *GateStore) Flush(upTo int64) error {
	if p := g.gate.Load(); p != nil {
		select {
		case p.parked <- struct{}{}:
		default:
		}
		<-p.release
	}
	if g.cut.Load() {
		return ErrPowerCut
	}
	return g.Store.Flush(upTo)
}
