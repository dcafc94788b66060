package wal

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sync2"
)

// decoupledLog is the §6.2.2 redesign: a circular buffer where insert,
// compensate and flush are protected by different mutexes, so unrelated
// operations proceed in parallel and fast inserts never wait on slow
// flushes.
//
//   - Inserts own the buffer head. They hold a light-weight queueing mutex
//     (MCS) just long enough to reserve space and copy the record.
//   - Compensations (CLR inserts during rollback) own a marker between
//     head and tail; they take the compensation mutex and then the insert
//     mutex, always in that order.
//   - The flush daemon owns the tail and runs under a blocking mutex; it
//     drains completed bytes to the store in the background.
//
// Inserts keep a cached copy of the tail; only when an insert would
// overrun the cached tail does it refresh from the authoritative value and
// potentially block until the flusher catches up.
type decoupledLog struct {
	store Store
	ring  []byte

	insertMu sync2.MCSLock
	compMu   sync2.MCSLock
	flushMu  sync2.BlockingLock

	head       LSN // next byte to reserve; guarded by insertMu
	cachedTail LSN // insert-side cache of the durable tail; guarded by insertMu
	copied     atomic.Uint64
	gc         *groupCommit

	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	inserts       atomic.Uint64
	insertedBytes atomic.Uint64
	flushes       atomic.Uint64
	flushedBytes  atomic.Uint64
	insertWaits   atomic.Uint64
}

func newDecoupled(store Store, bufSize int) *decoupledLog {
	start := LSN(store.Size())
	if start < logHeaderSize {
		start = logHeaderSize
	}
	l := &decoupledLog{
		store: store,
		ring:  make([]byte, bufSize),
		head:  start,
		gc:    newGroupCommit(),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	l.copied.Store(uint64(start))
	l.cachedTail = LSN(store.DurableSize())
	l.gc.advance(LSN(store.DurableSize()))
	go l.flusher()
	return l
}

// kickFlusher nudges the flush daemon without blocking.
func (l *decoupledLog) kickFlusher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// copyToRing copies b into the circular buffer at absolute offset off.
func copyToRing(ring []byte, off LSN, b []byte) {
	n := len(ring)
	pos := int(uint64(off) % uint64(n))
	c := copy(ring[pos:], b)
	if c < len(b) {
		copy(ring, b[c:])
	}
}

// putInRing serializes rec, size bytes long and not tooLarge, at log
// offset off of the circular buffer. The caller owns [off, off+size) — it
// is reserved and not yet published — so the record is built in place: one
// copy of each payload byte, no allocation. Only a range that straddles
// the ring's end is built aside and copied in as two pieces.
func putInRing(ring []byte, off LSN, rec *Record, size int) {
	pos := int(uint64(off) % uint64(len(ring)))
	if pos+size <= len(ring) {
		rec.put(ring[pos : pos+size])
		return
	}
	buf := make([]byte, size)
	rec.put(buf)
	copyToRing(ring, off, buf)
}

func (l *decoupledLog) insert(rec *Record) (LSN, error) {
	if l.closed.Load() {
		return NullLSN, ErrLogClosed
	}
	size := rec.EncodedSize()
	if size > len(l.ring) || rec.tooLarge() {
		return NullLSN, ErrRecordTooLarge
	}

	l.insertMu.Lock()
	// Check the cached tail first; refresh from the authoritative durable
	// boundary only when the cache says the buffer is full.
	if l.head+LSN(size)-l.cachedTail > LSN(len(l.ring)) {
		l.cachedTail = l.gc.get()
		for l.head+LSN(size)-l.cachedTail > LSN(len(l.ring)) {
			// Buffer genuinely full: wait for the flusher.
			l.insertWaits.Add(1)
			target := l.head + LSN(size) - LSN(len(l.ring))
			l.kickFlusher()
			l.gc.wait(target, func() bool { return l.closed.Load() })
			if l.closed.Load() {
				l.insertMu.Unlock()
				return NullLSN, ErrLogClosed
			}
			if err := l.gc.failed(); err != nil {
				l.insertMu.Unlock()
				return NullLSN, err
			}
			l.cachedTail = l.gc.get()
		}
	}
	rec.LSN = l.head
	putInRing(l.ring, l.head, rec, size)
	l.head += LSN(size)
	head := l.head
	l.copied.Store(uint64(head))
	l.insertMu.Unlock()

	l.inserts.Add(1)
	l.insertedBytes.Add(uint64(size))
	if head-l.gc.get() > LSN(len(l.ring)/2) {
		l.kickFlusher()
	}
	return rec.LSN, nil
}

// Insert implements Manager.
func (l *decoupledLog) Insert(rec *Record) (LSN, error) { return l.insert(rec) }

// InsertCLR implements Manager: compensations serialize on their own mutex
// before entering the insert path, so they never contend with each other
// inside the insert critical section and never wait on flushes.
func (l *decoupledLog) InsertCLR(rec *Record) (LSN, error) {
	l.compMu.Lock()
	defer l.compMu.Unlock()
	return l.insert(rec)
}

// flusher is the background flush daemon; it owns the tail.
func (l *decoupledLog) flusher() {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			l.drain()
			return
		case <-l.kick:
			l.drain()
		}
	}
}

// drain writes completed bytes [tail, copied) to the store and advances
// the durable boundary.
func (l *decoupledLog) drain() {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	tail := l.gc.get()
	copied := LSN(l.copied.Load())
	if copied <= tail {
		return
	}
	n := len(l.ring)
	for off := tail; off < copied; {
		pos := int(uint64(off) % uint64(n))
		chunk := n - pos
		if rem := int(copied - off); rem < chunk {
			chunk = rem
		}
		if err := l.store.WriteAt(l.ring[pos:pos+chunk], int64(off)); err != nil {
			// A log device that cannot take bytes is terminal: fail the
			// waiters rather than strand them on a boundary that will
			// never advance.
			l.gc.fail(fmt.Errorf("wal: log write failed: %w", err))
			return
		}
		off += LSN(chunk)
	}
	if err := l.store.Flush(int64(copied)); err != nil {
		l.gc.fail(fmt.Errorf("wal: log flush failed: %w", err))
		return
	}
	l.flushes.Add(1)
	l.flushedBytes.Add(uint64(copied - tail))
	l.gc.advance(copied)
}

// Flush implements Manager.
func (l *decoupledLog) Flush(upTo LSN) error {
	if l.gc.get() >= upTo {
		return nil
	}
	if l.closed.Load() {
		return ErrLogClosed
	}
	l.kickFlusher()
	l.gc.wait(upTo, func() bool { return l.closed.Load() })
	if l.gc.get() < upTo {
		if err := l.gc.failed(); err != nil {
			return err
		}
		return ErrLogClosed
	}
	return nil
}

// CurLSN implements Manager.
func (l *decoupledLog) CurLSN() LSN { return LSN(l.copied.Load()) }

// DurableLSN implements Manager.
func (l *decoupledLog) DurableLSN() LSN { return l.gc.get() }

// Subscribe implements Manager.
func (l *decoupledLog) Subscribe(upTo LSN) <-chan error { return l.gc.subscribe(upTo) }

// Stats implements Manager.
func (l *decoupledLog) Stats() ManagerStats {
	s := ManagerStats{
		Inserts:       l.inserts.Load(),
		InsertedBytes: l.insertedBytes.Load(),
		Flushes:       l.flushes.Load(),
		FlushedBytes:  l.flushedBytes.Load(),
		InsertWaits:   l.insertWaits.Load(),
		Lock:          l.insertMu.Stats(),
	}
	return s
}

// Close implements Manager.
func (l *decoupledLog) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	close(l.stop)
	<-l.done
	l.gc.fail(ErrLogClosed) // resolve subscriptions the final drain missed
	return nil
}

var _ Manager = (*decoupledLog)(nil)
