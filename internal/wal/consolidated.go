package wal

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sync2"
)

// consolidatedLog is the §6.2.4 design: the log buffer is merged with the
// mechanism that protects it. A thread serializes only long enough to
// claim its buffer region and LSN; the record copy happens outside any
// mutex, in parallel with other threads' copies, and completions are
// published to the flush daemon in LSN order — the "extended queuing lock"
// whose queue hand-off passes the insert offset from thread to thread.
//
// Concretely:
//
//   - reservation: a CAS loop on the head offset (the hand-off of the
//     contended state, offset and LSN, with no further critical section);
//   - copy: into the circular buffer, unlatched;
//   - publication: each thread waits until the ordered completion cursor
//     reaches its own start offset, then advances it past its record —
//     exactly the successor hand-off of an MCS queue, applied to buffer
//     state instead of a lock word;
//   - the flush daemon "follows behind, dequeuing all threads' left-over
//     nodes": it flushes [tail, completionCursor).
type consolidatedLog struct {
	store Store
	ring  []byte

	head    atomic.Uint64 // next byte to reserve (= next LSN)
	copied  atomic.Uint64 // ordered completion cursor
	gc      *groupCommit
	flushMu sync2.BlockingLock
	// flushWaiters counts callers blocked in Flush. A flush target can
	// exceed the completion cursor (CurLSN returns the reservation head),
	// so a drain triggered by the waiter's kick may run before the copy
	// publishes; publishers re-kick while anyone waits, closing the
	// lost-wakeup window.
	flushWaiters atomic.Int64

	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	inserts       atomic.Uint64
	insertedBytes atomic.Uint64
	flushes       atomic.Uint64
	flushedBytes  atomic.Uint64
	insertWaits   atomic.Uint64
	reserveRetry  atomic.Uint64
	publishSpins  atomic.Uint64
}

func newConsolidated(store Store, bufSize int) *consolidatedLog {
	start := uint64(store.Size())
	if start < logHeaderSize {
		start = logHeaderSize
	}
	l := &consolidatedLog{
		store: store,
		ring:  make([]byte, bufSize),
		gc:    newGroupCommit(),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	l.head.Store(start)
	l.copied.Store(start)
	l.gc.advance(LSN(store.DurableSize()))
	go l.flusher()
	return l
}

func (l *consolidatedLog) kickFlusher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

func (l *consolidatedLog) insert(rec *Record) (LSN, error) {
	if l.closed.Load() {
		return NullLSN, ErrLogClosed
	}
	size := uint64(rec.EncodedSize())
	if size > uint64(len(l.ring)) || rec.tooLarge() {
		return NullLSN, ErrRecordTooLarge
	}

	// Phase 1: reserve [r, r+size). The only shared state touched is the
	// head word; this is the entire "critical section" of an insert.
	var r uint64
	for {
		r = l.head.Load()
		// Respect the buffer bound against the durable tail. The tail is
		// read after the head, so it can already be past a stale r+size;
		// that is not a full buffer (the unsigned distance would wrap and
		// the wait below would never end) — the CAS fails and re-reads.
		if tail := uint64(l.gc.get()); r+size > tail && r+size-tail > uint64(len(l.ring)) {
			l.insertWaits.Add(1)
			l.kickFlusher()
			l.gc.wait(LSN(r+size-uint64(len(l.ring))), func() bool { return l.closed.Load() })
			if l.closed.Load() {
				return NullLSN, ErrLogClosed
			}
			if err := l.gc.failed(); err != nil {
				return NullLSN, err
			}
			continue
		}
		if l.head.CompareAndSwap(r, r+size) {
			break
		}
		l.reserveRetry.Add(1)
	}

	// Phase 2: encode into the reservation, in parallel with other
	// inserters. The reservation cannot be returned, which is why
	// everything that could refuse the record was checked before it.
	rec.LSN = LSN(r)
	putInRing(l.ring, rec.LSN, rec, int(size))

	// Phase 3: ordered publication — hand the completion cursor forward.
	l.publish(r, size)

	l.inserts.Add(1)
	l.insertedBytes.Add(size)
	if LSN(r+size)-l.gc.get() > LSN(len(l.ring)/2) {
		l.kickFlusher()
	}
	return rec.LSN, nil
}

// publish advances the ordered completion cursor from r to r+size,
// waiting for all earlier reservations to publish first.
func (l *consolidatedLog) publish(r, size uint64) {
	var b sync2.Backoff
	for l.copied.Load() != r {
		b.Spin()
	}
	if it := b.Iterations(); it > 0 {
		l.publishSpins.Add(uint64(it))
	}
	l.copied.Store(r + size)
	if l.flushWaiters.Load() > 0 {
		l.kickFlusher()
	}
}

// Insert implements Manager.
func (l *consolidatedLog) Insert(rec *Record) (LSN, error) { return l.insert(rec) }

// InsertCLR implements Manager. The consolidated design needs no separate
// compensation path: the insert critical section is already minimal.
func (l *consolidatedLog) InsertCLR(rec *Record) (LSN, error) { return l.insert(rec) }

func (l *consolidatedLog) flusher() {
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

func (l *consolidatedLog) drain() {
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
func (l *consolidatedLog) Flush(upTo LSN) error {
	if l.gc.get() >= upTo {
		return nil
	}
	if l.closed.Load() {
		return ErrLogClosed
	}
	l.flushWaiters.Add(1)
	l.kickFlusher()
	l.gc.wait(upTo, func() bool { return l.closed.Load() })
	l.flushWaiters.Add(-1)
	if l.gc.get() < upTo {
		if err := l.gc.failed(); err != nil {
			return err
		}
		return ErrLogClosed
	}
	return nil
}

// CurLSN implements Manager.
func (l *consolidatedLog) CurLSN() LSN { return LSN(l.head.Load()) }

// DurableLSN implements Manager.
func (l *consolidatedLog) DurableLSN() LSN { return l.gc.get() }

// Subscribe implements Manager.
func (l *consolidatedLog) Subscribe(upTo LSN) <-chan error { return l.gc.subscribe(upTo) }

// Stats implements Manager.
func (l *consolidatedLog) Stats() ManagerStats {
	return ManagerStats{
		Inserts:       l.inserts.Load(),
		InsertedBytes: l.insertedBytes.Load(),
		Flushes:       l.flushes.Load(),
		FlushedBytes:  l.flushedBytes.Load(),
		InsertWaits:   l.insertWaits.Load(),
		Lock: sync2.Stats{
			Acquisitions: l.inserts.Load(),
			Contended:    l.reserveRetry.Load(),
			SpinIters:    l.publishSpins.Load(),
		},
	}
}

// Close implements Manager.
func (l *consolidatedLog) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	close(l.stop)
	<-l.done
	l.gc.fail(ErrLogClosed) // resolve subscriptions the final drain missed
	return nil
}

var _ Manager = (*consolidatedLog)(nil)
