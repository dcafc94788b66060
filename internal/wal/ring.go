package wal

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sync2"
)

// ringLog is the one log manager. It owns everything the paper's three
// designs (§6.2) share: the circular buffer, three marks into the flat
// LSN space, the drain that moves bytes from the ring to the store, the
// group-commit waiters and the rule for a failed device. A design is only
// its reservation policy — who holds what while a record's bytes are
// reserved and copied, and who runs the drain.
//
// The marks, durable ≤ copied ≤ head, and their owners:
//
//	head     next byte to reserve (= next LSN)       the inserter, under its policy
//	copied   every byte below it is in the ring       the inserter, in LSN order
//	durable  every byte below it was written+synced   the drain (groupCommit)
//
// What each policy holds:
//
//	             reserve + copy            publish copied      drain
//	coupled      one blocking mutex        same mutex          inline, same mutex held:
//	                                                           on a full buffer and on Flush
//	decoupled    MCS insert mutex, cached  same mutex          background flusher, flushMu;
//	             tail; CLRs queue on the                       inserts hold nothing of it
//	             compensation mutex first
//	consolidated CAS on head, copy with    ordered hand-off    a blocking Flush inline when
//	             nothing held              of copied (spin)    no drain runs, else the
//	                                                           background flusher; flushMu
//
// A drain runs only on demand: for a target someone waits for (Flush, a
// subscription, an insert that needs ring space; groupCommit.want), or
// when the ring is over half full. An insert does not kick the flusher
// for a waiter whose target is below the insert's bytes.
//
// Failure rule, the same for all three: the first error from the store's
// WriteAt or Flush is latched in groupCommit and is terminal. The drain
// never touches the store again, so durable never moves again, and Flush,
// Subscribe and an insert that needs room all return that error. A failed
// fsync cannot be retried safely — the kernel may have dropped the dirty
// pages it could not write.
type ringLog struct {
	store  Store
	ring   []byte
	policy reserver
	gc     *groupCommit  // holds durable
	kick   chan struct{} // nil when the policy drains inline
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool
	start  uint64 // head when the manager opened: InsertedBytes is head − start

	// Every insert reads the fields above and writes the marks below: the
	// padding gives the marks a cache line of their own (~2 % of insert CPU).
	// The insert counter rides on that line, which the insert has just
	// taken; the bytes inserted are not counted at all, but read off head.
	_       [64]byte
	head    atomic.Uint64
	copied  atomic.Uint64
	inserts atomic.Uint64
	_       [64]byte

	flushMu sync2.BlockingLock // serializes drains
	written uint64             // store holds every byte below it; guarded by flushMu

	flushes      atomic.Uint64
	flushedBytes atomic.Uint64
	insertWaits  atomic.Uint64
}

// reserver is a log design.
type reserver interface {
	// reserve claims ring bytes [r, r+size) for rec, first getting room
	// for them if the ring is full. The size is rec's at r, so it is
	// computed inside the reservation, and so is the check of rec's
	// back-links against r (checkLinks). On error nothing is held.
	reserve(l *ringLog, rec *Record, clr bool) (r, size uint64, err error)
	// publish moves copied past the record the caller has put at r, once
	// every earlier record is there, and releases what reserve took.
	publish(l *ringLog, r, size uint64, clr bool)
	// sync gets a drain going for a target already in want: inline, or by
	// kicking the background flusher. wait reports that the caller blocks
	// until the drain is done (Flush) rather than being free to walk away
	// (Subscribe), so it may run the drain itself.
	sync(l *ringLog, wait bool)
	// lockStats reports contention on the reservation.
	lockStats(l *ringLog) sync2.Stats
}

func newRingLog(store Store, bufSize int, d Design) *ringLog {
	l := &ringLog{store: store, ring: make([]byte, bufSize), gc: newGroupCommit()}
	// The one place the store's size is read. The log continues at the end
	// of what the store holds; the bytes below are the store's already
	// (written), whether or not it counts all of them durable, and the
	// ring never rewrites them.
	start := max(uint64(store.Size()), logHeaderSize)
	l.start = start
	l.head.Store(start)
	l.copied.Store(start)
	l.written = start
	l.gc.advance(LSN(min(uint64(store.DurableSize()), start)))
	switch d {
	case DesignDecoupled:
		l.policy = &decoupled{}
		l.startFlusher()
	case DesignConsolidated:
		l.policy = &consolidated{}
		l.startFlusher()
	default:
		l.policy = &coupled{}
	}
	return l
}

// coupled is the original Shore log manager: a single blocking mutex
// protects every operation and flushes are synchronous, every other
// thread queued behind the mutex meanwhile. This is the design whose
// contention Figure 7's "baseline" suffers from.
type coupled struct{ mu sync2.BlockingLock }

func (p *coupled) reserve(l *ringLog, rec *Record, _ bool) (uint64, uint64, error) {
	p.mu.Lock()
	r := l.head.Load() // fixed while mu is held
	if err := checkLinks(rec, r); err != nil {
		p.mu.Unlock()
		return 0, 0, err
	}
	size := uint64(rec.sizeAt(LSN(r)))
	if !l.fits(r, size, uint64(l.gc.get())) {
		// Synchronous flush on the insert path — the defining flaw. It
		// empties the ring: nothing is copied past r while mu is held.
		l.insertWaits.Add(1)
		l.drain()
		if err := l.gc.failed(); err != nil {
			p.mu.Unlock()
			return 0, 0, err
		}
	}
	return r, size, nil
}

func (p *coupled) publish(l *ringLog, r, size uint64, _ bool) {
	l.head.Store(r + size)
	l.copied.Store(r + size)
	p.mu.Unlock()
}

func (p *coupled) sync(l *ringLog, _ bool) {
	p.mu.Lock()
	l.drain()
	p.mu.Unlock()
}

func (p *coupled) lockStats(*ringLog) sync2.Stats { return p.mu.Stats() }

// decoupled is the §6.2.2 redesign: insert, compensate and flush are
// protected by different mutexes, so fast inserts never wait on slow
// flushes. Compensations (CLR inserts during rollback) take their own
// mutex first, always in that order, so they queue on each other outside
// the insert critical section. Inserts keep a cached copy of the tail and
// read the flusher's only when the cache says the buffer is full.
type decoupled struct {
	insertMu   sync2.MCSLock
	compMu     sync2.MCSLock
	cachedTail uint64 // a past value of durable; guarded by insertMu
}

func (p *decoupled) reserve(l *ringLog, rec *Record, clr bool) (r, size uint64, err error) {
	if clr {
		p.compMu.Lock()
	}
	p.insertMu.Lock()
	r = l.head.Load() // fixed while insertMu is held
	if err := checkLinks(rec, r); err != nil {
		p.release(clr)
		return 0, 0, err
	}
	size = uint64(rec.sizeAt(LSN(r)))
	if !l.fits(r, size, p.cachedTail) {
		if p.cachedTail, err = l.awaitSpace(r, size); err != nil {
			p.release(clr)
			return 0, 0, err
		}
	}
	return r, size, nil
}

func (p *decoupled) publish(l *ringLog, r, size uint64, clr bool) {
	l.head.Store(r + size)
	l.copied.Store(r + size)
	p.release(clr)
}

func (p *decoupled) release(clr bool) {
	p.insertMu.Unlock()
	if clr {
		p.compMu.Unlock()
	}
}

func (p *decoupled) sync(l *ringLog, _ bool) { l.kickFlusher() }

func (p *decoupled) lockStats(*ringLog) sync2.Stats { return p.insertMu.Stats() }

// consolidated is the §6.2.4 design: the log buffer is merged with the
// mechanism that protects it. A thread serializes only long enough to
// claim its buffer region and LSN — a CAS on head, the whole critical
// section of an insert — and copies in parallel with other threads.
// Completions are published in LSN order, each thread waiting until
// copied reaches its own start: the successor hand-off of an MCS queue,
// applied to buffer state instead of a lock word. The flusher "follows
// behind, dequeuing all threads' left-over nodes". There is no critical
// section to keep CLRs out of, so no compensation path.
type consolidated struct {
	retries      atomic.Uint64 // lost CASes on head
	publishSpins atomic.Uint64
}

func (p *consolidated) reserve(l *ringLog, rec *Record, _ bool) (uint64, uint64, error) {
	for {
		r := l.head.Load()
		// A stale r is below the LSN the record gets, and every record
		// this one links to is below r already: the check holds at both.
		if err := checkLinks(rec, r); err != nil {
			return 0, 0, err
		}
		size := uint64(rec.sizeAt(LSN(r))) // again on every attempt: r moves
		// durable is read after head and can already be past a stale r+size.
		// That fits (see fits); the CAS then fails and re-reads.
		if !l.fits(r, size, uint64(l.gc.get())) {
			if _, err := l.awaitSpace(r, size); err != nil {
				return 0, 0, err
			}
			continue
		}
		if l.head.CompareAndSwap(r, r+size) {
			// The reservation cannot be returned, which is why everything
			// that could refuse the record was checked before it.
			return r, size, nil
		}
		p.retries.Add(1)
	}
}

func (p *consolidated) publish(l *ringLog, r, size uint64, _ bool) {
	var b sync2.Backoff
	for l.copied.Load() != r {
		b.Spin()
	}
	if it := b.Iterations(); it > 0 {
		p.publishSpins.Add(uint64(it))
	}
	l.copied.Store(r + size)
}

// sync runs a blocking caller's drain on its own goroutine when no drain
// is running, saving the two hand-offs to the flusher and back; otherwise
// the flusher follows the running drain with one that covers the caller.
func (p *consolidated) sync(l *ringLog, wait bool) {
	if wait && l.flushMu.TryLock() {
		l.drainLocked()
		l.flushMu.Unlock()
		return
	}
	l.kickFlusher()
}

func (p *consolidated) lockStats(l *ringLog) sync2.Stats {
	return sync2.Stats{
		Acquisitions: l.inserts.Load(),
		Contended:    p.retries.Load(),
		SpinIters:    p.publishSpins.Load(),
	}
}

// checkLinks refuses rec at r unless every record it links to is below r.
func checkLinks(rec *Record, r uint64) error {
	if !linkOK(LSN(r), rec.PrevLSN) || !linkOK(LSN(r), rec.UndoNext) {
		return fmt.Errorf("%w: back-link of a record inserted at %v", ErrInvalidLSN, LSN(r))
	}
	return nil
}

// fits reports whether reserving [r, r+size) keeps the live bytes within
// the ring, given tail as the durable mark. A tail past r+size (a stale r)
// fits: the unsigned distance would wrap, and a wait on it never end.
func (l *ringLog) fits(r, size, tail uint64) bool {
	return r+size <= tail || r+size-tail <= uint64(len(l.ring))
}

// awaitSpace returns a durable mark under which [r, r+size) fits the
// ring, waiting for the flusher while there is none. It fails once the
// log is closed or the device has failed.
func (l *ringLog) awaitSpace(r, size uint64) (tail uint64, err error) {
	for {
		tail = uint64(l.gc.get())
		if l.fits(r, size, tail) {
			return tail, nil
		}
		l.insertWaits.Add(1)
		target := LSN(r + size - uint64(len(l.ring)))
		l.gc.ask(target)
		l.kickFlusher()
		if err := l.gc.wait(target, &l.closed); err != nil {
			return 0, err
		}
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

// copyToRing copies b into the circular buffer at absolute offset off.
func copyToRing(ring []byte, off LSN, b []byte) {
	pos := int(uint64(off) % uint64(len(ring)))
	if c := copy(ring[pos:], b); c < len(b) {
		copy(ring, b[c:])
	}
}

func (l *ringLog) insert(rec *Record, clr bool) (LSN, error) {
	if l.closed.Load() {
		return NullLSN, ErrLogClosed
	}
	if rec.tooLarge() || rec.maxSize() > len(l.ring) {
		return NullLSN, ErrRecordTooLarge
	}
	r, size, err := l.policy.reserve(l, rec, clr)
	if err != nil {
		return NullLSN, err
	}
	rec.LSN = LSN(r)
	putInRing(l.ring, rec.LSN, rec, int(size))
	l.policy.publish(l, r, size, clr)

	l.inserts.Add(1)
	// A waiter's target reaches into this record, whose bytes the drain it
	// asked for may have missed; or the ring is over half full.
	if r < l.gc.want.Load() {
		l.kickFlusher()
	} else if LSN(r+size)-l.gc.get() > LSN(len(l.ring)/2) {
		l.gc.ask(LSN(r + size))
		l.kickFlusher()
	}
	return rec.LSN, nil
}

// Insert implements Manager.
func (l *ringLog) Insert(rec *Record) (LSN, error) { return l.insert(rec, false) }

// InsertCLR implements Manager.
func (l *ringLog) InsertCLR(rec *Record) (LSN, error) { return l.insert(rec, true) }

func (l *ringLog) startFlusher() {
	l.kick = make(chan struct{}, 1)
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		for {
			select {
			case <-l.stop:
				return
			case <-l.kick:
				if l.gc.want.Load() > uint64(l.gc.get()) {
					l.drain()
				}
			}
		}
	}()
}

// kickFlusher nudges the background flusher without blocking. With no
// flusher the channel is nil and this does nothing.
func (l *ringLog) kickFlusher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// drain writes the ring bytes the store does not have yet, [written,
// copied), syncs the store through copied and publishes that as durable.
// After a device error it does nothing.
func (l *ringLog) drain() {
	l.flushMu.Lock()
	l.drainLocked()
	l.flushMu.Unlock()
}

// drainLocked is drain with flushMu held.
func (l *ringLog) drainLocked() {
	if l.gc.failed() != nil {
		return
	}
	copied := l.copied.Load()
	if copied <= uint64(l.gc.get()) {
		return
	}
	n := uint64(len(l.ring))
	for off := l.written; off < copied; {
		pos := off % n
		chunk := min(n-pos, copied-off)
		if err := l.store.WriteAt(l.ring[pos:pos+chunk], int64(off)); err != nil {
			l.gc.fail(fmt.Errorf("wal: log write failed: %w", err))
			return
		}
		off += chunk
	}
	if err := l.store.Flush(int64(copied)); err != nil {
		l.gc.fail(fmt.Errorf("wal: log flush failed: %w", err))
		return
	}
	l.flushes.Add(1)
	l.flushedBytes.Add(copied - l.written)
	l.written = copied
	l.gc.advance(LSN(copied))
}

// Flush implements Manager.
func (l *ringLog) Flush(upTo LSN) error {
	if l.gc.get() >= upTo {
		return nil
	}
	l.gc.ask(upTo) // before the drain: see groupCommit.want
	l.policy.sync(l, true)
	return l.gc.wait(upTo, &l.closed)
}

// CurLSN implements Manager.
func (l *ringLog) CurLSN() LSN { return LSN(l.head.Load()) }

// DurableLSN implements Manager.
func (l *ringLog) DurableLSN() LSN { return l.gc.get() }

// Subscribe implements Manager: register first, then get a drain going, so
// that the drain which covers upTo finds the subscription. The subscriber
// may walk away, so it never runs the drain itself, except under coupled,
// whose every drain is inline.
func (l *ringLog) Subscribe(upTo LSN) <-chan error {
	ch, pending := l.gc.subscribe(upTo)
	if pending {
		l.policy.sync(l, false)
	}
	return ch
}

// Stats implements Manager.
func (l *ringLog) Stats() ManagerStats {
	return ManagerStats{
		Inserts:       l.inserts.Load(),
		InsertedBytes: l.head.Load() - l.start,
		Flushes:       l.flushes.Load(),
		FlushedBytes:  l.flushedBytes.Load(),
		InsertWaits:   l.insertWaits.Load(),
		Lock:          l.policy.lockStats(l),
	}
}

// Close implements Manager. It returns the device error, if there was one:
// the tail it was asked to flush did not reach the store.
func (l *ringLog) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	l.stopFlusher()
	l.drain()
	err := l.gc.failed()
	l.gc.fail(ErrLogClosed) // resolve subscriptions the final drain missed
	return err
}

// Kill implements Manager. Under flushMu a drain in flight has finished
// and none has started; the terminal error latched there turns every later
// drain into a no-op and fails the waiters, Flush, Subscribe and an insert
// that needs room. Unlike Close it drains nothing.
func (l *ringLog) Kill() {
	l.flushMu.Lock()
	l.gc.fail(ErrLogClosed)
	l.flushMu.Unlock()
	if !l.closed.Swap(true) {
		l.stopFlusher()
	}
}

// stopFlusher stops the background flusher, if the policy has one, and
// waits for it. The caller has won the swap of closed.
func (l *ringLog) stopFlusher() {
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
}
