// Package buffer implements the buffer pool manager whose step-by-step
// de-bottlenecking is the spine of the Shore-MT paper: pluggable hash
// index (global-mutex chain, per-bucket chain, 3-ary cuckoo), atomic
// pin-if-pinned, a hot-page array, CLOCK replacement sharded into
// independent per-region hands with free lists of pre-evicted frames
// (early hand release carried over per shard), partitioned in-transit
// lists with the transit-bypass optimization, and a shard-aware
// background cleaner that keeps the free lists ahead of demand and
// doubles as the checkpoint's oldest-dirty-LSN tracker.
//
// # Frame life-cycle
//
// A frame's state is in the frame (pin count, latch, pid, dirty bit) and
// each edge is one function — claimFree and claimVictim beside the free
// lists and the clock in shard.go, the rest below:
//
//	         claimFree                install
//	free ──────────────► claimed ──────────────► resident
//	 ▲                    │   ▲                    │   ▲
//	 └────── retire ──────┘   │ evict              │   │ evict failed
//	                          │        claimVictim ▼   │
//	                          └──────────────── leaving
//
//	free      frozen (pin −1), clean, pid 0, unlatched, on its shard's free
//	          list (a single shard has none: pin 0, in the clock)
//	claimed   frozen + EX-latched, clean, pid 0: allocFrame's result, owned
//	          by one goroutine
//	resident  the table maps pid to this frame; pin ≥ 0; clean or dirty
//	leaving   frozen + EX-latched, still mapped, its image still the newest
//	          and possibly on its way to the volume
//
// retire also takes a resident frame that its caller owns (Drop, an
// install that lost) to free. Five rules hold by construction:
//
//	R1 frame first (install): a goroutine owns its destination frame
//	   before it registers anything under a pid, transit entry or mapping,
//	   so the holder of a registration never waits for a clock lock.
//	R2 no wait under a clock lock (evict): a victim whose pid is in
//	   transit is skipped. The hand may be held across the victim's own
//	   write (ClockHandRelease off), never across anyone else's.
//	R3 the volume is read only when it holds the newest image (install).
//	R4 a page stays reachable until its write lands (evict): no frame
//	   holds a pid the table does not map to it. A fixer that meets a
//	   leaving frame parks on its transit entry (awaitTransit); it does
//	   not spin across the device.
//	R5 the checkpoint never loses a dirty page (walkDirty): a frame that
//	   cannot be pinned or latched is reported with its recLSN, and where
//	   nobody knows the recLSN yet the walk waits for the latch.
package buffer

import (
	"runtime"
	"sync/atomic"

	"repro/internal/page"
	"repro/internal/sync2"
	"repro/internal/wal"
)

// Frame is one buffer-pool slot: a page image plus its control state.
type Frame struct {
	buf []byte
	pg  *page.Page
	idx uint32        // position in the pool's frame array (immutable)
	pid atomic.Uint64 // current page id, 0 if free
	pin pinCount
	// latch is versioned so optimistic readers (FixOpt) can validate that
	// neither a writer nor a recycle touched the frame: every EX
	// acquisition bumps the version, and the pool EX-latches frames while
	// loading, evicting, and dropping their contents.
	latch sync2.VersionedLatch
	// slotHint is the heap layer's free-slot low-water mark: no slot below
	// it is a reusable tombstone. It is advisory — too low merely rescans,
	// and the pool resets it whenever the frame changes pages.
	slotHint atomic.Uint32
	// insertHint is the B-tree layer's memory of where inserts run: the
	// slot of the last insert into the leaf this frame holds, 0 for none.
	// Advisory and reset with slotHint.
	insertHint atomic.Uint32
	dirty      atomic.Bool
	// recLSN is the LSN of the first update since the page was last clean
	// (the ARIES dirty-page-table entry).
	recLSN atomic.Uint64
	refbit atomic.Bool // CLOCK reference bit
}

// newFrame allocates frame idx and its page buffer.
func newFrame(idx uint32) *Frame {
	buf := make([]byte, page.Size)
	pg, err := page.Wrap(buf)
	if err != nil {
		panic(err) // buffer is page.Size by construction
	}
	return &Frame{buf: buf, pg: pg, idx: idx}
}

// Page returns the page image. Callers must hold the frame's latch.
func (f *Frame) Page() *page.Page { return f.pg }

// PID returns the page currently cached in this frame (0 if free).
func (f *Frame) PID() page.ID { return page.ID(f.pid.Load()) }

// Latch acquires the frame latch in mode.
func (f *Frame) Latch(mode sync2.LatchMode) { f.latch.Latch(mode) }

// Unlatch releases the frame latch taken in mode.
func (f *Frame) Unlatch(mode sync2.LatchMode) { f.latch.Unlatch(mode) }

// MarkDirty records that the holder (who must hold the EX latch) modified
// the page under log record lsn. The first dirtying since the page was
// clean establishes recLSN.
func (f *Frame) MarkDirty(lsn wal.LSN) {
	if !f.dirty.Swap(true) {
		f.recLSN.Store(uint64(lsn))
	}
}

// Dirty reports whether the frame holds unflushed modifications.
func (f *Frame) Dirty() bool { return f.dirty.Load() }

// RecLSN returns the frame's dirty-page-table recLSN (0 when clean).
func (f *Frame) RecLSN() wal.LSN {
	if !f.dirty.Load() {
		return wal.NullLSN
	}
	return wal.LSN(f.recLSN.Load())
}

// SlotHint returns the heap free-slot hint: every slot below it is known
// occupied, so tombstone scans may start there.
func (f *Frame) SlotHint() uint16 { return uint16(f.slotHint.Load()) }

// SetSlotHint raises the hint after an insert claimed the slot below it.
func (f *Frame) SetSlotHint(s uint16) { f.slotHint.Store(uint32(s)) }

// LowerSlotHint drops the hint to s when a delete tombstones a slot below
// the current mark, restoring reuse of the freed slot.
func (f *Frame) LowerSlotHint(s uint16) {
	for {
		old := f.slotHint.Load()
		if uint32(s) >= old || f.slotHint.CompareAndSwap(old, uint32(s)) {
			return
		}
	}
}

// InsertHint returns the slot of the last insert into the B-tree leaf in
// the frame, 0 if none is known.
func (f *Frame) InsertHint() uint16 { return uint16(f.insertHint.Load()) }

// SetInsertHint records that an insert went into slot s of the leaf.
func (f *Frame) SetInsertHint(s uint16) { f.insertHint.Store(uint32(s)) }

// install turns a claimed frame into the resident frame of pid and returns
// it EX-latched with the caller's pin; read=false (FixNew) skips the volume.
// nil, nil means someone else owns pid right now: look it up again. The
// TransitBypass settings differ only in where the mapping is published —
// off: begin(pid) → read → publish → end; on: publish → read (transit.go).
func (p *Pool) install(pid page.ID, read bool) (*Frame, error) {
	f, err := p.allocFrame(pid) // R1: nothing is registered under pid yet
	if err != nil {
		return nil, err
	}
	early := p.opts.TransitBypass // publish before the read?
	if early {
		// R3: the insert succeeds only once no frame holds pid, and a
		// leaving frame holds it until its write has landed (R4).
		if ok, err := p.publish(f, pid); !ok {
			return nil, err
		}
	} else {
		if !p.transit.begin(pid) {
			p.retire(f)
			p.awaitTransit(pid)
			return nil, nil
		}
		defer p.transit.end(pid)
		// R3: the entry keeps every evictor of pid out, and nobody writes
		// an unmapped page. Mapped means it was loaded since our lookup.
		if _, mapped := p.table.get(pid); mapped {
			p.retire(f)
			return nil, nil
		}
	}
	if read {
		if err := p.vol.Read(pid, f.buf); err != nil {
			p.retire(f)
			return nil, err
		}
		// Never-written pages read back zeroed; stamp the true id so the
		// in-memory header is always self-consistent (redo relies on it).
		f.pg.SetPID(pid)
	}
	if !early {
		if ok, err := p.publish(f, pid); !ok {
			return nil, err
		}
	}
	return f, nil
}

// publish makes a claimed frame reachable as pid: identity, the owner's
// pin, then the mapping. If pid is mapped elsewhere (or the table fails)
// the frame is retired and publish reports false.
func (p *Pool) publish(f *Frame, pid page.ID) (bool, error) {
	f.pid.Store(uint64(pid))
	f.pin.unfreezeTo(1)
	_, inserted, err := p.table.getOrInsert(pid, f.idx)
	if err != nil || !inserted {
		p.retire(f)
		return false, err
	}
	return true, nil
}

// evict takes a leaving frame (frozen and EX-latched by claimVictim, still
// mapped) to claimed, charging shard s. On an error the frame is as it came
// — mapped, and dirty if it was — for the caller to unfreeze: the pid is in
// someone's transit (R2: skip, never wait), or the write-back failed (R4).
func (p *Pool) evict(f *Frame, s *shard) error {
	pid := f.PID()
	if pid == 0 {
		return nil // a single-hand pool's free frames sit in the clock
	}
	if f.Dirty() {
		// Transit-out: fixers of pid park on the entry instead of reading
		// the volume under the write. It ends after the unmap, so a woken
		// fixer finds pid unmapped and the volume current.
		if !p.transit.begin(pid) {
			return errVictimInTransit
		}
		defer p.transit.end(pid)
		if err := p.writeBack(f); err != nil {
			return err
		}
		p.writebacks.Add(1)
	}
	p.table.delete(pid)
	f.pid.Store(0)
	f.slotHint.Store(0)
	f.insertHint.Store(0)
	p.evictions.Add(1)
	s.evictions.Add(1)
	return nil
}

// writeBack flushes the WAL up to the page LSN (the WAL rule), writes the
// frame to the volume and clears its dirty bit. The caller keeps the image
// still and is its only writer: a leaving frame's EX latch, or a pin plus
// the SH latch in the one writing walk (cleanerState.writing).
func (p *Pool) writeBack(f *Frame) error {
	if p.opts.FlushLog != nil {
		if err := p.opts.FlushLog(wal.LSN(f.pg.LSN())); err != nil {
			return err
		}
	}
	if err := p.vol.Write(f.PID(), f.buf); err != nil {
		return err
	}
	f.dirty.Store(false)
	return nil
}

// retire returns a frame its caller owns — EX-latched, and either frozen
// or holding the only legitimate pin — to free, from any state: whatever
// page it holds is unmapped and discarded unwritten. The identity clears
// under the EX latch (a frame's pid may only change there, or an
// optimistic reader could validate against the stale one), then the latch
// drops so that a visitor parked on it can re-check the pid and leave,
// and only then does a pin wait out those visitors: a visitor that pinned
// and passed its pre-latch ID check is blocked on this very latch, and
// waiting for its unpin while holding the latch would deadlock.
func (p *Pool) retire(f *Frame) {
	if pid := f.PID(); pid != 0 {
		// Only f's owner maps or unmaps f, so the check cannot go stale;
		// an install that lost must not unmap the winner.
		if idx, ok := p.table.get(pid); ok && idx == f.idx {
			p.table.delete(pid)
		}
		f.pid.Store(0)
	}
	f.dirty.Store(false)
	f.slotHint.Store(0)
	f.insertHint.Store(0)
	f.latch.UnlatchEX()
	if f.pin.get() > 0 {
		f.pin.freezeFromOne()
	}
	if p.freeLists {
		p.shardOfFrame(f.idx).pushFree(f.idx)
	} else {
		f.pin.unfreezeTo(0) // single-hand mode: the clock is the free list
	}
}

// awaitTransit parks until pid's in-flight transit, if there is one, has
// completed, and reports whether it waited. Never call it holding a clock
// lock or a registration under any pid (R1, R2).
func (p *Pool) awaitTransit(pid page.ID) bool {
	done := p.transit.lookup(pid)
	if done != nil {
		p.transitWait.Add(1)
		<-done
	}
	return done != nil
}

// pinCount extends sync2.PinCount semantics with the transitions the
// buffer pool needs: pins from zero race against eviction freezes.
//
// n > 0: pinned; n == 0: unpinned, evictable; n == -1: frozen by an
// evictor.
type pinCount struct {
	n atomic.Int32
}

// tryPin increments the count unless the frame is frozen (-1).
func (p *pinCount) tryPin() bool {
	for {
		old := p.n.Load()
		if old < 0 {
			return false
		}
		if p.n.CompareAndSwap(old, old+1) {
			return true
		}
	}
}

// pinIfPinned increments only when already pinned (the §6.2.1 fast path).
func (p *pinCount) pinIfPinned() bool {
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

// unpin decrements the count.
func (p *pinCount) unpin() { p.n.Add(-1) }

// tryFreeze claims an unpinned frame for eviction (0 → -1).
func (p *pinCount) tryFreeze() bool { return p.n.CompareAndSwap(0, -1) }

// unfreezeTo releases a frozen frame directly into the pinned state (the
// evictor hands the frame to the fixer) or back to free (count 0).
func (p *pinCount) unfreezeTo(count int32) { p.n.Store(count) }

// freezeFromOne retires a loader's single pin straight into the frozen
// state (1 → -1), waiting out transient pin-then-check visitors (stale
// hot-array entries, table lookups that raced the load's failure); they
// unpin as soon as an ID check fails. Only the pin's sole legitimate
// holder may call it, and never while holding the frame's latch (retire
// says why).
func (p *pinCount) freezeFromOne() {
	for !p.n.CompareAndSwap(1, -1) {
		runtime.Gosched()
	}
}

// get returns the raw count.
func (p *pinCount) get() int32 { return p.n.Load() }
