package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/space"
	"repro/internal/sync2"
	"repro/internal/tx"
)

// Heap-table operations: the record-insert microbenchmark path, exercising
// the free-space manager (page targeting, the §6.2.2 membership check),
// buffer pool, log manager and lock manager together.

// ErrNoRecord is returned when a RID does not name a live record.
var ErrNoRecord = errors.New("core: no such record")

// MaxRecord bounds heap record size.
const MaxRecord = page.MaxRecordSize / 2

// CreateTable registers a new heap store inside transaction t, mirroring
// CreateIndex's shape. Like index creation, store registration itself is
// NOT transactional: the store id is allocated immediately and is not
// reclaimed if t aborts, and neither is the table's first page: restart
// finds stores by their page headers (rebuildDirectory), so the page is
// formatted here under t, as an index's root is, and a committed empty
// table survives a restart and keeps its id.
func (e *Engine) CreateTable(t *tx.Tx) (uint32, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if t == nil || t.State() != tx.StateActive {
		return 0, fmt.Errorf("core: CreateTable requires an active transaction")
	}
	if err := snapshotGuard(t); err != nil {
		return 0, err
	}
	store := e.sm.CreateStore(space.KindHeap)
	f, _, err := e.allocHeapPage(t, store, 0)
	if err != nil {
		return 0, err
	}
	e.pool.Unfix(f, sync2.LatchEX)
	return store, nil
}

// freeSlot returns the slot an insert into f's page would use: the first
// tombstone at or above the frame's free-slot hint, or the next directory
// position. The hint makes slot choice O(1) amortized instead of a full
// O(slots) tombstone scan per insert: inserts advance it past the slot
// they claim, deletes lower it, and the pool resets it when the frame
// changes pages. It is only ever a scan start — every returned slot is
// verified free right here — so a stale hint costs reuse, not
// correctness (recovery and rollback tombstone slots without updating
// it).
func freeSlot(f *buffer.Frame) uint16 {
	p := f.Page()
	n := p.NumSlots()
	start := int(f.SlotHint())
	if start > n {
		start = n
	}
	for i := start; i < n; i++ {
		if _, err := p.Record(i); err != nil {
			return uint16(i)
		}
	}
	return uint16(n)
}

// allocHeapPage extends store past page full (0: none) through the space
// manager's Extend. A fresh page comes back formatted, EX-latched and
// pinned; with Space.LatchInCS its fix happens inside the allocation
// critical section (the Figure 6 pathology), otherwise after it. A nil
// frame means another inserter extended the store first: its page is the
// hint to retry on.
func (e *Engine) allocHeapPage(t *tx.Tx, store uint32, full page.ID) (*buffer.Frame, page.ID, error) {
	var f *buffer.Frame
	pid, err := e.sm.Extend(store, full, &t.ExtentCache, func(p page.ID) (err error) {
		f, err = e.pool.FixNew(p)
		return err
	}, func(page.ID) error {
		op := pageop.Op{Kind: pageop.KindFormat, PType: page.TypeHeap, Store: store}
		err := e.logPhysical(t, f, op, pageop.Logical{}, true)
		if err != nil {
			e.pool.Unfix(f, sync2.LatchEX)
		}
		return err
	})
	return f, pid, err
}

// HeapInsertCtx appends data to the table, returning its RID. The new
// row is locked X through lockRow (intents, escalation) without waiting,
// under the page latch; on a conflict the latch is released and the lock
// awaited before retrying.
func (e *Engine) HeapInsertCtx(ctx context.Context, t *tx.Tx, store uint32, data []byte) (page.RID, error) {
	if e.closed.Load() {
		return page.RID{}, ErrClosed
	}
	if err := snapshotGuard(t); err != nil {
		return page.RID{}, err
	}
	if len(data) == 0 || len(data) > MaxRecord {
		return page.RID{}, fmt.Errorf("core: record size %d out of range", len(data))
	}
	for attempt := 0; attempt < 1000; attempt++ {
		pid, err := e.sm.LastPage(store)
		if err != nil {
			return page.RID{}, err
		}
		var f *buffer.Frame
		if pid != 0 {
			// §6.2.2: verify the target page belongs to this table, via the
			// per-transaction extent cache when enabled.
			if err := e.sm.CheckPage(store, pid, &t.ExtentCache); err != nil {
				return page.RID{}, err
			}
			f, err = e.pool.Fix(pid, sync2.LatchEX)
			if err != nil {
				return page.RID{}, err
			}
			if p := f.Page(); p.Type() != page.TypeHeap || p.Store() != store {
				// The hint is read without the space mutex, so it can name a
				// page that is not (or no longer) this table's heap page.
				// Never write to it — retry on a fresh hint.
				e.pool.Unfix(f, sync2.LatchEX)
				continue
			}
			if !f.Page().CanFit(len(data)) {
				e.pool.Unfix(f, sync2.LatchEX)
				f = nil
			}
		}
		if f == nil {
			if f, pid, err = e.allocHeapPage(t, store, pid); err != nil {
				return page.RID{}, err
			}
			if f == nil {
				continue // another inserter's page: re-check it under its latch
			}
		}
		slot := freeSlot(f)
		rid := page.RID{Page: pid, Slot: slot}
		if err := e.lockRow(ctx, t, store, lock.RowName(store, rid), lock.X, true); err != nil {
			e.pool.Unfix(f, sync2.LatchEX)
			if !errors.Is(err, lock.ErrWouldBlock) {
				return page.RID{}, err
			}
			// Wait without the latch, keep the lock (2PL), retry the slot
			// choice from scratch.
			if err := e.lockRow(ctx, t, store, lock.RowName(store, rid), lock.X, false); err != nil {
				return page.RID{}, err
			}
			continue
		}
		op := pageop.Op{Kind: pageop.KindHeapInsert, Slot: slot, Data: data}
		err = e.logPhysical(t, f, op, pageop.Logical{}, false)
		if err == nil {
			f.SetSlotHint(slot + 1) // every slot below is now occupied
		}
		e.pool.Unfix(f, sync2.LatchEX)
		if err != nil {
			return page.RID{}, err
		}
		return rid, nil
	}
	return page.RID{}, fmt.Errorf("core: heap insert could not claim a slot after many retries")
}

// heapRecord returns the live record in slot of p when p is a heap page
// of store. A RID comes from the caller, over the wire too, so it may
// name any page: an index node's entries and another table's rows are
// not records of store.
func heapRecord(p *page.Page, store uint32, slot uint16) ([]byte, bool) {
	if p.Type() != page.TypeHeap || p.Store() != store {
		return nil, false
	}
	rec, err := p.Record(int(slot))
	return rec, err == nil
}

// onVolume refuses, with ErrNoRecord, a RID whose page is not on the
// volume (pages are numbered 1 to NumPages): the invalid page or one past
// the end names no record, and fixing it would answer a buffer or device
// error instead.
func (e *Engine) onVolume(rid page.RID) error {
	if rid.Page == page.InvalidID || uint64(rid.Page) > e.vol.NumPages() {
		return fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	return nil
}

// heapRow is the prologue of a locked row operation of t on rid: a RID
// off the volume refused, the row lock in mode m, then rid's page fixed
// SH for S and EX for X, and the record heapRecord finds there, or
// ErrNoRecord. The caller unfixes f.
func (e *Engine) heapRow(ctx context.Context, t *tx.Tx, store uint32, rid page.RID, m lock.Mode) (*buffer.Frame, []byte, error) {
	if err := e.onVolume(rid); err != nil {
		return nil, nil, err
	}
	if err := e.lockRow(ctx, t, store, lock.RowName(store, rid), m, false); err != nil {
		return nil, nil, err
	}
	latch := sync2.LatchSH
	if m == lock.X {
		latch = sync2.LatchEX
	}
	f, err := e.pool.Fix(rid.Page, latch)
	if err != nil {
		return nil, nil, err
	}
	rec, ok := heapRecord(f.Page(), store, rid.Slot)
	if !ok {
		e.pool.Unfix(f, latch)
		return nil, nil, fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	return f, rec, nil
}

// HeapReadCtx returns a copy of the record at rid under an S row lock.
func (e *Engine) HeapReadCtx(ctx context.Context, t *tx.Tx, store uint32, rid page.RID) ([]byte, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if t.IsSnapshot() {
		return e.heapReadSnapshot(t, store, rid)
	}
	f, rec, err := e.heapRow(ctx, t, store, rid, lock.S)
	if err != nil {
		return nil, err
	}
	defer e.pool.Unfix(f, sync2.LatchSH)
	return append([]byte(nil), rec...), nil
}

// HeapUpdateCtx replaces the record at rid under an X row lock.
func (e *Engine) HeapUpdateCtx(ctx context.Context, t *tx.Tx, store uint32, rid page.RID, data []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if err := snapshotGuard(t); err != nil {
		return err
	}
	if len(data) == 0 || len(data) > MaxRecord {
		return fmt.Errorf("core: record size %d out of range", len(data))
	}
	f, old, err := e.heapRow(ctx, t, store, rid, lock.X)
	if err != nil {
		return err
	}
	defer e.pool.Unfix(f, sync2.LatchEX)
	return e.logPhysical(t, f, pageop.Patch(rid.Slot, 0, old, data), pageop.Logical{}, false)
}

// HeapDeleteCtx removes the record at rid under an X row lock. The slot
// is tombstoned; its RID may be reused after the transaction commits.
func (e *Engine) HeapDeleteCtx(ctx context.Context, t *tx.Tx, store uint32, rid page.RID) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if err := snapshotGuard(t); err != nil {
		return err
	}
	f, old, err := e.heapRow(ctx, t, store, rid, lock.X)
	if err != nil {
		return err
	}
	defer e.pool.Unfix(f, sync2.LatchEX)
	op := pageop.Op{Kind: pageop.KindHeapDelete, Slot: rid.Slot, Old: old}
	if err := e.logPhysical(t, f, op, pageop.Logical{}, false); err != nil {
		return err
	}
	f.LowerSlotHint(rid.Slot) // the tombstoned slot is reusable again
	return nil
}

// HeapScan is HeapScanCtx without a context, kept for perf/ (ROADMAP item 16).
func (e *Engine) HeapScan(t *tx.Tx, store uint32, fn func(rid page.RID, rec []byte) bool) error {
	return e.HeapScanCtx(context.Background(), t, store, fn)
}

// HeapScanCtx iterates every record of the table in RID order under a
// store-level S lock, calling fn with the rid and a copy of each record.
// fn returning false stops the scan.
func (e *Engine) HeapScanCtx(ctx context.Context, t *tx.Tx, store uint32, fn func(rid page.RID, rec []byte) bool) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if t.IsSnapshot() {
		return e.heapScanSnapshot(t, store, fn)
	}
	if err := e.acquire(ctx, t, lock.DatabaseName(), lock.IS, false); err != nil {
		return err
	}
	if err := e.acquire(ctx, t, lock.StoreName(store), lock.S, false); err != nil {
		return err
	}
	pids, err := e.sm.Pages(store)
	if err != nil {
		return err
	}
	type item struct {
		rid page.RID
		rec []byte
	}
	for _, pid := range pids {
		f, err := e.pool.Fix(pid, sync2.LatchSH)
		if err != nil {
			return err
		}
		p := f.Page()
		if p.Type() != page.TypeHeap {
			e.pool.Unfix(f, sync2.LatchSH)
			continue
		}
		var batch []item
		for i := 0; i < p.NumSlots(); i++ {
			rec, err := p.Record(i)
			if err != nil {
				continue // tombstone
			}
			batch = append(batch, item{
				rid: page.RID{Page: pid, Slot: uint16(i)},
				rec: append([]byte(nil), rec...),
			})
		}
		e.pool.Unfix(f, sync2.LatchSH)
		for _, it := range batch {
			if !fn(it.rid, it.rec) {
				return nil
			}
		}
	}
	return nil
}
