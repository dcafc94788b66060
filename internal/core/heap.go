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
// reclaimed if t aborts — table durability is derived from the page
// headers of the first committed insert, so an aborted creation leaves
// only an unused id behind.
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
	return e.sm.CreateStore(space.KindHeap), nil
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
		err := e.logPhysical(t.ID(), t, f, op, pageop.Logical{}, true)
		if err != nil {
			e.pool.Unfix(f, sync2.LatchEX)
		}
		return err
	})
	return f, pid, err
}

// HeapInsert appends data to the table, returning its RID. Locking
// protocol: IX on database and store, X on the new row (acquired
// conditionally under the page latch; on conflict the latch is released
// and the lock awaited before retrying).
func (e *Engine) HeapInsert(t *tx.Tx, store uint32, data []byte) (page.RID, error) {
	return e.HeapInsertCtx(context.Background(), t, store, data)
}

// HeapInsertCtx is HeapInsert whose lock waits observe ctx.
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
	if err := e.acquire(ctx, t, lock.DatabaseName(), lock.IX); err != nil {
		return page.RID{}, err
	}
	if err := e.acquire(ctx, t, lock.StoreName(store), lock.IX); err != nil {
		return page.RID{}, err
	}
	_, escalated := t.Escalated(store)

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
			f, err = e.fix(pid, sync2.LatchEX)
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
		if !escalated {
			// Conditional row lock under the latch; never wait here.
			name := lock.RowName(store, rid)
			if err := e.locks.TryLockNoWait(t.ID(), name, lock.X); err != nil {
				e.pool.Unfix(f, sync2.LatchEX)
				if errors.Is(err, lock.ErrWouldBlock) {
					// Wait without the latch, keep the lock (2PL), retry the
					// slot choice from scratch.
					if err := e.acquire(ctx, t, name, lock.X); err != nil {
						return page.RID{}, err
					}
					continue
				}
				return page.RID{}, err
			}
			t.AddLock(name, lock.X)
			if e.cfg.EscalateAfter > 0 && t.CountRowLock(store) > e.cfg.EscalateAfter {
				// Escalate to a store-level X lock. Conditional only: we
				// hold the page latch, so we must never block here.
				name := lock.StoreName(store)
				if err := e.locks.TryLockNoWait(t.ID(), name, lock.X); err == nil {
					t.AddLock(name, lock.X)
					t.MarkEscalated(store, lock.X)
					escalated = true
				}
			}
		}
		op := pageop.Op{Kind: pageop.KindHeapInsert, Slot: slot, Data: data}
		err = e.logPhysical(t.ID(), t, f, op, pageop.Logical{}, false)
		if err == nil {
			f.SetSlotHint(slot + 1) // every slot below is now occupied
		}
		e.pool.Unfix(f, sync2.LatchEX)
		if err != nil {
			return page.RID{}, err
		}
		return rid, nil
	}
	return page.RID{}, fmt.Errorf("core: HeapInsert: could not claim a slot after many retries")
}

// HeapRead returns a copy of the record at rid under an S row lock.
func (e *Engine) HeapRead(t *tx.Tx, store uint32, rid page.RID) ([]byte, error) {
	return e.HeapReadCtx(context.Background(), t, store, rid)
}

// HeapReadCtx is HeapRead whose lock waits observe ctx.
func (e *Engine) HeapReadCtx(ctx context.Context, t *tx.Tx, store uint32, rid page.RID) ([]byte, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if t != nil && t.IsSnapshot() {
		return e.heapReadSnapshot(t, store, rid)
	}
	if err := e.lockLeaf(ctx, t, store, lock.RowName(store, rid), lock.S); err != nil {
		return nil, err
	}
	f, err := e.fix(rid.Page, sync2.LatchSH)
	if err != nil {
		return nil, err
	}
	defer e.pool.Unfix(f, sync2.LatchSH)
	rec, err := f.Page().Record(int(rid.Slot))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	return append([]byte(nil), rec...), nil
}

// HeapUpdate replaces the record at rid under an X row lock.
func (e *Engine) HeapUpdate(t *tx.Tx, store uint32, rid page.RID, data []byte) error {
	return e.HeapUpdateCtx(context.Background(), t, store, rid, data)
}

// HeapUpdateCtx is HeapUpdate whose lock waits observe ctx.
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
	if err := e.lockLeaf(ctx, t, store, lock.RowName(store, rid), lock.X); err != nil {
		return err
	}
	f, err := e.fix(rid.Page, sync2.LatchEX)
	if err != nil {
		return err
	}
	defer e.pool.Unfix(f, sync2.LatchEX)
	old, err := f.Page().Record(int(rid.Slot))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	return e.logPhysical(t.ID(), t, f, pageop.Patch(rid.Slot, 0, old, data), pageop.Logical{}, false)
}

// HeapDelete removes the record at rid under an X row lock. The slot is
// tombstoned; its RID may be reused after the transaction commits.
func (e *Engine) HeapDelete(t *tx.Tx, store uint32, rid page.RID) error {
	return e.HeapDeleteCtx(context.Background(), t, store, rid)
}

// HeapDeleteCtx is HeapDelete whose lock waits observe ctx.
func (e *Engine) HeapDeleteCtx(ctx context.Context, t *tx.Tx, store uint32, rid page.RID) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if err := snapshotGuard(t); err != nil {
		return err
	}
	if err := e.lockLeaf(ctx, t, store, lock.RowName(store, rid), lock.X); err != nil {
		return err
	}
	f, err := e.fix(rid.Page, sync2.LatchEX)
	if err != nil {
		return err
	}
	defer e.pool.Unfix(f, sync2.LatchEX)
	old, err := f.Page().Record(int(rid.Slot))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	op := pageop.Op{Kind: pageop.KindHeapDelete, Slot: rid.Slot, Old: old}
	if err := e.logPhysical(t.ID(), t, f, op, pageop.Logical{}, false); err != nil {
		return err
	}
	f.LowerSlotHint(rid.Slot) // the tombstoned slot is reusable again
	return nil
}

// HeapScan iterates every record of the table in RID order under a
// store-level S lock, calling fn with the rid and a copy of each record.
// fn returning false stops the scan.
func (e *Engine) HeapScan(t *tx.Tx, store uint32, fn func(rid page.RID, rec []byte) bool) error {
	return e.HeapScanCtx(context.Background(), t, store, fn)
}

// HeapScanCtx is HeapScan whose lock waits observe ctx.
func (e *Engine) HeapScanCtx(ctx context.Context, t *tx.Tx, store uint32, fn func(rid page.RID, rec []byte) bool) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if t != nil && t.IsSnapshot() {
		return e.heapScanSnapshot(t, store, fn)
	}
	if err := e.acquire(ctx, t, lock.DatabaseName(), lock.IS); err != nil {
		return err
	}
	if err := e.acquire(ctx, t, lock.StoreName(store), lock.S); err != nil {
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
		f, err := e.fix(pid, sync2.LatchSH)
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
