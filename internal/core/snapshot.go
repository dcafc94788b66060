package core

// Snapshot (multiversion) read path: read-only transactions that never
// touch the lock manager. A snapshot transaction pins the durable log
// horizon at begin (clamped below any commit mid-publication) and reads
// every row and index key as of that LSN by combining the current page
// image with the before-images writers install in the engine's version
// store (see internal/mvcc). Correctness leans on latch ordering: writers
// install an entry BEFORE applying the page change under the page EX
// latch, and readers resolve AFTER reading the page under SH (or a
// validated optimistic read) — so any write visible in a page image is
// guaranteed to have its chain entry visible too.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/mvcc"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/sync2"
	"repro/internal/tx"
)

// Errors of the snapshot path.
var (
	// ErrNoSnapshot is returned by BeginSnapshot when Config.Snapshot is off.
	ErrNoSnapshot = errors.New("core: snapshot reads not enabled (Config.Snapshot)")
	// ErrSnapshotWrite rejects any update attempted by a snapshot transaction.
	ErrSnapshotWrite = errors.New("core: snapshot transaction is read-only")
)

// BeginSnapshot starts a multiversion read-only transaction: no begin
// record, no locks, no log chain. Its snapshot LSN is the durable horizon
// (every commit stamped below it is fully on disk), pinned in the version
// store so GC retains what it may still read. The pinned value is an
// exclusive bound — DurableLSN is the end boundary of the flushed log, so
// a stamp equal to it is itself durable and must be admitted, hence the
// +1 against the strict stamp < S visibility test.
func (e *Engine) BeginSnapshot(ctx context.Context) (*tx.Tx, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.mvcc == nil {
		return nil, ErrNoSnapshot
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	t := e.txns.BeginSnapshot()
	t.SetSnapshotLSN(e.mvcc.Pin(uint64(e.log.DurableLSN()) + 1))
	return t, nil
}

// RunViewCtx runs fn inside a managed read-only transaction. With
// snapshot reads enabled the closure runs exactly once on a lock-free
// snapshot transaction — it cannot deadlock, so there is no retry policy
// to apply. Without them it falls back to the classic S-locked read-only
// path under the usual deadlock retry.
func (e *Engine) RunViewCtx(ctx context.Context, policy RetryPolicy, fn func(*tx.Tx) error) error {
	if e.mvcc == nil {
		return e.RunCtx(ctx, policy, fn, e.CommitReadOnly)
	}
	t, err := e.BeginSnapshot(ctx)
	if err != nil {
		return err
	}
	if err := fn(t); err != nil {
		if t.State() == tx.StateActive {
			_ = e.Abort(t)
		}
		return err
	}
	return e.CommitReadOnly(ctx, t)
}

// snapshotGuard rejects write operations on snapshot transactions. The
// snapshot path must never fall through to the locking write paths: a
// snapshot transaction holds no locks, so its writes would be unserialized.
func snapshotGuard(t *tx.Tx) error {
	if t.IsSnapshot() {
		return ErrSnapshotWrite
	}
	return nil
}

// heapVersionKey is the version-store key of one heap slot.
func heapVersionKey(pid page.ID, slot uint16) []byte {
	var k [10]byte
	binary.LittleEndian.PutUint64(k[:], uint64(pid))
	binary.LittleEndian.PutUint16(k[8:], slot)
	return k[:]
}

// installVersion records the before-image of a forward page update in the
// version store, stamped by the writing transaction. Called by
// logPhysical after the log insert and before the page apply, under the
// page's EX latch: the whole before-image is still in op's slot, and it is
// copied from there — the log record holds only the bytes that change.
// logPhysical has checked that the slot holds a record, and the tree has
// decoded it, so neither read can fail. B-tree key mutations are known by
// their logical undo descriptor; structure modifications (splits) log
// redo-only and install nothing.
func (e *Engine) installVersion(t *tx.Tx, f *buffer.Frame, op pageop.Op, l pageop.Logical) {
	p := f.Page()
	switch {
	case l.Kind == pageop.LogicalBTreeDelete: // undo of insert: key was absent before
		e.mvcc.Install(mvcc.KindIndex, l.Store, l.Key, nil, false, t.EnsureStamp())
	case l.Kind != pageop.LogicalNone: // update or delete: the entry still holds the old value
		rec, _ := p.Record(int(op.Slot))
		val, _ := btree.LeafValue(rec)
		e.mvcc.Install(mvcc.KindIndex, l.Store, l.Key, append([]byte(nil), val...), true, t.EnsureStamp())
	case p.Type() != page.TypeHeap:
	case op.Kind == pageop.KindHeapInsert: // slot was free (or tombstoned) before
		e.mvcc.Install(mvcc.KindHeap, p.Store(), heapVersionKey(f.PID(), op.Slot), nil, false, t.EnsureStamp())
	case op.Kind == pageop.KindPatch, op.Kind == pageop.KindHeapDelete:
		rec, _ := p.Record(int(op.Slot))
		e.mvcc.Install(mvcc.KindHeap, p.Store(), heapVersionKey(f.PID(), op.Slot), append([]byte(nil), rec...), true, t.EnsureStamp())
	}
}

// heapReadSnapshot resolves one record as of t's snapshot: page image
// under a short SH latch, then the version chain. A RID off store's heap
// pages has neither, so it answers ErrNoRecord.
func (e *Engine) heapReadSnapshot(t *tx.Tx, store uint32, rid page.RID) ([]byte, error) {
	e.mvcc.CountRead()
	f, err := e.pool.Fix(rid.Page, sync2.LatchSH)
	if err != nil {
		return nil, err
	}
	var cur []byte
	exists := false
	if rec, ok := heapRecord(f.Page(), store, rid.Slot); ok {
		cur = append([]byte(nil), rec...)
		exists = true
	}
	e.pool.Unfix(f, sync2.LatchSH)
	val, ok := e.mvcc.Resolve(mvcc.KindHeap, store, heapVersionKey(rid.Page, rid.Slot),
		t.SnapshotLSN(), cur, exists)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	return append([]byte(nil), val...), nil
}

// heapScanSnapshot iterates the table as of t's snapshot. Unlike the
// locked scan it enumerates tombstoned slots too: a record deleted after
// the snapshot exists only as a version entry hanging off its (now empty)
// slot. Slots are never unallocated and pages never leave the store, so
// the page×slot sweep covers every record the snapshot can see.
func (e *Engine) heapScanSnapshot(t *tx.Tx, store uint32, fn func(rid page.RID, rec []byte) bool) error {
	e.mvcc.CountScan()
	snap := t.SnapshotLSN()
	pids, err := e.sm.Pages(store)
	if err != nil {
		return err
	}
	type slotImg struct {
		rid    page.RID
		rec    []byte
		exists bool
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
		n := p.NumSlots()
		batch := make([]slotImg, 0, n)
		keys := make([][]byte, 0, n)
		keyBuf := make([]byte, 10*n) // one allocation backs every version key
		for i := 0; i < n; i++ {
			it := slotImg{rid: page.RID{Page: pid, Slot: uint16(i)}}
			if rec, rerr := p.Record(i); rerr == nil {
				it.rec = append([]byte(nil), rec...)
				it.exists = true
			}
			batch = append(batch, it)
			k := keyBuf[i*10 : i*10+10]
			binary.LittleEndian.PutUint64(k, uint64(pid))
			binary.LittleEndian.PutUint16(k[8:], uint16(i))
			keys = append(keys, k)
		}
		e.pool.Unfix(f, sync2.LatchSH)
		// One locked pass grabs the page's chains; resolution itself is
		// lock-free, so the whole batch costs one version-store round-trip.
		chains := e.mvcc.ChainsFor(mvcc.KindHeap, store, keys)
		var noChain mvcc.Chain
		for i, it := range batch {
			if chains == nil || chains[i] == noChain {
				// No versions: the batch copy is already private, hand it out.
				if it.exists && !fn(it.rid, it.rec) {
					return nil
				}
				continue
			}
			val, ok := chains[i].Resolve(snap, it.rec, it.exists)
			if !ok {
				continue
			}
			if !fn(it.rid, append([]byte(nil), val...)) {
				return nil
			}
		}
	}
	return nil
}

// indexLookupSnapshot probes the index as of t's snapshot: the leaf read
// the index's shared latch policy gives (pin-free under Optimistic), then
// chain resolution.
func (e *Engine) indexLookupSnapshot(t *tx.Tx, ix *Index, key []byte) ([]byte, bool, error) {
	e.mvcc.CountRead()
	cur, found, err := ix.segFor(key).Search(ix.access(t), nil, key)
	if err != nil {
		return nil, false, err
	}
	val, ok := e.mvcc.Resolve(mvcc.KindIndex, ix.store, key, t.SnapshotLSN(), cur, found)
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), val...), true, nil
}

// indexScanSnapshot iterates [from, to) as of t's snapshot. The tree scan
// only yields keys currently present, so keys deleted after the snapshot
// must be resurrected from the version store. They are merged in chunks:
// after the scan has read the leaves covering a key range, every
// versioned key in that range is fetched and merge-sorted in — reading
// the leaves first matters, because a delete that beat the scan to a leaf
// has (by install-before-apply under the leaf latch) already published
// its version entry. Keys yielded by either side resolve through the
// chain as usual; over-approximation is harmless since resolution filters
// anything invisible.
func (e *Engine) indexScanSnapshot(t *tx.Tx, ix *Index, from, to []byte, fn func(key, value []byte) bool) error {
	e.mvcc.CountScan()
	snap := t.SnapshotLSN()
	const chunkSize = 128
	type kv struct{ k, v []byte }
	var (
		buf     []kv
		lo      = from // lower bound of the next versioned-key query
		stopped bool
	)
	emit := func(key, cur []byte, curExists bool) bool {
		val, ok := e.mvcc.Resolve(mvcc.KindIndex, ix.store, key, snap, cur, curExists)
		if !ok {
			return true // absent as of the snapshot: skip, keep scanning
		}
		return fn(key, append([]byte(nil), val...))
	}
	// flush merges the buffered tree entries with versioned keys in
	// [lo, hiExcl) — tree entry wins on an equal key (same chain either way).
	flush := func(hiExcl []byte) bool {
		extras := e.mvcc.KeysInRange(ix.store, lo, hiExcl)
		j := 0
		for _, it := range buf {
			for j < len(extras) {
				c := bytes.Compare(extras[j], it.k)
				if c >= 0 {
					if c == 0 {
						j++
					}
					break
				}
				if !emit(extras[j], nil, false) {
					return false
				}
				j++
			}
			if !emit(it.k, it.v, true) {
				return false
			}
		}
		for ; j < len(extras); j++ {
			if !emit(extras[j], nil, false) {
				return false
			}
		}
		buf = buf[:0]
		return true
	}
	// A PLP forest scans in global key order (routing keys are the leading
	// key bytes), so the chunked version merge is oblivious to partitioning.
	err := ix.scan(ix.access(t), from, to, func(k, v []byte) bool {
		buf = append(buf, kv{k, v})
		if len(buf) >= chunkSize {
			// Just past the last buffered key: the smallest possible
			// exclusive bound that still covers everything buffered.
			hi := append(append([]byte(nil), buf[len(buf)-1].k...), 0)
			if !flush(hi) {
				stopped = true
				return false
			}
			lo = hi
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	flush(to) // tail: remaining entries + versioned keys up to the bound
	return nil
}
