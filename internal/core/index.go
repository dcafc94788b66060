package core

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/space"
	"repro/internal/sync2"
	"repro/internal/tx"
)

// B-tree index operations. Key-level locking follows ARIES/KVL in spirit:
// each key value maps to a lock name (via a 40-bit key hash in the row
// name's page field), locked S for probes and X for mutations.

// btreeEnv adapts the engine to btree.Env.
type btreeEnv struct{ e *Engine }

func (v btreeEnv) Fix(pid page.ID, mode sync2.LatchMode) (*buffer.Frame, error) {
	return v.e.pool.Fix(pid, mode)
}

func (v btreeEnv) FixNew(pid page.ID) (*buffer.Frame, error) { return v.e.pool.FixNew(pid) }

func (v btreeEnv) Unfix(f *buffer.Frame, mode sync2.LatchMode) { v.e.pool.Unfix(f, mode) }

func (v btreeEnv) AllocPage(store uint32) (page.ID, error) {
	return v.e.sm.AllocPage(store, nil)
}

// Log logs for the transaction the engine handed the tree: every
// btree.Txn the engine passes is a *tx.Tx.
func (v btreeEnv) Log(t btree.Txn, f *buffer.Frame, op pageop.Op, undo pageop.Logical) error {
	return v.e.logPhysical(t.(*tx.Tx), f, op, undo, undo.Kind == pageop.LogicalNone)
}

// treeRole is what a tree the engine opens serves; it alone decides how
// the tree descends and which counters it moves (treeEnv).
type treeRole uint8

const (
	sharedTree  treeRole = iota // a store's single tree
	forestSeg                   // a segment behind a PLP forest's Index, driven by its partition's owner
	rollbackSeg                 // a segment opened by rollback (openTreeByStore)
)

// treeEnv is how every tree the engine opens descends, decided once for
// the five places that build one: optimistically, with the buffer pool as
// its OptEnv, from StageFinal on and always for a PLP segment; latched
// otherwise, the descent of the paper's stages before it. A forest's
// segments count into e.segOLC (EngineStats.Btree's Owner counters);
// every other tree, a segment opened for rollback included, into e.olc.
func (e *Engine) treeEnv(r treeRole) (btree.OptEnv, *btree.OLCStats) {
	switch {
	case r == forestSeg:
		return e.pool, &e.segOLC
	case r == rollbackSeg || e.cfg.Stage >= StageFinal:
		return e.pool, &e.olc
	}
	return nil, &e.olc
}

// newTree opens store's tree at root in role r.
func (e *Engine) newTree(store uint32, root page.ID, r treeRole) *btree.Tree {
	opt, stats := e.treeEnv(r)
	return btree.Open(btreeEnv{e}, opt, stats, store, root)
}

// createTree allocates a new tree for store in role r inside t.
func (e *Engine) createTree(t *tx.Tx, store uint32, r treeRole) (*btree.Tree, error) {
	opt, stats := e.treeEnv(r)
	return btree.Create(btreeEnv{e}, opt, stats, t, store)
}

// Index is a B-tree index handle: a single tree, or — under PLP — a
// forest of per-routing-key segment trees in one store.
type Index struct {
	tree  *btree.Tree
	store uint32
	// segs holds a PLP forest's segment trees indexed by routing key - 1
	// (nil for an unpartitioned index), fixed at creation.
	segs []*btree.Tree
}

// Store returns the index's store id.
func (ix *Index) Store() uint32 { return ix.store }

// plpRoute is a key's routing key: its first four bytes big-endian
// (TPC-C keys lead with the warehouse id), zero-padded when it is shorter.
// A key routed below a scan bound's sorts below the bound, a key routed
// above it sorts at or above.
func plpRoute(key []byte) int {
	var rk [4]byte
	copy(rk[:], key)
	return int(binary.BigEndian.Uint32(rk[:]))
}

// plpSegment returns the 0-based segment, of n, holding key, or an error
// naming the key and the keyspace when key has no segment: it is shorter
// than its routing key, or routes outside 1..n.
func plpSegment(key []byte, n int) (int, error) {
	rk := plpRoute(key)
	switch {
	case len(key) < 4:
		return 0, fmt.Errorf("core: key % x is shorter than the 4-byte routing key of a PLP index (keyspace 1..%d)", key, n)
	case rk < 1 || rk > n:
		return 0, fmt.Errorf("core: key % x has routing key %d, outside the PLP keyspace 1..%d", key, rk, n)
	}
	return rk - 1, nil
}

// segFor returns the tree responsible for key: its segment of a forest,
// the single tree otherwise.
func (ix *Index) segFor(key []byte) (*btree.Tree, error) {
	if ix.segs == nil {
		return ix.tree, nil
	}
	i, err := plpSegment(key, len(ix.segs))
	if err != nil {
		return nil, err
	}
	return ix.segs[i], nil
}

// Verify checks the index's structural invariants (entry ordering, high
// keys, level consistency, leaf chains) and returns its key count. For a
// forest it verifies every segment and additionally checks that each
// segment holds only keys carrying its routing prefix. Meant for tests
// and offline integrity checks; it latches node by node.
func (ix *Index) Verify() (int, error) {
	if ix.segs == nil {
		return ix.tree.Verify()
	}
	total := 0
	for i, tr := range ix.segs {
		n, err := tr.Verify()
		if err != nil {
			return total, fmt.Errorf("segment %d: %w", i+1, err)
		}
		var perr error
		if err := tr.Scan(nil, nil, func(k, _ []byte) bool {
			if seg, err := plpSegment(k, len(ix.segs)); err != nil || seg != i {
				perr = fmt.Errorf("segment %d holds foreign key % x", i+1, k)
				return false
			}
			return true
		}); err != nil {
			return total, err
		}
		if perr != nil {
			return total, perr
		}
		total += n
	}
	return total, nil
}

// Root returns the index's root page (the first segment's, for a forest).
func (ix *Index) Root() page.ID { return ix.tree.Root() }

// CreateIndex allocates a new B-tree index inside transaction t.
func (e *Engine) CreateIndex(t *tx.Tx) (*Index, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := snapshotGuard(t); err != nil {
		return nil, err
	}
	store := e.sm.CreateStore(space.KindBTree)
	tr, err := e.createTree(t, store, sharedTree)
	if err != nil {
		return nil, err
	}
	if err := e.sm.SetRoot(store, tr.Root()); err != nil {
		return nil, err
	}
	return &Index{tree: tr, store: store}, nil
}

// OpenIndex attaches to an existing index by store id — as a forest
// when the PLP segment catalog has the store registered.
func (e *Engine) OpenIndex(store uint32) (*Index, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if m := e.plpMap.Load(); m != nil {
		if roots := m.Roots(store); roots != nil {
			return e.plpForest(store, roots), nil
		}
	}
	root, err := e.sm.Root(store)
	if err != nil {
		return nil, err
	}
	return &Index{tree: e.newTree(store, root, sharedTree), store: store}, nil
}

// keyLockName maps an index key to its lock name (key-value locking).
func keyLockName(store uint32, key []byte) lock.Name {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	// Row names carry page+slot; fold the key hash into them.
	return lock.RowName(store, page.RID{Page: page.ID(h & 0xffffffffff), Slot: uint16(h >> 48)})
}

// probeLockTable is the pre-§7.7 wasted work: every B-tree probe searched
// the lock table even when the answer was not needed.
func (e *Engine) probeLockTable(t *tx.Tx, store uint32, key []byte) {
	if e.cfg.Stage.ProbesLockTable() {
		_ = e.locks.Holds(t.ID(), keyLockName(store, key))
	}
}

// lockKey is the prologue of every locked point operation of t on ix: it
// resolves the tree holding key, locks key in mode m, runs the pre-§7.7
// lock-table probe, and returns the tree with t's cursor for it.
func (e *Engine) lockKey(ctx context.Context, t *tx.Tx, ix *Index, key []byte, m lock.Mode) (*btree.Tree, *btree.Cursor, error) {
	tr, err := ix.segFor(key)
	if err != nil {
		return nil, nil, err
	}
	if err := e.lockRow(ctx, t, ix.store, keyLockName(ix.store, key), m, false); err != nil {
		return nil, nil, err
	}
	e.probeLockTable(t, ix.store, key)
	return tr, t.TreeCursor(tr.Root()), nil
}

// writeKey is the prologue of an index write: ErrClosed on a closed
// engine, ErrSnapshotWrite for a snapshot transaction, then lockKey in X.
func (e *Engine) writeKey(ctx context.Context, t *tx.Tx, ix *Index, key []byte) (*btree.Tree, *btree.Cursor, error) {
	if e.closed.Load() {
		return nil, nil, ErrClosed
	}
	if err := snapshotGuard(t); err != nil {
		return nil, nil, err
	}
	return e.lockKey(ctx, t, ix, key, lock.X)
}

// IndexInsertCtx adds key→value to the index under an X key lock.
func (e *Engine) IndexInsertCtx(ctx context.Context, t *tx.Tx, ix *Index, key, value []byte) error {
	tr, c, err := e.writeKey(ctx, t, ix, key)
	if err != nil {
		return err
	}
	return tr.Insert(c, t, key, value)
}

// IndexInsert is IndexInsertCtx without a context, kept for perf/ (ROADMAP item 16).
func (e *Engine) IndexInsert(t *tx.Tx, ix *Index, key, value []byte) error {
	return e.IndexInsertCtx(context.Background(), t, ix, key, value)
}

// IndexLookupCtx probes the index under an S key lock, returning a copy
// of the value.
func (e *Engine) IndexLookupCtx(ctx context.Context, t *tx.Tx, ix *Index, key []byte) ([]byte, bool, error) {
	return e.indexLookup(ctx, t, ix, key, lock.S)
}

// IndexLookupForUpdateCtx probes the index under an X key lock — SELECT
// FOR UPDATE. Transactions that read a key intending to write it back
// later must use this instead of IndexLookupCtx: two transactions that
// both S-lock a key and then upgrade to X deadlock on each other, and
// the wider the read-to-write window (a served client's round trip, a
// user think time) the more certain the collision. Taking X up front
// serializes read-modify-write cycles on the key instead.
func (e *Engine) IndexLookupForUpdateCtx(ctx context.Context, t *tx.Tx, ix *Index, key []byte) ([]byte, bool, error) {
	return e.indexLookup(ctx, t, ix, key, lock.X)
}

// indexLookup is IndexView returning a copy the caller owns. A snapshot
// read resolves to one already.
func (e *Engine) indexLookup(ctx context.Context, t *tx.Tx, ix *Index, key []byte, m lock.Mode) (val []byte, found bool, err error) {
	if !e.closed.Load() && m == lock.S && t.IsSnapshot() {
		return e.indexLookupSnapshot(t, ix, key)
	}
	found, err = e.IndexView(ctx, t, ix, key, m, func(v []byte) { val = append(val[:0:0], v...) })
	if !found {
		val = nil
	}
	return val, found, err
}

// IndexView probes the index under a key lock in mode m (S, or X as
// IndexLookupForUpdateCtx takes it) and calls view with the value. view
// sees the leaf's bytes, valid only inside the call: it copies what it
// keeps, into t's arena for instance (the point read of a transaction's
// own executor), and may run more than once, the last call counting; when
// the key is absent found is false and whatever view copied is moot.
func (e *Engine) IndexView(ctx context.Context, t *tx.Tx, ix *Index, key []byte, m lock.Mode, view func(v []byte)) (found bool, err error) {
	if e.closed.Load() {
		return false, ErrClosed
	}
	if t.IsSnapshot() {
		if m != lock.S {
			return false, ErrSnapshotWrite
		}
		v, found, err := e.indexLookupSnapshot(t, ix, key)
		if found {
			view(v)
		}
		return found, err
	}
	tr, c, err := e.lockKey(ctx, t, ix, key, m)
	if err != nil {
		return false, err
	}
	return tr.View(c, key, view)
}

// IndexUpdateCtx replaces the value for key under an X key lock.
func (e *Engine) IndexUpdateCtx(ctx context.Context, t *tx.Tx, ix *Index, key, value []byte) error {
	tr, c, err := e.writeKey(ctx, t, ix, key)
	if err != nil {
		return err
	}
	return tr.Update(c, t, key, value)
}

// IndexDeleteCtx removes key under an X key lock, returning the old value.
func (e *Engine) IndexDeleteCtx(ctx context.Context, t *tx.Tx, ix *Index, key []byte) ([]byte, error) {
	tr, c, err := e.writeKey(ctx, t, ix, key)
	if err != nil {
		return nil, err
	}
	return tr.Delete(c, t, key)
}

// IndexScanCtx iterates keys in [from, to) under a store-level S lock,
// calling fn with copies of each pair.
func (e *Engine) IndexScanCtx(ctx context.Context, t *tx.Tx, ix *Index, from, to []byte, fn func(key, value []byte) bool) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if t.IsSnapshot() {
		return e.indexScanSnapshot(t, ix, from, to, fn)
	}
	if err := e.acquire(ctx, t, lock.DatabaseName(), lock.IS, false); err != nil {
		return err
	}
	if err := e.acquire(ctx, t, lock.StoreName(ix.store), lock.S, false); err != nil {
		return err
	}
	return ix.scan(from, to, fn)
}

// IndexScan is IndexScanCtx without a context, kept for perf/ (ROADMAP item 16).
func (e *Engine) IndexScan(t *tx.Tx, ix *Index, from, to []byte, fn func(key, value []byte) bool) error {
	return e.IndexScanCtx(context.Background(), t, ix, from, to, fn)
}

// scan runs a range scan of the index. A forest is
// stitched in key order: routing keys are the keys' leading four bytes,
// so ascending segments yield globally ascending keys, and only the edge
// segments need the caller's bounds.
func (ix *Index) scan(from, to []byte, fn func(key, value []byte) bool) error {
	if ix.segs == nil {
		return ix.tree.Scan(from, to, fn)
	}
	loRK, hiRK := 1, len(ix.segs)
	if from != nil {
		loRK = max(loRK, plpRoute(from))
	}
	if to != nil {
		hiRK = min(hiRK, plpRoute(to))
	}
	stopped := false
	for rk := loRK; rk <= hiRK && !stopped; rk++ {
		segFrom, segTo := from, to
		if rk > loRK {
			segFrom = nil
		}
		if rk < hiRK {
			segTo = nil
		}
		err := ix.segs[rk-1].Scan(segFrom, segTo, func(k, v []byte) bool {
			stopped = !fn(k, v)
			return !stopped
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// openTreeByStore returns the tree holding key in store during rollback:
// the key's segment when the store is a registered PLP forest (segment
// roots come from the segment catalog — the directory's single root slot
// is meaningless for a forest), otherwise the store's tree.
func (e *Engine) openTreeByStore(store uint32, key []byte) (*btree.Tree, error) {
	if m := e.plpMap.Load(); m != nil {
		if roots := m.Roots(store); roots != nil {
			i, err := plpSegment(key, len(roots))
			if err != nil {
				return nil, err
			}
			return e.newTree(store, page.ID(roots[i]), rollbackSeg), nil
		}
	}
	root, err := e.sm.Root(store)
	if err != nil {
		return nil, err
	}
	return e.newTree(store, root, sharedTree), nil
}
