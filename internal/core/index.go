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

// newTree wraps btree.Open. The buffer pool itself is the OptEnv; stats
// aggregate engine-wide. Which latch policy an operation runs under is
// decided per call (Index.access), not per tree.
func (e *Engine) newTree(store uint32, root page.ID) *btree.Tree {
	return btree.Open(btreeEnv{e}, e.pool, &e.olc, store, root)
}

// Index is a B-tree index handle: a single tree, or — under PLP — a
// forest of per-routing-key segment trees in one store.
type Index struct {
	tree  *btree.Tree
	store uint32
	// segs holds a PLP forest's segment trees indexed by routing key - 1
	// (nil for an unpartitioned index). Segment identity is fixed at
	// creation; only partition ownership of routing keys moves.
	segs []*btree.Tree
	// shared is the latch policy of callers that are not the segment's
	// owner: Optimistic from StageFinal on and always for a forest,
	// otherwise Latched.
	shared btree.Access
}

// newIndex builds the handle for store over its tree (segs nil) or its
// forest.
func (e *Engine) newIndex(store uint32, tree *btree.Tree, segs []*btree.Tree) *Index {
	return &Index{tree: tree, store: store, segs: segs, shared: e.sharedAccess(segs != nil)}
}

// sharedAccess is the latch policy for index callers that do not own the
// tree they operate on. The stages before StageFinal keep the latched
// descent as the paper ran it; btree.Optimistic itself falls back to it
// after bounded restarts.
func (e *Engine) sharedAccess(forest bool) btree.Access {
	if e.cfg.Stage >= StageFinal || forest {
		return btree.Optimistic
	}
	return btree.Latched
}

// Store returns the index's store id.
func (ix *Index) Store() uint32 { return ix.store }

// plpRouteKey extracts a key's 1-based routing key: its first four bytes
// big-endian (TPC-C keys lead with the warehouse id). Short keys route
// to the first segment.
func plpRouteKey(key []byte) uint32 {
	if len(key) < 4 {
		return 1
	}
	return binary.BigEndian.Uint32(key[:4])
}

// plpSegment returns the 0-based segment, of n, holding key: its routing
// key, clamped into range.
func plpSegment(key []byte, n int) int {
	rk := plpRouteKey(key)
	if rk < 1 {
		rk = 1
	}
	if int(rk) > n {
		rk = uint32(n)
	}
	return int(rk) - 1
}

// segFor returns the tree responsible for key: its segment of a forest,
// the single tree otherwise.
func (ix *Index) segFor(key []byte) *btree.Tree {
	if ix.segs == nil {
		return ix.tree
	}
	return ix.segs[plpSegment(key, len(ix.segs))]
}

// access picks the B-tree latch policy for one operation of t on ix:
// Owner for a DORA sub-transaction on a PLP forest (the partition's
// thread-local lock table already serialized conflicting key accesses,
// and the owner goroutine is the segment's only writer), otherwise the
// index's shared policy.
func (ix *Index) access(t *tx.Tx) btree.Access {
	if ix.segs != nil && t.NoLock() {
		return btree.Owner
	}
	return ix.shared
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
		want := uint32(i + 1)
		var perr error
		if err := tr.Scan(btree.Latched, nil, nil, func(k, _ []byte) bool {
			if plpRouteKey(k) != want {
				perr = fmt.Errorf("segment %d holds foreign key % x (route key %d)", i+1, k, plpRouteKey(k))
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
	tr, err := btree.Create(btreeEnv{e}, e.pool, &e.olc, t, store)
	if err != nil {
		return nil, err
	}
	if err := e.sm.SetRoot(store, tr.Root()); err != nil {
		return nil, err
	}
	return e.newIndex(store, tr, nil), nil
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
	return e.newIndex(store, e.newTree(store, root), nil), nil
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
// locks key in mode m, runs the pre-§7.7 lock-table probe, and resolves
// the tree holding key, the latch policy, and t's cursor for that tree.
func (e *Engine) lockKey(ctx context.Context, t *tx.Tx, ix *Index, key []byte, m lock.Mode) (*btree.Tree, btree.Access, *btree.Cursor, error) {
	if err := e.lockRow(ctx, t, ix.store, keyLockName(ix.store, key), m, false); err != nil {
		return nil, 0, nil, err
	}
	e.probeLockTable(t, ix.store, key)
	tr := ix.segFor(key)
	return tr, ix.access(t), t.TreeCursor(tr.Root()), nil
}

// writeKey is the prologue of an index write: ErrClosed on a closed
// engine, ErrSnapshotWrite for a snapshot transaction, then lockKey in X.
func (e *Engine) writeKey(ctx context.Context, t *tx.Tx, ix *Index, key []byte) (*btree.Tree, btree.Access, *btree.Cursor, error) {
	if e.closed.Load() {
		return nil, 0, nil, ErrClosed
	}
	if err := snapshotGuard(t); err != nil {
		return nil, 0, nil, err
	}
	return e.lockKey(ctx, t, ix, key, lock.X)
}

// IndexInsertCtx adds key→value to the index under an X key lock.
func (e *Engine) IndexInsertCtx(ctx context.Context, t *tx.Tx, ix *Index, key, value []byte) error {
	tr, a, c, err := e.writeKey(ctx, t, ix, key)
	if err != nil {
		return err
	}
	return tr.Insert(a, c, t, key, value)
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
	tr, a, c, err := e.lockKey(ctx, t, ix, key, m)
	if err != nil {
		return false, err
	}
	return tr.View(a, c, key, view)
}

// IndexUpdateCtx replaces the value for key under an X key lock.
func (e *Engine) IndexUpdateCtx(ctx context.Context, t *tx.Tx, ix *Index, key, value []byte) error {
	tr, a, c, err := e.writeKey(ctx, t, ix, key)
	if err != nil {
		return err
	}
	return tr.Update(a, c, t, key, value)
}

// IndexDeleteCtx removes key under an X key lock, returning the old value.
func (e *Engine) IndexDeleteCtx(ctx context.Context, t *tx.Tx, ix *Index, key []byte) ([]byte, error) {
	tr, a, c, err := e.writeKey(ctx, t, ix, key)
	if err != nil {
		return nil, err
	}
	return tr.Delete(a, c, t, key)
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
	return ix.scan(ix.access(t), from, to, fn)
}

// IndexScan is IndexScanCtx without a context, kept for perf/ (ROADMAP item 16).
func (e *Engine) IndexScan(t *tx.Tx, ix *Index, from, to []byte, fn func(key, value []byte) bool) error {
	return e.IndexScanCtx(context.Background(), t, ix, from, to, fn)
}

// scan runs a range scan of the index under latch policy a. A forest is
// stitched in key order: routing keys are the keys' leading four bytes,
// so ascending segments yield globally ascending keys, and only the edge
// segments need the caller's bounds.
func (ix *Index) scan(a btree.Access, from, to []byte, fn func(key, value []byte) bool) error {
	if ix.segs == nil {
		return ix.tree.Scan(a, from, to, fn)
	}
	loRK, hiRK := 1, len(ix.segs)
	if from != nil {
		if rk := int(plpRouteKey(from)); rk > loRK {
			loRK = rk
		}
	}
	if to != nil {
		if rk := int(plpRouteKey(to)); rk < hiRK {
			hiRK = rk
		}
	}
	if loRK > len(ix.segs) || hiRK < 1 {
		return nil
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
		err := ix.segs[rk-1].Scan(a, segFrom, segTo, func(k, v []byte) bool {
			stopped = !fn(k, v)
			return !stopped
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// openTreeByStore returns the tree holding key in store during rollback,
// and the latch policy to run the undo under: the key's segment when the
// store is a registered PLP forest (segment roots come from the
// segment catalog — the directory's single root slot is meaningless for a
// forest), otherwise the store's tree.
func (e *Engine) openTreeByStore(store uint32, key []byte) (*btree.Tree, btree.Access, error) {
	if m := e.plpMap.Load(); m != nil {
		if roots := m.Roots(store); roots != nil {
			return e.newTree(store, page.ID(roots[plpSegment(key, len(roots))])), e.sharedAccess(true), nil
		}
	}
	root, err := e.sm.Root(store)
	if err != nil {
		return nil, 0, err
	}
	return e.newTree(store, root), e.sharedAccess(false), nil
}
