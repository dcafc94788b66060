package core

// Physiological partitioning (PLP): the DORA follow-up that partitions
// the physical B-trees themselves. Every partitioned index is a forest
// of per-routing-key segment trees (one per TPC-C warehouse), and the
// DORA partition owning a routing key is the only writer that mutates
// its segments — so owner-path index operations run on validated
// speculative page images with no latch acquisition (see the Owner
// access policy in btree/btree.go for the latch-freedom argument).
//
// The segment catalog (internal/plp.Map) is the single piece of shared
// metadata: the routing keyspace size and the segment roots per store.
// It is persisted as one record in a catalog heap store with the fixed
// id 1, created at the first PLP open — so crash recovery rebuilds it
// byte-identically from ordinary heap redo/undo.
//
// Ownership is not in the catalog: dora.Executor.Route computes it from
// the partition count, under PLP as under shared-tree DORA. A reopen
// with a different partition count therefore only reads the catalog.

import (
	"context"
	"fmt"

	"repro/internal/btree"
	"repro/internal/page"
	"repro/internal/plp"
	"repro/internal/space"
	"repro/internal/sync2"
	"repro/internal/tx"
)

// plpCatalogStore is the fixed store id of the partition-map catalog.
// It must be 1: the catalog is the first store created on a fresh PLP
// volume, and a fixed id is what lets recovery find it before any other
// metadata exists.
const plpCatalogStore uint32 = 1

// PlpStats reports the segment catalog's state.
type PlpStats struct {
	Keys       int    // routing keyspace size (segments per partitioned index)
	Partitions int    // owners sharing the keyspace (the DORA executor's)
	Tables     int    // partitioned indexes registered
	MapVersion uint64 // always 1: ownership is not stored, so never changes
	Migrations uint64 // always 0: ownership is fixed at open
}

// PlpMap returns the current segment catalog (nil unless Config.PLP).
func (e *Engine) PlpMap() *plp.Map { return e.plpMap.Load() }

// plpReadCatalog scans the catalog store for the persisted segment
// catalog, reading pages directly (no transaction, no locks — callers run
// single-threaded during Open or hold plpMu). Returns (nil, zero RID,
// nil) when the store exists but holds no record yet.
func (e *Engine) plpReadCatalog() (*plp.Map, page.RID, error) {
	pids, err := e.sm.Pages(plpCatalogStore)
	if err != nil {
		return nil, page.RID{}, err
	}
	for _, pid := range pids {
		f, err := e.pool.Fix(pid, sync2.LatchSH)
		if err != nil {
			return nil, page.RID{}, err
		}
		p := f.Page()
		if p.Type() != page.TypeHeap {
			e.pool.Unfix(f, sync2.LatchSH)
			continue
		}
		for i := 0; i < p.NumSlots(); i++ {
			rec, rerr := p.Record(i)
			if rerr != nil {
				continue // tombstone
			}
			m, derr := plp.Decode(append([]byte(nil), rec...))
			e.pool.Unfix(f, sync2.LatchSH)
			if derr != nil {
				return nil, page.RID{}, fmt.Errorf("core: plp catalog: %w", derr)
			}
			return m, page.RID{Page: pid, Slot: uint16(i)}, nil
		}
		e.pool.Unfix(f, sync2.LatchSH)
	}
	return nil, page.RID{}, nil
}

// plpPersist rewrites the catalog record to m inside t (delete the old
// record, insert the new one — a record's size grows when tables are
// registered, so in-place update is not an option). It returns the new
// record's RID without touching e.plpRID; the caller installs it. Caller
// holds plpMu, or runs single-threaded in Open.
func (e *Engine) plpPersist(ctx context.Context, t *tx.Tx, m *plp.Map) (page.RID, error) {
	if e.plpRID != (page.RID{}) {
		if err := e.HeapDeleteCtx(ctx, t, plpCatalogStore, e.plpRID); err != nil {
			return page.RID{}, err
		}
	}
	return e.HeapInsertCtx(ctx, t, plpCatalogStore, m.Encode())
}

// plpInit loads the segment catalog, or creates it on a fresh volume in
// its own committed transaction. Called from Open after restart recovery,
// before any Submit.
func (e *Engine) plpInit() error {
	if kind, err := e.sm.StoreKindOf(plpCatalogStore); err == nil {
		if kind != space.KindHeap {
			return fmt.Errorf("core: store %d is not the PLP catalog — the volume predates PLP; recreate it with Config.PLP", plpCatalogStore)
		}
		m, rid, err := e.plpReadCatalog()
		if err != nil {
			return err
		}
		e.plpRID = rid // zero when no record: a crashed creation's was undone
		if m != nil {
			e.plpMap.Store(m)
			return nil
		}
	} else if id := e.sm.CreateStore(space.KindHeap); id != plpCatalogStore {
		// A fresh volume's catalog must claim the fixed id before any
		// user store exists.
		return fmt.Errorf("core: PLP catalog got store id %d, want %d — enable PLP on a fresh volume", id, plpCatalogStore)
	}
	m := plp.New(e.cfg.DoraKeys)
	t, err := e.Begin()
	if err != nil {
		return err
	}
	rid, err := e.plpPersist(context.Background(), t, m)
	if err != nil {
		_ = e.Abort(t)
		return err
	}
	if err := e.Commit(t); err != nil {
		return err
	}
	e.plpRID = rid
	e.plpMap.Store(m)
	return nil
}

// CreatePartitionedIndex allocates a PLP index inside transaction t: one
// B-tree segment per routing key, all in one store, registered in the
// segment catalog's record. Like CreateIndex, the store id itself
// is not transactional; the catalog registration rides t, so the map is
// durable iff t commits.
func (e *Engine) CreatePartitionedIndex(t *tx.Tx) (*Index, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := snapshotGuard(t); err != nil {
		return nil, err
	}
	m := e.plpMap.Load()
	if m == nil {
		return nil, fmt.Errorf("core: CreatePartitionedIndex requires Config.PLP")
	}
	store := e.sm.CreateStore(space.KindBTree)
	keys := m.Keys()
	roots := make([]uint64, keys)
	segs := make([]*btree.Tree, keys)
	for i := 0; i < keys; i++ {
		tr, err := btree.Create(btreeEnv{e}, e.pool, &e.olc, t, store)
		if err != nil {
			return nil, err
		}
		roots[i] = uint64(tr.Root())
		segs[i] = tr
	}
	// The directory root slot gets the first segment (recovery's page
	// sweep overwrites it arbitrarily anyway); the map is authoritative.
	if err := e.sm.SetRoot(store, page.ID(roots[0])); err != nil {
		return nil, err
	}
	e.plpMu.Lock()
	defer e.plpMu.Unlock()
	next, err := e.plpMap.Load().WithTable(store, roots)
	if err != nil {
		return nil, err
	}
	rid, err := e.plpPersist(context.Background(), t, next)
	if err != nil {
		return nil, err
	}
	e.plpRID = rid
	e.plpMap.Store(next)
	return e.newIndex(store, segs[0], segs), nil
}

// plpForest builds an Index handle over store's registered segments.
func (e *Engine) plpForest(store uint32, roots []uint64) *Index {
	segs := make([]*btree.Tree, len(roots))
	for i, r := range roots {
		segs[i] = e.newTree(store, page.ID(r))
	}
	return e.newIndex(store, segs[0], segs)
}
