package core

// Physiological partitioning (PLP): the DORA follow-up that partitions
// the physical B-trees themselves. Every partitioned index is a forest
// of per-routing-key segment trees (one per TPC-C warehouse), and the
// DORA partition owning a routing key is the only writer that mutates
// its segments — so owner-path index operations run on validated
// speculative page images with no latch acquisition (see btree/owner.go
// for the latch-freedom argument).
//
// The partition map (internal/plp.Map) is the single piece of shared
// metadata: segment roots per store, plus the ownership bounds that
// assign contiguous routing-key ranges to partitions. It is persisted
// as one record in a catalog heap store with the fixed id 1, created at
// the first PLP open — so crash recovery rebuilds the map byte-
// identically from ordinary heap redo/undo, and a re-balancing
// migration is crash-atomic as one record rewrite inside one committed
// transaction.
//
// The re-balancer watches per-partition routing deltas and, when skew
// exceeds plpSkewTrigger, moves one boundary routing key from the
// hottest multi-key partition to its lighter adjacent neighbor. The
// migration protocol: freeze routing (submitters block at the routing
// lock), post a barrier to the two affected partition owners, and only
// if both report idle — no queued work, no held locks, nothing parked —
// persist the new bounds and flip the in-memory map while both owners
// are stopped at the barrier. A busy partition releases the barrier
// immediately and the migration retries; segment identity never
// changes, so no key ever moves between trees.

import (
	"context"
	"fmt"
	"time"

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

// Re-balancer tuning.
const (
	// plpSkewTrigger is the per-tick routing-delta skew (max/mean over
	// partitions) above which a boundary migration is attempted.
	plpSkewTrigger = 1.25
	// plpMinSample is the minimum routed-action delta per tick before
	// skew is evaluated (tiny samples are noise).
	plpMinSample = 64
	// plpQuiesceRetries bounds the barrier attempts of one migration;
	// routing stays frozen across retries, so in-flight work drains and
	// the partitions go idle unless the system is saturated with
	// cross-partition rendezvous (then the next tick retries).
	plpQuiesceRetries = 100
)

// PlpStats reports the partition map's state and re-balancer activity.
type PlpStats struct {
	Keys       int    // routing keyspace size (segments per partitioned index)
	Partitions int    // owners sharing the keyspace
	Tables     int    // partitioned indexes registered
	MapVersion uint64 // bumped by every ownership change
	Migrations uint64 // boundary migrations the re-balancer committed
}

// PlpMap returns the current partition map (nil unless Config.PLP).
func (e *Engine) PlpMap() *plp.Map { return e.plpMap.Load() }

// plpReadCatalog scans the catalog store for the persisted partition
// map, reading pages directly (no transaction, no locks — callers run
// single-threaded during Open or hold plpMu). Returns (nil, zero RID,
// nil) when the store exists but holds no record yet.
func (e *Engine) plpReadCatalog() (*plp.Map, page.RID, error) {
	pids, err := e.sm.Pages(plpCatalogStore)
	if err != nil {
		return nil, page.RID{}, err
	}
	for _, pid := range pids {
		f, err := e.fix(pid, sync2.LatchSH)
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
// record's RID without touching e.plpRID: the caller installs it only
// once t's fate is known, so an aborted migration keeps pointing at the
// (restored) old record. Caller holds plpMu.
func (e *Engine) plpPersist(ctx context.Context, t *tx.Tx, m *plp.Map) (page.RID, error) {
	if e.plpRID != (page.RID{}) {
		if err := e.HeapDeleteCtx(ctx, t, plpCatalogStore, e.plpRID); err != nil {
			return page.RID{}, err
		}
	}
	return e.HeapInsertCtx(ctx, t, plpCatalogStore, m.Encode())
}

// plpInit loads (or creates) the partition map, installs the executor's
// router, and starts the re-balancer. Called from Open after restart
// recovery and executor construction.
func (e *Engine) plpInit() error {
	parts := e.dora.Partitions()
	var m *plp.Map
	if kind, err := e.sm.StoreKindOf(plpCatalogStore); err == nil {
		if kind != space.KindHeap {
			return fmt.Errorf("core: store %d is not the PLP catalog — the volume predates PLP; recreate it with Config.PLP", plpCatalogStore)
		}
		var rid page.RID
		var rerr error
		m, rid, rerr = e.plpReadCatalog()
		if rerr != nil {
			return rerr
		}
		e.plpRID = rid
	}
	if m == nil {
		// Fresh volume (or a crashed pre-commit creation): the catalog
		// store must claim the fixed id before any user store exists.
		if _, err := e.sm.StoreKindOf(plpCatalogStore); err != nil {
			if id := e.sm.CreateStore(space.KindHeap); id != plpCatalogStore {
				return fmt.Errorf("core: PLP catalog got store id %d, want %d — enable PLP on a fresh volume", id, plpCatalogStore)
			}
		}
		m = plp.New(e.cfg.DoraKeys, parts)
		if err := e.plpPersistTx(m); err != nil {
			return err
		}
	} else if m.Parts() != parts {
		// Reopened with a different partition count: redistribute the
		// persisted keyspace evenly (segment roots are untouched).
		m = m.Repartition(parts)
		if err := e.plpPersistTx(m); err != nil {
			return err
		}
	}
	e.plpMap.Store(m)
	e.dora.SetRouter(func(rk uint32) int { return e.plpMap.Load().Owner(rk) })
	if e.cfg.PlpRebalanceEvery > 0 {
		e.plpStop = make(chan struct{})
		e.plpDone = make(chan struct{})
		go e.rebalanceLoop()
	}
	return nil
}

// plpPersistTx persists m in its own committed transaction and installs
// the new catalog RID. Open-time only (no plpMu needed: single-threaded).
func (e *Engine) plpPersistTx(m *plp.Map) error {
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
	return nil
}

// stopRebalancer stops the re-balancer daemon, waiting out an in-flight
// migration. Must run before dora.Close: a migration's barrier needs
// live partition owners to complete.
func (e *Engine) stopRebalancer() {
	if e.plpStop == nil {
		return
	}
	close(e.plpStop)
	<-e.plpDone
	e.plpStop = nil
}

// CreatePartitionedIndex allocates a PLP index inside transaction t: one
// B-tree segment per routing key, all in one store, registered in the
// partition map's catalog record. Like CreateIndex, the store id itself
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
		tr, err := btree.Create(btreeEnv{e}, e.pool, &e.olc, t.ID(), store)
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

// rebalanceLoop is the skew re-balancer daemon: every tick it compares
// per-partition routing deltas and migrates one boundary routing key
// when the skew trigger fires.
func (e *Engine) rebalanceLoop() {
	defer close(e.plpDone)
	ticker := time.NewTicker(e.cfg.PlpRebalanceEvery)
	defer ticker.Stop()
	st := &rebalanceState{
		last: make([]uint64, e.dora.Partitions()),
		ema:  make([]float64, e.dora.Partitions()),
		from: -1,
		to:   -1,
	}
	for {
		select {
		case <-e.plpStop:
			return
		case <-ticker.C:
			e.rebalanceOnce(st)
		}
	}
}

// rebalanceState carries the re-balancer's inter-tick memory: previous
// cumulative Routed counters, the smoothed per-partition load, and the
// previous tick's migration proposal (for two-tick confirmation).
type rebalanceState struct {
	last     []uint64
	ema      []float64
	from, to int
}

// rebalanceOnce evaluates one tick. last holds the previous tick's
// per-partition Routed counters; deltas (not cumulative totals) drive
// the decision so the re-balancer reacts to the current load shape, not
// the history it has already corrected. The deltas feed an exponential
// moving average (ema, half-weight per tick): raw per-tick deltas are
// hostage to scheduler bursts — on few cores one worker can own a whole
// tick, making its partition look 100% hot for one sample and the next
// partition the tick after, thrashing boundary keys back and forth.
// Sustained skew dominates the average within a few ticks; bursts that
// alternate cancel out.
//
// A migration additionally needs two-tick confirmation: the same
// (from, to) proposal on consecutive ticks. One noisy sample crossing
// the trigger proposes but does not move; real skew proposes the same
// move every tick and pays one tick of extra latency.
func (e *Engine) rebalanceOnce(st *rebalanceState) {
	s := e.dora.Stats()
	ema := st.ema
	n := len(s.Parts)
	var total uint64
	for i, ps := range s.Parts {
		d := ps.Routed - st.last[i]
		st.last[i] = ps.Routed
		total += d
		ema[i] = (ema[i] + float64(d)) / 2
	}
	if total < plpMinSample {
		return
	}
	var emaTotal float64
	for _, v := range ema {
		emaTotal += v
	}
	mean := emaTotal / float64(n)
	if mean <= 0 {
		return
	}
	m := e.plpMap.Load()
	// Hottest partition that can shrink (owns more than one routing key)
	// and exceeds the trigger. The overall hottest may be a single-key
	// partition — nothing to migrate there, and that is the converged
	// state for a sufficiently hot key.
	from := -1
	for i := 0; i < n; i++ {
		lo, hi := m.Span(i)
		if hi-lo <= 1 {
			continue
		}
		if ema[i]/mean < plpSkewTrigger {
			continue
		}
		if from == -1 || ema[i] > ema[from] {
			from = i
		}
	}
	if from == -1 {
		st.from, st.to = -1, -1
		return
	}
	// Lighter adjacent neighbor takes the boundary key nearest to it.
	to := -1
	if from > 0 {
		to = from - 1
	}
	if from < n-1 && (to == -1 || ema[from+1] < ema[to]) {
		to = from + 1
	}
	if to == -1 || ema[to] >= ema[from] {
		st.from, st.to = -1, -1
		return
	}
	if from != st.from || to != st.to {
		st.from, st.to = from, to // first sighting: propose, confirm next tick
		return
	}
	st.from, st.to = -1, -1
	bounds := m.Bounds()
	if to < from {
		bounds[from]++ // left neighbor absorbs from's lowest key
	} else {
		bounds[from+1]-- // right neighbor absorbs from's highest key
	}
	next, err := m.WithBounds(bounds)
	if err != nil {
		return
	}
	e.migrate(from, to, next)
}

// migrate executes one boundary migration: freeze routing, rendezvous
// with both affected owners, and — only with both provably idle —
// persist and flip the map while they are stopped at the barrier.
func (e *Engine) migrate(from, to int, next *plp.Map) {
	e.plpMu.Lock()
	defer e.plpMu.Unlock()
	if e.plpMap.Load().Version() != next.Version()-1 {
		return // the map moved under us; re-evaluate next tick
	}
	e.dora.FreezeRouting()
	defer e.dora.UnfreezeRouting()
	for attempt := 0; attempt < plpQuiesceRetries; attempt++ {
		flipped := false
		e.dora.Quiesce([]int{from, to}, func() {
			t, err := e.Begin()
			if err != nil {
				return
			}
			rid, err := e.plpPersist(context.Background(), t, next)
			if err != nil {
				_ = e.Abort(t)
				return
			}
			if err := e.Commit(t); err != nil {
				return
			}
			e.plpRID = rid
			e.plpMap.Store(next)
			e.plpMigrations.Add(1)
			flipped = true
		})
		if flipped {
			return
		}
		// Busy: with routing frozen the partitions drain; yield briefly
		// and retry. Giving up after the retry budget just defers the
		// migration to the next tick.
		time.Sleep(100 * time.Microsecond)
	}
}
