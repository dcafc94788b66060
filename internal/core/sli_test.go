package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/tx"
	"repro/internal/wal"
)

func newSLIEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := StageConfig(StageFinal)
	cfg.SLI = true
	e, err := Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestLockCacheFastPath: a re-read of the same row must be answered by
// the transaction-private cache — zero lock-manager acquires.
func TestLockCacheFastPath(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	tx1, _ := e.Begin()
	rid, err := e.HeapInsert(tx1, store, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HeapRead(tx1, store, rid); err != nil {
		t.Fatal(err)
	}
	before := e.Locks().Stats().Acquires
	hitsBefore := tx1.LockCacheHits()
	for i := 0; i < 10; i++ {
		if _, err := e.HeapRead(tx1, store, rid); err != nil {
			t.Fatal(err)
		}
	}
	if delta := e.Locks().Stats().Acquires - before; delta != 0 {
		t.Fatalf("re-reads took %d lock-table acquires, want 0", delta)
	}
	if tx1.LockCacheHits() == hitsBefore {
		t.Fatal("re-reads never hit the private cache")
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	if e.Locks().Stats().CacheHits == 0 {
		t.Fatal("cache hits not folded into lock stats at release")
	}
}

// TestCacheConversionReachesManager: requesting a stronger mode than
// the cached one must bypass the cache and convert in the manager.
func TestCacheConversionReachesManager(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	tx0, _ := e.Begin()
	rid, err := e.HeapInsert(tx0, store, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx0); err != nil {
		t.Fatal(err)
	}

	tx1, _ := e.Begin()
	if _, err := e.HeapRead(tx1, store, rid); err != nil {
		t.Fatal(err)
	}
	rowName := lock.RowName(store, rid)
	if got := e.Locks().Holds(tx1.ID(), rowName); got != lock.S {
		t.Fatalf("after read Holds = %v, want S", got)
	}
	before := e.Locks().Stats().Acquires
	if err := e.HeapUpdate(tx1, store, rid, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if delta := e.Locks().Stats().Acquires - before; delta == 0 {
		t.Fatal("S→X upgrade was served from the cache; conversions must reach the manager")
	}
	if got := e.Locks().Holds(tx1.ID(), rowName); got != lock.X {
		t.Fatalf("after update Holds = %v, want X (converted)", got)
	}
	if got := tx1.HeldMode(rowName); got != lock.X {
		t.Fatalf("cache tracks %v, want X after conversion", got)
	}
	if n := len(tx1.Locks()); n != 3 {
		// db, store, row — deduped across the read and the update.
		t.Fatalf("release list has %d entries, want 3: %v", n, tx1.Locks())
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
}

// TestCacheUpgradeModes drives the U and SIX upgrade lattice through
// acquire directly: every request stronger than the cached mode must
// reach the manager and leave the manager and cache agreeing.
func TestCacheUpgradeModes(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	ctx := context.Background()
	n := lock.StoreName(42)

	// S then U: U subsumes S, conversion required; later S is cache-covered.
	tx1, _ := e.Begin()
	if err := e.acquire(ctx, tx1, n, lock.S); err != nil {
		t.Fatal(err)
	}
	before := e.Locks().Stats().Acquires
	if err := e.acquire(ctx, tx1, n, lock.U); err != nil {
		t.Fatal(err)
	}
	if e.Locks().Stats().Acquires == before {
		t.Fatal("S→U upgrade never reached the manager")
	}
	if got := e.Locks().Holds(tx1.ID(), n); got != lock.U {
		t.Fatalf("Holds = %v, want U", got)
	}
	before = e.Locks().Stats().Acquires
	if err := e.acquire(ctx, tx1, n, lock.S); err != nil {
		t.Fatal(err)
	}
	if e.Locks().Stats().Acquires != before {
		t.Fatal("U-covered S request went to the manager")
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}

	// S then IX: the supremum is SIX, again via the manager.
	tx2, _ := e.Begin()
	if err := e.acquire(ctx, tx2, n, lock.S); err != nil {
		t.Fatal(err)
	}
	if err := e.acquire(ctx, tx2, n, lock.IX); err != nil {
		t.Fatal(err)
	}
	if got := e.Locks().Holds(tx2.ID(), n); got != lock.SIX {
		t.Fatalf("Holds = %v, want SIX", got)
	}
	if got := tx2.HeldMode(n); got != lock.SIX {
		t.Fatalf("cache tracks %v, want SIX", got)
	}
	if err := e.Commit(tx2); err != nil {
		t.Fatal(err)
	}
}

// TestSLISteadyState: with SLI on, a chain of transactions from one
// worker re-acquires its database/store intent locks with no lock-table
// traffic — per-transaction Acquires growth covers only the row lock.
func TestSLISteadyState(t *testing.T) {
	e := newSLIEngine(t)
	store := createTable(t, e)

	run := func() {
		tx1, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.HeapInsert(tx1, store, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx1); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: acquires and parks db/store intents

	before := e.Locks().Stats()
	const txs = 20
	for i := 0; i < txs; i++ {
		run()
	}
	after := e.Locks().Stats()
	if grants := after.InheritedGrants - before.InheritedGrants; grants < 2*txs {
		t.Fatalf("inherited grants = %d, want ≥ %d (db + store intent per tx)", grants, 2*txs)
	}
	// Each steady-state transaction takes exactly one lock-table trip:
	// the fresh row X lock. Intent locks ride the inheritance chain.
	if delta := after.Acquires - before.Acquires; delta > txs {
		t.Fatalf("acquires grew %d over %d txs; intent locks are hitting the table", delta, txs)
	}
}

// TestSLIRevokedByConflictingTx: a store-S scan from another worker
// revokes the parked intent locks and proceeds; the inheriting worker
// falls back to normal acquisition afterwards.
func TestSLIRevokedByConflictingTx(t *testing.T) {
	e := newSLIEngine(t)
	store := createTable(t, e)

	tx1, _ := e.Begin() // worker A's agent
	if _, err := e.HeapInsert(tx1, store, []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx2, _ := e.Begin() // second agent, created while A's is busy
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err) // parks db/store IX on A's agent
	}
	if e.Locks().Stats().Inherits == 0 {
		t.Fatal("commit did not park intent locks")
	}
	// tx2 scans the store: store S conflicts with the parked store IX
	// and must revoke it rather than time out.
	seen := 0
	if err := e.HeapScan(tx2, store, func(_ page.RID, _ []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("scan saw %d rows, want 1", seen)
	}
	if e.Locks().Stats().Revokes == 0 {
		t.Fatal("conflicting scan never revoked the inherited lock")
	}
	if err := e.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	// The revoked chain recovers: the next transaction re-acquires
	// normally and keeps working.
	tx3, _ := e.Begin()
	if _, err := e.HeapInsert(tx3, store, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx3); err != nil {
		t.Fatal(err)
	}
}

// TestSLIConcurrentScanInsert races inheriting insert workers against
// scanning readers (store S vs inherited store IX) under the race
// detector: claims, parks and revocations interleave and every
// transaction must still commit.
func TestSLIConcurrentScanInsert(t *testing.T) {
	e := newSLIEngine(t)
	store := createTable(t, e)
	ctx := context.Background()
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() { // inserter
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := e.RunCtx(ctx, RetryPolicy{}, func(t *tx.Tx) error {
					_, err := e.HeapInsertCtx(ctx, t, store, []byte("v"))
					return err
				}, nil)
				if err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() { // scanner
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := e.RunCtx(ctx, RetryPolicy{}, func(t *tx.Tx) error {
					return e.HeapScanCtx(ctx, t, store, func(_ page.RID, _ []byte) bool { return true })
				}, e.CommitReadOnly)
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Tx.Commits < 4*iters {
		t.Fatalf("commits = %d, want ≥ %d", st.Tx.Commits, 4*iters)
	}
}
