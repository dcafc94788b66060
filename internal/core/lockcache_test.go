package core

import (
	"context"
	"testing"

	"repro/internal/lock"
)

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
	if err := e.acquire(ctx, tx1, n, lock.S, false); err != nil {
		t.Fatal(err)
	}
	before := e.Locks().Stats().Acquires
	if err := e.acquire(ctx, tx1, n, lock.U, false); err != nil {
		t.Fatal(err)
	}
	if e.Locks().Stats().Acquires == before {
		t.Fatal("S→U upgrade never reached the manager")
	}
	if got := e.Locks().Holds(tx1.ID(), n); got != lock.U {
		t.Fatalf("Holds = %v, want U", got)
	}
	before = e.Locks().Stats().Acquires
	if err := e.acquire(ctx, tx1, n, lock.S, false); err != nil {
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
	if err := e.acquire(ctx, tx2, n, lock.S, false); err != nil {
		t.Fatal(err)
	}
	if err := e.acquire(ctx, tx2, n, lock.IX, false); err != nil {
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
