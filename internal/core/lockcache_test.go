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
	before := tx1.LockAcquires()
	hitsBefore := tx1.LockCacheHits()
	for i := 0; i < 10; i++ {
		if _, err := e.HeapRead(tx1, store, rid); err != nil {
			t.Fatal(err)
		}
	}
	if delta := tx1.LockAcquires() - before; delta != 0 {
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
	before := tx1.LockAcquires()
	if err := e.HeapUpdate(tx1, store, rid, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if delta := tx1.LockAcquires() - before; delta == 0 {
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
	before := tx1.LockAcquires()
	if err := e.acquire(ctx, tx1, n, lock.U, false); err != nil {
		t.Fatal(err)
	}
	if tx1.LockAcquires() == before {
		t.Fatal("S→U upgrade never reached the manager")
	}
	if got := e.Locks().Holds(tx1.ID(), n); got != lock.U {
		t.Fatalf("Holds = %v, want U", got)
	}
	before = tx1.LockAcquires()
	if err := e.acquire(ctx, tx1, n, lock.S, false); err != nil {
		t.Fatal(err)
	}
	if tx1.LockAcquires() != before {
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

// TestLockAcquiresExact: a transaction counts the grants the lock manager
// gives it and folds the count in when it ends, so Stats reads exactly N
// after N acquires (and nothing for a request the private cache answers);
// a caller outside any transaction is counted at each grant.
func TestLockAcquiresExact(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	ctx := context.Background()
	const n = 50
	before := e.Locks().Stats().Acquires
	tx1, _ := e.Begin()
	for i := 0; i < n; i++ {
		if err := e.acquire(ctx, tx1, lock.StoreName(uint32(1000+i)), lock.S, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.acquire(ctx, tx1, lock.StoreName(1000), lock.S, false); err != nil {
		t.Fatal(err)
	}
	if got := tx1.LockAcquires(); got != n {
		t.Fatalf("transaction counted %d grants, want %d", got, n)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	if got := e.Locks().Stats().Acquires - before; got != n {
		t.Fatalf("Stats counts %d acquires after %d, want exactly %d", got, n, n)
	}
	const outside = 1 << 60 // a lock owner that is no transaction
	for i := 0; i < n; i++ {
		name := lock.StoreName(uint32(2000 + i))
		var err error
		if i%2 == 0 {
			err = e.Locks().Lock(ctx, outside, name, lock.S, 0)
		} else {
			err = e.Locks().TryLockNoWait(outside, name, lock.S)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer e.Locks().Unlock(outside, name)
	}
	if got := e.Locks().Stats().Acquires - before; got != 2*n {
		t.Fatalf("Stats counts %d acquires, want exactly %d", got, 2*n)
	}
}
