package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/dora"
	"repro/internal/lock"
	"repro/internal/tx"
	"repro/internal/wal"
)

// TestDoraBypassesLockManager pins the tentpole invariant: work running
// through the partition executor acquires only thread-local locks —
// the shared lock manager's counters stay flat while Dora.LocalAcquires
// climbs.
func TestDoraBypassesLockManager(t *testing.T) {
	cfg := StageConfig(StageFinal)
	cfg.DORA = true
	cfg.DoraPartitions = 1
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	x := e.Dora()
	if x == nil {
		t.Fatal("engine has no DORA executor")
	}

	// Build the index through a regular (locking) transaction.
	setup, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := e.CreateIndex(setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}

	before := e.Locks().Stats().Acquires
	const n = 50
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		txn := x.NewTxn(context.Background())
		txn.Add(dora.ActionSpec{
			Partition: 0,
			Locks:     []dora.LockReq{{Key: uint64(i), Mode: lock.X}},
			Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
				return e.IndexInsertCtx(ctx, sub, ix, key, []byte("v"))
			},
		})
		if err := x.Submit(txn); err != nil {
			t.Fatal(err)
		}
	}

	after := e.Locks().Stats().Acquires
	if after != before {
		t.Errorf("shared lock manager acquires moved %d -> %d during DORA-only work", before, after)
	}
	st := e.Stats()
	if st.Dora.LocalAcquires == 0 {
		t.Error("Dora.LocalAcquires = 0, want > 0")
	}
	if st.Dora.LocalTx != n {
		t.Errorf("Dora.LocalTx = %d, want %d", st.Dora.LocalTx, n)
	}

	// The sub-transactions are ordinary logged transactions: everything
	// they wrote must be there via the normal read path.
	check, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		_, ok, err := e.IndexLookup(check, ix, key)
		if err != nil || !ok {
			t.Fatalf("lookup %s: ok=%v err=%v", key, ok, err)
		}
	}
	if err := e.Commit(check); err != nil {
		t.Fatal(err)
	}
}

// TestDoraDurability crashes the engine after DORA commits and checks
// restart recovery replays them: partition-local locking changes the
// concurrency control, not the ARIES contract.
func TestDoraDurability(t *testing.T) {
	cfg := StageConfig(StageFinal)
	cfg.DORA = true
	cfg.DoraPartitions = 1
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}

	setup, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := e.CreateIndex(setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}
	store := ix.Store()

	x := e.Dora()
	txn := x.NewTxn(context.Background())
	txn.Add(dora.ActionSpec{
		Partition: 0,
		Locks:     []dora.LockReq{{Key: 1, Mode: lock.X}},
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			return e.IndexInsertCtx(ctx, sub, ix, []byte("durable"), []byte("yes"))
		},
	})
	if err := x.Submit(txn); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	e2, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	ix2, err := e2.OpenIndex(store)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := e2.IndexLookup(rd, ix2, []byte("durable"))
	if err != nil || !ok || string(v) != "yes" {
		t.Fatalf("after crash: v=%q ok=%v err=%v", v, ok, err)
	}
	if err := e2.Commit(rd); err != nil {
		t.Fatal(err)
	}
}
