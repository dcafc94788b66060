package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/closed"
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
		_, ok, err := e.IndexLookupCtx(context.Background(), check, ix, key)
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
	v, ok, err := e2.IndexLookupCtx(context.Background(), rd, ix2, []byte("durable"))
	if err != nil || !ok || string(v) != "yes" {
		t.Fatalf("after crash: v=%q ok=%v err=%v", v, ok, err)
	}
	if err := e2.Commit(rd); err != nil {
		t.Fatal(err)
	}
}

// TestCrashHardCutsDoraOwners parks a cross-partition DORA transaction
// inside one owner's action, after both of its actions wrote and the log
// holding their records was made durable, and pulls the plug. A crash is a
// power cut at one instant: the store must lose its power before the
// owners stop, so the parked action is let go only once it has. The
// transaction can then no longer commit, and restart recovery undoes both
// of its writes as losers.
func TestCrashHardCutsDoraOwners(t *testing.T) {
	cfg := StageConfig(StageFinal)
	cfg.DORA = true
	cfg.DoraPartitions = 2
	vol := disk.NewMem(0)
	logStore := &gatedLog{Store: wal.NewMemSegmentStore(0)} // never armed: it only reports the Crash
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

	wrote, release := make(chan struct{}, 2), make(chan struct{})
	write := func(key string, park bool) dora.RunFunc {
		return func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			if err := e.IndexInsertCtx(ctx, sub, ix, []byte(key), []byte("v")); err != nil {
				return err
			}
			wrote <- struct{}{}
			if park {
				<-release
			}
			return nil
		}
	}
	txn := e.Dora().NewTxn(context.Background())
	txn.Add(dora.ActionSpec{Partition: 0, Locks: []dora.LockReq{{Key: 1, Mode: lock.X}}, Run: write("a", false)})
	txn.Add(dora.ActionSpec{Partition: 1, Locks: []dora.LockReq{{Key: 2, Mode: lock.X}}, Run: write("b", true)})
	submitted := make(chan error, 1)
	go func() { submitted <- e.Dora().Submit(txn) }()
	<-wrote
	<-wrote
	if err := e.log.Flush(e.log.CurLSN()); err != nil {
		t.Fatal(err)
	}

	crashed := make(chan struct{})
	go func() {
		e.CrashHard()
		close(crashed)
	}()
	for deadline := time.Now().Add(10 * time.Second); !logStore.dead.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			close(release)
			<-crashed
			t.Fatal("CrashHard waited for an owner's action before it cut the log's power")
		}
	}
	close(release)
	<-crashed
	if err := <-submitted; !errors.Is(err, closed.Err) {
		t.Errorf("Submit across the crash: %v, want the closed classification", err)
	}

	e2, err := Open(vol, logStore.Store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if losers := e2.Stats().Recovery.Losers; losers < 2 {
		t.Errorf("recovery rolled back %d losers, want the transaction's 2 sub-transactions", losers)
	}
	ix2, err := e2.OpenIndex(ix.Store())
	if err != nil {
		t.Fatal(err)
	}
	rd, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if _, ok, err := e2.IndexLookupCtx(context.Background(), rd, ix2, []byte(key)); err != nil || ok {
			t.Errorf("after restart %q: found=%v err=%v, want it undone", key, ok, err)
		}
	}
	if err := e2.Commit(rd); err != nil {
		t.Fatal(err)
	}
}
