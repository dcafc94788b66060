package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

// TestLoserSpanningCheckpoint exercises the analysis path that recovers a
// transaction from the checkpoint's transaction table: the loser began and
// logged work BEFORE the checkpoint, the crash comes after, and the master
// record points past the loser's begin record — so only the checkpoint's
// Txs list lets analysis find it.
func TestLoserSpanningCheckpoint(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 128
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := createTable(t, e)
	// Committed baseline.
	tx1, _ := e.Begin()
	rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	// The loser: modifies the row, then stays open across a checkpoint.
	loser, _ := e.Begin()
	if err := e.HeapUpdateCtx(context.Background(), loser, store, rid, []byte("tampered")); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More committed work after the checkpoint.
	tx2, _ := e.Begin()
	rid2, err := e.HeapInsertCtx(context.Background(), tx2, store, []byte("after-ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	e.CrashHard()

	e2 := reopen(t, vol, logStore, StageFinal)
	tx3, _ := e2.Begin()
	got, err := e2.HeapReadCtx(context.Background(), tx3, store, rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "baseline" {
		t.Fatalf("loser update not undone: %q", got)
	}
	if got, err := e2.HeapReadCtx(context.Background(), tx3, store, rid2); err != nil || string(got) != "after-ckpt" {
		t.Fatalf("post-checkpoint commit lost: %q, %v", got, err)
	}
	if err := e2.Commit(tx3); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleCrashRecovery crashes, recovers, works, crashes again, and
// recovers again — the second recovery must replay over the first's
// checkpoint and CLRs without confusion.
func TestDoubleCrashRecovery(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 64
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := createTable(t, e)
	tx1, _ := e.Begin()
	var rids []page.RID
	for i := 0; i < 30; i++ {
		rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte(fmt.Sprintf("gen1-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	// Loser 1.
	l1, _ := e.Begin()
	if err := e.HeapUpdateCtx(context.Background(), l1, store, rids[0], []byte("tamper1")); err != nil {
		t.Fatal(err)
	}
	if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
		t.Fatal(err)
	}
	e.CrashHard()

	e2 := reopen(t, vol, logStore, StageFinal)
	tx2, _ := e2.Begin()
	for i := 0; i < 30; i++ {
		if got, err := e2.HeapReadCtx(context.Background(), tx2, store, rids[i]); err != nil || string(got) != fmt.Sprintf("gen1-%d", i) {
			t.Fatalf("after first crash, row %d = %q, %v", i, got, err)
		}
	}
	// Second generation of work, then a second loser + crash.
	rid2, err := e2.HeapInsertCtx(context.Background(), tx2, store, []byte("gen2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	l2, _ := e2.Begin()
	if err := e2.HeapUpdateCtx(context.Background(), l2, store, rid2, []byte("tamper2")); err != nil {
		t.Fatal(err)
	}
	if err := e2.Log().Flush(e2.Log().CurLSN()); err != nil {
		t.Fatal(err)
	}
	e2.CrashHard()

	e3 := reopen(t, vol, logStore, StageFinal)
	tx3, _ := e3.Begin()
	for i := 0; i < 30; i++ {
		if got, err := e3.HeapReadCtx(context.Background(), tx3, store, rids[i]); err != nil || string(got) != fmt.Sprintf("gen1-%d", i) {
			t.Fatalf("after second crash, row %d = %q, %v", i, got, err)
		}
	}
	if got, err := e3.HeapReadCtx(context.Background(), tx3, store, rid2); err != nil || string(got) != "gen2" {
		t.Fatalf("gen2 row = %q, %v", got, err)
	}
	if err := e3.Commit(tx3); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWhileConcurrentLoad verifies fuzzy checkpoints do not
// corrupt anything while transactions run.
func TestCheckpointWhileConcurrentLoad(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 128
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := createTable(t, e)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			txi, err := e.Begin()
			if err != nil {
				done <- err
				return
			}
			for j := 0; j < 20; j++ {
				if _, err := e.HeapInsertCtx(context.Background(), txi, store, []byte("row")); err != nil {
					done <- err
					return
				}
			}
			if err := e.Commit(txi); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 10; i++ {
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	e.CrashHard()
	e2 := reopen(t, vol, logStore, StageFinal)
	tx1, _ := e2.Begin()
	count := 0
	if err := e2.HeapScan(tx1, store, func(page.RID, []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	// All insert transactions committed and were flushed by group commit
	// at their commit points (400 total); recovery must restore exactly
	// those.
	if count != 400 {
		t.Fatalf("recovered %d rows, want 400", count)
	}
	if err := e2.Commit(tx1); err != nil {
		t.Fatal(err)
	}
}
