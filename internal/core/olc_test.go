package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

// olcEngine builds a StageFinal engine, whose shared trees descend
// optimistically.
func olcEngine(tb testing.TB) *Engine {
	tb.Helper()
	cfg := StageConfig(StageFinal)
	cfg.Frames = 1024
	e, err := Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	return e
}

func olcKey(w, i int) []byte { return []byte(fmt.Sprintf("w%02d-key%08d", w, i)) }

// TestOLCConcurrentSplitsVsProbes is the engine-level split/probe stress:
// writers grow the index (splitting continuously, including root splits)
// while readers run optimistic lookups and scans. Afterwards every
// inserted key must be findable and Verify's structural invariants must
// hold. Run with -race this exercises the degraded synchronized FixOpt;
// without it, the true speculative path.
func TestOLCConcurrentSplitsVsProbes(t *testing.T) {
	e := olcEngine(t)
	setup, _ := e.Begin()
	ix, err := e.CreateIndex(setup)
	if err != nil {
		t.Fatal(err)
	}
	// Seed keys so readers always have something to hit.
	const seed = 200
	for i := 0; i < seed; i++ {
		if err := e.IndexInsert(setup, ix, olcKey(99, i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}

	const (
		writers = 4
		readers = 4
		perW    = 600
		batch   = 20
	)
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perW; i += batch {
				tx, err := e.Begin()
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				for j := i; j < i+batch && j < perW; j++ {
					if err := e.IndexInsert(tx, ix, olcKey(w, j), []byte("v")); err != nil {
						t.Errorf("writer %d insert %d: %v", w, j, err)
						_ = e.Abort(tx)
						return
					}
				}
				if err := e.Commit(tx); err != nil {
					t.Errorf("writer %d commit: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := e.Begin()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for p := 0; p < 16; p++ {
					i := rng.Intn(seed)
					v, ok, err := e.IndexLookupCtx(context.Background(), tx, ix, olcKey(99, i))
					if err != nil || !ok || string(v) != "seed" {
						t.Errorf("reader %d: lookup(%s) = %q, %v, %v", r, olcKey(99, i), v, ok, err)
						_ = e.Abort(tx)
						return
					}
				}
				if rng.Intn(32) == 0 {
					n := 0
					err := e.IndexScan(tx, ix, olcKey(99, 0), olcKey(99, seed), func(k, v []byte) bool {
						n++
						return true
					})
					if err != nil || n != seed {
						t.Errorf("reader %d: scan saw %d (err %v), want %d", r, n, err, seed)
						_ = e.Abort(tx)
						return
					}
				}
				if err := e.Commit(tx); err != nil {
					t.Errorf("reader %d commit: %v", r, err)
					return
				}
			}
		}(r)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if t.Failed() {
		return
	}

	// No lost keys across restarts/fallbacks.
	check, _ := e.Begin()
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			if _, ok, err := e.IndexLookupCtx(context.Background(), check, ix, olcKey(w, i)); err != nil || !ok {
				t.Fatalf("lost key %s: %v %v", olcKey(w, i), ok, err)
			}
		}
	}
	if err := e.Commit(check); err != nil {
		t.Fatal(err)
	}
	want := writers*perW + seed
	if count, err := ix.Verify(); err != nil || count != want {
		t.Fatalf("Verify = %d, %v; want %d", count, err, want)
	}
	s := e.Stats().Btree
	if s.OptDescents == 0 {
		t.Fatal("no optimistic descents recorded")
	}
	t.Logf("olc: %d optimistic, %d restarts, %d fallbacks", s.OptDescents, s.Restarts, s.Fallbacks)
}

// TestOLCRecoveryUnaffected crashes mid-stream under optimistic descents
// (StageFinal) and verifies restart recovery (which opens trees through
// the same engine config) reproduces the committed state.
func TestOLCRecoveryUnaffected(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 256
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx1, _ := e.Begin()
	ix, err := e.CreateIndex(tx1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := e.IndexInsert(tx1, ix, olcKey(0, i), []byte("durable")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	// A loser that must be rolled back by recovery.
	loser, _ := e.Begin()
	if err := e.IndexInsert(loser, ix, olcKey(1, 0), []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	e2, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	ix2, err := e2.OpenIndex(ix.Store())
	if err != nil {
		t.Fatal(err)
	}
	tx2, _ := e2.Begin()
	for i := 0; i < 500; i++ {
		if v, ok, err := e2.IndexLookupCtx(context.Background(), tx2, ix2, olcKey(0, i)); err != nil || !ok || string(v) != "durable" {
			t.Fatalf("committed key %s lost: %q, %v, %v", olcKey(0, i), v, ok, err)
		}
	}
	if _, ok, err := e2.IndexLookupCtx(context.Background(), tx2, ix2, olcKey(1, 0)); err != nil || ok {
		t.Fatalf("loser key survived recovery: %v, %v", ok, err)
	}
	if err := e2.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	if _, err := ix2.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCheckpoint verifies the CheckpointEvery daemon: with no manual
// Checkpoint call, the master record advances as the log grows, so
// recovery after a crash scans only the tail past the last automatic
// checkpoint.
func TestAutoCheckpoint(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 256
	cfg.CheckpointEvery = 16 << 10 // 16 KiB of log per checkpoint
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := createTable(t, e)

	// Generate well past CheckpointEvery bytes of log and wait for the
	// daemon to publish a master record — without ever calling Checkpoint.
	var lastRID page.RID
	deadline := time.Now().Add(5 * time.Second)
	for {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			rid, err := e.HeapInsertCtx(context.Background(), tx, store, make([]byte, 128))
			if err != nil {
				t.Fatal(err)
			}
			lastRID = rid
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
		master, err := logStore.Master()
		if err != nil {
			t.Fatal(err)
		}
		if master > 0 && uint64(e.log.CurLSN()) > 3*uint64(cfg.CheckpointEvery) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-checkpoint never advanced the master (cur %v, master %v)", e.log.CurLSN(), master)
		}
	}
	masterBefore, err := logStore.Master()
	if err != nil {
		t.Fatal(err)
	}
	if masterBefore == 0 {
		t.Fatal("no automatic checkpoint recorded")
	}
	e.CrashHard()

	// Recovery's analysis starts at the master record — the auto
	// checkpoint — not at the log's beginning.
	e2 := reopen(t, vol, logStore, StageFinal)
	tx2, _ := e2.Begin()
	if _, err := e2.HeapReadCtx(context.Background(), tx2, store, lastRID); err != nil {
		t.Fatalf("last committed row lost after auto-checkpoint recovery: %v", err)
	}
	if err := e2.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	// The reopened engine re-checkpoints at the end of restart; its master
	// must sit at or past the auto-checkpoint the daemon took.
	masterAfter, err := logStore.Master()
	if err != nil {
		t.Fatal(err)
	}
	if masterAfter < masterBefore {
		t.Fatalf("recovery regressed the master: %v < %v", masterAfter, masterBefore)
	}
}
