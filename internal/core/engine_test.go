package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/tx"
	"repro/internal/wal"
)

// newEngine builds an engine at the given stage over fresh stores.
func newEngine(t *testing.T, stage Stage) (*Engine, *disk.MemVolume, *wal.SegmentStore) {
	t.Helper()
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(stage)
	cfg.Frames = 256
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, vol, logStore
}

// createTable registers a heap store inside a short committed setup
// transaction (CreateTable requires an active transaction).
func createTable(tb testing.TB, e *Engine) uint32 {
	tb.Helper()
	ct, err := e.Begin()
	if err != nil {
		tb.Fatal(err)
	}
	store, err := e.CreateTable(ct)
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Commit(ct); err != nil {
		tb.Fatal(err)
	}
	return store
}

// reopen closes nothing and opens a new engine over the same stores
// (post-crash).
func reopen(t *testing.T, vol *disk.MemVolume, logStore *wal.SegmentStore, stage Stage) *Engine {
	t.Helper()
	cfg := StageConfig(stage)
	cfg.Frames = 256
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func allStages(t *testing.T, fn func(t *testing.T, stage Stage)) {
	for _, s := range Stages() {
		s := s
		t.Run(s.String(), func(t *testing.T) { fn(t, s) })
	}
}

func TestHeapCRUDCommit(t *testing.T) {
	allStages(t, func(t *testing.T, stage Stage) {
		e, _, _ := newEngine(t, stage)
		store := createTable(t, e)
		tx1, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("hello"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.HeapReadCtx(context.Background(), tx1, store, rid)
		if err != nil || string(got) != "hello" {
			t.Fatalf("read own write: %q, %v", got, err)
		}
		if err := e.HeapUpdateCtx(context.Background(), tx1, store, rid, []byte("world")); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx1); err != nil {
			t.Fatal(err)
		}
		// New transaction sees committed state.
		tx2, _ := e.Begin()
		got, err = e.HeapReadCtx(context.Background(), tx2, store, rid)
		if err != nil || string(got) != "world" {
			t.Fatalf("after commit: %q, %v", got, err)
		}
		if err := e.HeapDeleteCtx(context.Background(), tx2, store, rid); err != nil {
			t.Fatal(err)
		}
		if _, err := e.HeapReadCtx(context.Background(), tx2, store, rid); !errors.Is(err, ErrNoRecord) {
			t.Fatalf("read after delete = %v", err)
		}
		if err := e.Commit(tx2); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAbortUndoesHeapChanges(t *testing.T) {
	allStages(t, func(t *testing.T, stage Stage) {
		e, _, _ := newEngine(t, stage)
		store := createTable(t, e)
		// Committed baseline row.
		tx1, _ := e.Begin()
		rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("stable"))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx1); err != nil {
			t.Fatal(err)
		}
		// Aborted transaction: insert + update + delete.
		tx2, _ := e.Begin()
		rid2, err := e.HeapInsertCtx(context.Background(), tx2, store, []byte("doomed"))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.HeapUpdateCtx(context.Background(), tx2, store, rid, []byte("mutated")); err != nil {
			t.Fatal(err)
		}
		if err := e.Abort(tx2); err != nil {
			t.Fatal(err)
		}
		// Stable row restored; doomed row gone.
		tx3, _ := e.Begin()
		got, err := e.HeapReadCtx(context.Background(), tx3, store, rid)
		if err != nil || string(got) != "stable" {
			t.Fatalf("after abort: %q, %v", got, err)
		}
		if _, err := e.HeapReadCtx(context.Background(), tx3, store, rid2); !errors.Is(err, ErrNoRecord) {
			t.Fatalf("aborted insert still visible: %v", err)
		}
		if err := e.Commit(tx3); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHeapRIDOffTable: a RID comes from the caller (over the wire too),
// so it may name an index node's entries, another table's row, the
// invalid page or a page past the volume's end. Read, update, delete and
// snapshot read answer ErrNoRecord for each, and neither the index nor
// the other table changes.
func TestHeapRIDOffTable(t *testing.T) {
	e, _, _ := newSnapshotEngine(t)
	ctx := context.Background()
	table, other := createTable(t, e), createTable(t, e)
	ix := createSnapIndex(t, e)
	setup, _ := e.BeginCtx(ctx)
	for i := 0; i < 5; i++ {
		if err := e.IndexInsertCtx(ctx, setup, ix, []byte{'a' + byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	otherRID, err := e.HeapInsertCtx(ctx, setup, other, []byte("other's row"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CommitCtx(ctx, setup); err != nil {
		t.Fatal(err)
	}

	for _, rid := range []page.RID{{Page: ix.Root(), Slot: 2}, {Page: ix.Root(), Slot: 3}, otherRID,
		{Page: page.InvalidID}, {Page: page.ID(e.vol.NumPages()) + 1}, {Page: 1 << 20}, {Page: 1 << 39, Slot: 1}} {
		w, _ := e.BeginCtx(ctx)
		if got, err := e.HeapReadCtx(ctx, w, table, rid); !errors.Is(err, ErrNoRecord) {
			t.Errorf("HeapReadCtx(%v) = %q, %v; want ErrNoRecord", rid, got, err)
		}
		if err := e.HeapUpdateCtx(ctx, w, table, rid, []byte("clobber")); !errors.Is(err, ErrNoRecord) {
			t.Errorf("HeapUpdateCtx(%v) = %v, want ErrNoRecord", rid, err)
		}
		if err := e.HeapDeleteCtx(ctx, w, table, rid); !errors.Is(err, ErrNoRecord) {
			t.Errorf("HeapDeleteCtx(%v) = %v, want ErrNoRecord", rid, err)
		}
		if err := e.CommitCtx(ctx, w); err != nil {
			t.Fatal(err)
		}
		s, err := e.BeginSnapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := e.HeapReadCtx(ctx, s, table, rid); !errors.Is(err, ErrNoRecord) {
			t.Errorf("snapshot HeapReadCtx(%v) = %q, %v; want ErrNoRecord", rid, got, err)
		}
		if err := e.CommitReadOnly(ctx, s); err != nil {
			t.Fatal(err)
		}
	}

	if n, err := ix.Verify(); err != nil || n != 5 {
		t.Fatalf("index Verify = %d keys, %v; want 5, nil", n, err)
	}
	r, _ := e.BeginCtx(ctx)
	if got, err := e.HeapReadCtx(ctx, r, other, otherRID); err != nil || string(got) != "other's row" {
		t.Fatalf("the other table's row reads %q, %v", got, err)
	}
	if err := e.CommitCtx(ctx, r); err != nil {
		t.Fatal(err)
	}
}

func TestHeapScanMany(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	tx1, _ := e.Begin()
	const n = 3000 // spans many pages and extents
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf("row-%05d", i))
		if _, err := e.HeapInsertCtx(context.Background(), tx1, store, data); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		want[string(data)] = true
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	tx2, _ := e.Begin()
	seen := 0
	err := e.HeapScan(tx2, store, func(rid page.RID, rec []byte) bool {
		if !want[string(rec)] {
			t.Errorf("unexpected record %q", rec)
			return false
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scan saw %d records, want %d", seen, n)
	}
	if err := e.Commit(tx2); err != nil {
		t.Fatal(err)
	}
}

func TestIndexCRUDAndAbort(t *testing.T) {
	allStages(t, func(t *testing.T, stage Stage) {
		e, _, _ := newEngine(t, stage)
		tx1, _ := e.Begin()
		ix, err := e.CreateIndex(tx1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := e.IndexInsert(tx1, ix, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Commit(tx1); err != nil {
			t.Fatal(err)
		}
		// Abort an update + insert + delete mix.
		tx2, _ := e.Begin()
		if err := e.IndexInsert(tx2, ix, []byte("zzz"), []byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := e.IndexUpdateCtx(context.Background(), tx2, ix, []byte("k0001"), []byte("changed")); err != nil {
			t.Fatal(err)
		}
		if _, err := e.IndexDeleteCtx(context.Background(), tx2, ix, []byte("k0002")); err != nil {
			t.Fatal(err)
		}
		if err := e.Abort(tx2); err != nil {
			t.Fatal(err)
		}
		tx3, _ := e.Begin()
		if _, ok, _ := e.IndexLookupCtx(context.Background(), tx3, ix, []byte("zzz")); ok {
			t.Fatal("aborted index insert visible")
		}
		v, ok, err := e.IndexLookupCtx(context.Background(), tx3, ix, []byte("k0001"))
		if err != nil || !ok || string(v) != "v1" {
			t.Fatalf("aborted update not undone: %q,%v,%v", v, ok, err)
		}
		v, ok, err = e.IndexLookupCtx(context.Background(), tx3, ix, []byte("k0002"))
		if err != nil || !ok || string(v) != "v2" {
			t.Fatalf("aborted delete not undone: %q,%v,%v", v, ok, err)
		}
		if err := e.Commit(tx3); err != nil {
			t.Fatal(err)
		}
	})
}

func TestIndexScanRange(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	tx1, _ := e.Begin()
	ix, err := e.CreateIndex(tx1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := e.IndexInsert(tx1, ix, []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	tx2, _ := e.Begin()
	var keys []string
	err = e.IndexScan(tx2, ix, []byte("k0100"), []byte("k0200"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 100 || keys[0] != "k0100" || keys[99] != "k0199" {
		t.Fatalf("range scan got %d keys [%s..%s]", len(keys), keys[0], keys[len(keys)-1])
	}
	if err := e.Commit(tx2); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryCommittedSurvive(t *testing.T) {
	allStages(t, func(t *testing.T, stage Stage) {
		vol := disk.NewMem(0)
		logStore := wal.NewMemSegmentStore(0)
		cfg := StageConfig(stage)
		cfg.Frames = 128
		e, err := Open(vol, logStore, cfg)
		if err != nil {
			t.Fatal(err)
		}
		store := createTable(t, e)
		tx1, _ := e.Begin()
		var rids []page.RID
		for i := 0; i < 100; i++ {
			rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte(fmt.Sprintf("committed-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		if err := e.Commit(tx1); err != nil {
			t.Fatal(err)
		}
		// In-flight transaction that must roll back at restart.
		tx2, _ := e.Begin()
		if _, err := e.HeapInsertCtx(context.Background(), tx2, store, []byte("in-flight")); err != nil {
			t.Fatal(err)
		}
		if err := e.HeapUpdateCtx(context.Background(), tx2, store, rids[0], []byte("tampered")); err != nil {
			t.Fatal(err)
		}
		// Force the tampering into the durable log so recovery must undo
		// it (rather than just losing it).
		if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
			t.Fatal(err)
		}
		e.CrashHard()

		e2 := reopen(t, vol, logStore, stage)
		tx3, err := e2.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i, rid := range rids {
			got, err := e2.HeapReadCtx(context.Background(), tx3, store, rid)
			if err != nil {
				t.Fatalf("committed row %d lost: %v", i, err)
			}
			want := fmt.Sprintf("committed-%d", i)
			if i == 0 {
				// Must be the original, not the in-flight tampering.
				want = "committed-0"
			}
			if string(got) != want {
				t.Fatalf("row %d = %q, want %q", i, got, want)
			}
		}
		// The in-flight insert must not be visible in a scan.
		count := 0
		if err := e2.HeapScan(tx3, store, func(rid page.RID, rec []byte) bool {
			if bytes.Equal(rec, []byte("in-flight")) {
				t.Error("in-flight insert survived recovery")
				return false
			}
			count++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if count != 100 {
			t.Fatalf("scan after recovery saw %d rows, want 100", count)
		}
		if err := e2.Commit(tx3); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCrashRecoveryUncommittedInvisible(t *testing.T) {
	// Without any flush, uncommitted work simply vanishes with the
	// volatile log tail.
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	e, err := Open(vol, logStore, StageConfig(StageFinal))
	if err != nil {
		t.Fatal(err)
	}
	store := createTable(t, e)
	tx1, _ := e.Begin()
	if _, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	e.CrashHard() // no commit, no flush

	e2 := reopen(t, vol, logStore, StageFinal)
	// The store may not even exist (nothing durable); either way no ghost.
	for _, st := range e2.Space().Stores() {
		tx2, _ := e2.Begin()
		_ = e2.HeapScan(tx2, st, func(rid page.RID, rec []byte) bool {
			if bytes.Equal(rec, []byte("ghost")) {
				t.Error("unflushed uncommitted record visible after crash")
			}
			return true
		})
		_ = e2.Commit(tx2)
	}
}

func TestCrashRecoveryIndex(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 128
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx1, _ := e.Begin()
	ix, err := e.CreateIndex(tx1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000 // force splits
	for i := 0; i < n; i++ {
		if err := e.IndexInsert(tx1, ix, []byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	ixStore := ix.Store()
	// Loser transaction touching the index, flushed but uncommitted.
	tx2, _ := e.Begin()
	if err := e.IndexInsert(tx2, ix, []byte("loser-key"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IndexDeleteCtx(context.Background(), tx2, ix, []byte("key000500")); err != nil {
		t.Fatal(err)
	}
	if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
		t.Fatal(err)
	}
	e.CrashHard()

	e2 := reopen(t, vol, logStore, StageFinal)
	ix2, err := e2.OpenIndex(ixStore)
	if err != nil {
		t.Fatal(err)
	}
	tx3, _ := e2.Begin()
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, ok, err := e2.IndexLookupCtx(context.Background(), tx3, ix2, k)
		if err != nil || !ok {
			t.Fatalf("committed key %s lost after recovery: %v %v", k, ok, err)
		}
		if want := fmt.Sprintf("val%d", i); string(v) != want {
			t.Fatalf("key %s = %q, want %q", k, v, want)
		}
	}
	if _, ok, _ := e2.IndexLookupCtx(context.Background(), tx3, ix2, []byte("loser-key")); ok {
		t.Fatal("loser insert survived recovery")
	}
	if err := e2.Commit(tx3); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyTableSurvivesRestart: a committed table with no rows is still
// there after a crash and after a clean close. It scans empty, and its
// store id is not handed out again.
func TestEmptyTableSurvivesRestart(t *testing.T) {
	for _, how := range []string{"crash", "close"} {
		t.Run(how, func(t *testing.T) {
			e, vol, logStore := newEngine(t, StageFinal)
			store := createTable(t, e)
			if how == "crash" {
				e.CrashHard()
			} else if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e2 := reopen(t, vol, logStore, StageFinal)
			t2, err := e2.Begin()
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			if err := e2.HeapScan(t2, store, func(page.RID, []byte) bool { rows++; return true }); err != nil {
				t.Fatalf("scan of the empty table %d: %v", store, err)
			}
			if rows != 0 {
				t.Fatalf("the empty table scans %d rows", rows)
			}
			if next, err := e2.CreateTable(t2); err != nil || next == store {
				t.Fatalf("CreateTable after the restart = %d, %v; table %d exists", next, err, store)
			}
			if err := e2.Commit(t2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointShortensRecovery: whether a checkpoint's dirty-page table
// comes from a serial sweep of the pool (StageBpool2, the last stage that
// sweeps) or from the cleaner's low-water mark (StageFinal), recovery
// from it finds the rows committed on both sides of it.
func TestCheckpointShortensRecovery(t *testing.T) {
	for _, c := range []struct {
		name  string
		stage Stage
	}{{"sweepCkpt", StageBpool2}, {"cleanerCkpt", StageFinal}} {
		t.Run(c.name, func(t *testing.T) {
			vol := disk.NewMem(0)
			logStore := wal.NewMemSegmentStore(0)
			cfg := StageConfig(c.stage)
			cfg.Frames = 128
			e, err := Open(vol, logStore, cfg)
			if err != nil {
				t.Fatal(err)
			}
			store := createTable(t, e)
			tx1, _ := e.Begin()
			rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("pre-ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(tx1); err != nil {
				t.Fatal(err)
			}
			if c.stage.CleanerCheckpoint() {
				e.Pool().CleanerSweep()
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			tx2, _ := e.Begin()
			rid2, err := e.HeapInsertCtx(context.Background(), tx2, store, []byte("post-ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(tx2); err != nil {
				t.Fatal(err)
			}
			e.CrashHard()

			e2 := reopen(t, vol, logStore, c.stage)
			tx3, _ := e2.Begin()
			if got, err := e2.HeapReadCtx(context.Background(), tx3, store, rid); err != nil || string(got) != "pre-ckpt" {
				t.Fatalf("pre-ckpt row: %q, %v", got, err)
			}
			if got, err := e2.HeapReadCtx(context.Background(), tx3, store, rid2); err != nil || string(got) != "post-ckpt" {
				t.Fatalf("post-ckpt row: %q, %v", got, err)
			}
			if err := e2.Commit(tx3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentTransactionsDisjointTables(t *testing.T) {
	// The record-insert microbenchmark shape: one private table per
	// worker, no logical contention.
	allStages(t, func(t *testing.T, stage Stage) {
		e, _, _ := newEngine(t, stage)
		const g, n = 4, 100
		stores := make([]uint32, g)
		for i := range stores {
			s := createTable(t, e)
			stores[i] = s
		}
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				txw, err := e.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					if _, err := e.HeapInsertCtx(context.Background(), txw, stores[w], []byte(fmt.Sprintf("w%d-row%d", w, i))); err != nil {
						t.Errorf("worker %d insert %d: %v", w, i, err)
						return
					}
					if i%25 == 24 {
						if err := e.Commit(txw); err != nil {
							t.Error(err)
							return
						}
						if txw, err = e.Begin(); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if err := e.Commit(txw); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		// Verify counts.
		for w := 0; w < g; w++ {
			txv, _ := e.Begin()
			count := 0
			if err := e.HeapScan(txv, stores[w], func(page.RID, []byte) bool {
				count++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if count != n {
				t.Fatalf("store %d has %d rows, want %d", w, count, n)
			}
			if err := e.Commit(txv); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestRowLockConflictBlocksAndResolves(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	tx1, _ := e.Begin()
	rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	// tx2 updates and holds the X lock; tx3's read must wait for commit.
	tx2, _ := e.Begin()
	if err := e.HeapUpdateCtx(context.Background(), tx2, store, rid, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	readDone := make(chan string, 1)
	go func() {
		tx3, _ := e.Begin()
		got, err := e.HeapReadCtx(context.Background(), tx3, store, rid)
		if err != nil {
			readDone <- "err:" + err.Error()
			return
		}
		_ = e.Commit(tx3)
		readDone <- string(got)
	}()
	if err := e.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	if got := <-readDone; got != "v1" {
		t.Fatalf("reader saw %q, want v1 (committed)", got)
	}
}

func TestLockEscalation(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	tx1, _ := e.Begin()
	for i := 0; i < escalateAfter+44; i++ {
		if _, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	// After escalation the transaction holds a store-level X lock.
	if m := tx1.HeldMode(lock.StoreName(store)); m != lock.X {
		t.Fatalf("store held in %v after %d row locks (threshold %d), want X", m, escalateAfter+44, escalateAfter)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
}

// TestEscalationNeverWaits: on the index path, an escalation refused by
// another transaction's intent lock costs the writer nothing — it goes on
// locking keys without waiting, where a blocking try waited out the lock
// timeout on every key past the threshold — and an unopposed escalation
// goes through. TestLockEscalation covers the heap path.
func TestEscalationNeverWaits(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	const keys = escalateAfter + 44
	setup, _ := e.Begin()
	ix, err := e.CreateIndex(setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}
	insertKeys := func(tx1 *tx.Tx, prefix string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := e.IndexInsert(tx1, ix, fmt.Appendf(nil, "%s-%03d", prefix, i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}

	holder, _ := e.Begin()
	insertKeys(holder, "a", 1) // IX on the index's store
	writer, _ := e.Begin()
	insertKeys(writer, "b", keys)
	if st := e.Stats().Lock; st.Waits != 0 || st.Timeouts != 0 {
		t.Fatalf("%d keys past a refused escalation: %d lock waits, %d timeouts; want 0 and 0", keys, st.Waits, st.Timeouts)
	}
	if m := writer.HeldMode(lock.StoreName(ix.Store())); m == lock.X {
		t.Fatal("escalated to X over another transaction's IX")
	}
	for _, x := range []*tx.Tx{holder, writer} {
		if err := e.Commit(x); err != nil {
			t.Fatal(err)
		}
	}

	alone, _ := e.Begin()
	insertKeys(alone, "c", keys)
	if m := alone.HeldMode(lock.StoreName(ix.Store())); m != lock.X {
		t.Fatalf("store held in %v with no other holder; want X", m)
	}
	if got := e.Locks().Holds(alone.ID(), lock.StoreName(ix.Store())); got != lock.X {
		t.Fatalf("manager holds the store in %v, want X", got)
	}
	if err := e.Commit(alone); err != nil {
		t.Fatal(err)
	}
}

// TestEscalatedReaderInsertLocksRow: a transaction that escalated to a
// store S lock by reading still locks the rows it inserts, since S covers
// reads only. Were the new row left unlocked, a reader holding IS could
// S-lock it and see it before the insert commits.
func TestEscalatedReaderInsertLocksRow(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	setup, _ := e.Begin()
	rids := make([]page.RID, escalateAfter+44)
	var err error
	for i := range rids {
		if rids[i], err = e.HeapInsertCtx(context.Background(), setup, store, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}

	t1, _ := e.Begin()
	for _, rid := range rids {
		if _, err := e.HeapReadCtx(context.Background(), t1, store, rid); err != nil {
			t.Fatal(err)
		}
	}
	if m := t1.HeldMode(lock.StoreName(store)); m != lock.S {
		t.Fatalf("store held in %v after %d reads (threshold %d); want S", m, len(rids), escalateAfter)
	}
	rid, err := e.HeapInsertCtx(context.Background(), t1, store, []byte("uncommitted"))
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := e.Begin()
	if err := e.Locks().Acquire(context.Background(), t2.ID(), lock.RowName(store, rid), lock.S, true); !errors.Is(err, lock.ErrWouldBlock) {
		t.Fatalf("second transaction's S on the uncommitted row: %v, want ErrWouldBlock", err)
	}
	for _, x := range []*tx.Tx{t1, t2} {
		if err := e.Commit(x); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEscalationBackoff: a writer whose escalation another transaction's
// intent lock refuses retries it only each time its row count doubles
// (at 257, 513 and 1 025 of 2 000 rows here), not on every row past the
// threshold: its inserts cost one lock-table latch trip per row, plus the
// intents and a few tries.
func TestEscalationBackoff(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	holder, _ := e.Begin()
	if _, err := e.HeapInsertCtx(context.Background(), holder, store, []byte("h")); err != nil { // IX on the heap
		t.Fatal(err)
	}
	latches := func() uint64 { return e.Stats().Lock.Latch.Acquisitions }
	// Stats itself walks the table under every bucket latch once, after
	// reading the counters: measure that walk to take it out.
	w0 := latches()
	walk := latches() - w0

	t1, _ := e.Begin()
	before := latches()
	const rows = 2000
	for i := 0; i < rows; i++ {
		if _, err := e.HeapInsertCtx(context.Background(), t1, store, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if got := latches() - before - walk; got > rows+8 {
		t.Errorf("%d rows past a refused escalation took %d lock-table latch acquisitions, want <= %d", rows, got, rows+8)
	}
	if m := t1.HeldMode(lock.StoreName(store)); m == lock.X {
		t.Fatal("escalated to X over another transaction's IX")
	}
	if st := e.Locks().Stats(); st.Escalations != 0 || st.EscalationsRefused != 3 {
		t.Errorf("escalations %d granted, %d refused; want 0 and 3 (at 257, 513, 1025 rows)", st.Escalations, st.EscalationsRefused)
	}
	for _, x := range []*tx.Tx{holder, t1} {
		if err := e.Commit(x); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDoubleCommitFails(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	tx1, _ := e.Begin()
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx1); err == nil {
		t.Fatal("double commit succeeded")
	}
}

func TestStageConfigPresets(t *testing.T) {
	base := StageConfig(StageBaseline)
	if base.Buffer.AtomicPin || base.LogDesign != wal.DesignCoupled || !base.Space.LatchInCS {
		t.Errorf("baseline preset wrong: %+v", base)
	}
	final := StageConfig(StageFinal)
	if !final.Buffer.TransitBypass || final.LogDesign != wal.DesignConsolidated {
		t.Errorf("final preset wrong: %+v", final)
	}
	for _, s := range Stages() {
		if s.String() == "unknown" {
			t.Errorf("stage %d has no name", s)
		}
	}
}

// TestStageDecides pins what each stage decides beyond StageConfig's
// fields: the lock-table probe below StageFinal, the cleaner-tracked
// checkpoint from StageFinal on, early lock release at StagePipeline
// only, and whether a shared tree opens with an OptEnv (from StageFinal
// on), a PLP forest's segments do (always, counting apart), and a
// segment opened for rollback does (always, counting with shared trees).
func TestStageDecides(t *testing.T) {
	for _, c := range []struct {
		stage                 Stage
		probe, cleaner, early bool
		optimistic            bool
	}{
		{StageBaseline, true, false, false, false},
		{StageBpool1, true, false, false, false},
		{StageCaching, true, false, false, false},
		{StageLog, true, false, false, false},
		{StageLockMgr, true, false, false, false},
		{StageBpool2, true, false, false, false},
		{StageFinal, false, true, false, true},
		{StagePipeline, false, true, true, true},
	} {
		t.Run(c.stage.String(), func(t *testing.T) {
			s := c.stage
			if s.ProbesLockTable() != c.probe || s.CleanerCheckpoint() != c.cleaner || s.EarlyLockRelease() != c.early {
				t.Errorf("probe %v, cleaner checkpoint %v, early lock release %v; want %v, %v, %v",
					s.ProbesLockTable(), s.CleanerCheckpoint(), s.EarlyLockRelease(), c.probe, c.cleaner, c.early)
			}
			e := &Engine{cfg: StageConfig(s), pool: new(buffer.Pool)}
			for _, r := range []struct {
				role       treeRole
				optimistic bool
				stats      *btree.OLCStats
			}{
				{sharedTree, c.optimistic, &e.olc},
				{forestSeg, true, &e.segOLC},
				{rollbackSeg, true, &e.olc},
			} {
				if opt, stats := e.treeEnv(r.role); (opt != nil) != r.optimistic || stats != r.stats {
					t.Errorf("role %d: OptEnv %v, counters as wanted %v; want %v, true", r.role, opt != nil, stats == r.stats, r.optimistic)
				}
			}
		})
	}
	if n := len(Stages()); n != 8 {
		t.Errorf("%d stages, the table covers 8", n)
	}
}

// TestSnapshotBringsCheckpointCadence: version GC runs only inside a
// checkpoint, so Snapshot without a cadence gets one; a caller's own
// cadence is kept, and without Snapshot none is added.
func TestSnapshotBringsCheckpointCadence(t *testing.T) {
	for _, c := range []struct {
		name      string
		snapshot  bool
		every     int64
		wantEvery int64
	}{
		{"snapshot alone", true, 0, 8 << 20},
		{"snapshot with a cadence", true, 64 << 20, 64 << 20},
		{"no snapshot", false, 0, 0},
	} {
		cfg := StageConfig(StageFinal)
		cfg.Snapshot, cfg.CheckpointEvery = c.snapshot, c.every
		cfg.normalize()
		if cfg.CheckpointEvery != c.wantEvery {
			t.Errorf("%s: CheckpointEvery %d, want %d", c.name, cfg.CheckpointEvery, c.wantEvery)
		}
	}
}

func TestEngineStatsPopulated(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	tx1, _ := e.Begin()
	for i := 0; i < 50; i++ {
		if _, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Log.Inserts == 0 || st.Lock.Acquires == 0 || st.Space.Allocs == 0 || st.Tx.Commits != 2 {
		t.Errorf("stats look empty: %+v", st)
	}
}

// TestGroupCommitRecoversAsOne: one commit record commits a group of
// transactions (a partitioned transaction's sub-transactions), so restart
// recovery keeps every member's writes, not only those of the member
// whose id the record carries.
func TestGroupCommitRecoversAsOne(t *testing.T) {
	vol, logStore := disk.NewMem(0), wal.NewMemSegmentStore(0)
	e, err := Open(vol, logStore, StageConfig(StageFinal))
	if err != nil {
		t.Fatal(err)
	}
	store := createTable(t, e)
	var group []*tx.Tx
	for i := 0; i < 3; i++ {
		tr, _ := e.Begin()
		if _, err := e.HeapInsertCtx(context.Background(), tr, store, []byte(fmt.Sprintf("member-%d", i))); err != nil {
			t.Fatal(err)
		}
		group = append(group, tr)
	}
	if err := e.precommit(group...); err != nil {
		t.Fatal(err)
	}
	for _, tr := range group {
		if err := e.Commit(tr); err != nil {
			t.Fatal(err)
		}
	}
	e.CrashHard()
	e2, err := Open(vol, logStore, StageConfig(StageFinal))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tr, _ := e2.Begin()
	n := 0
	if err := e2.HeapScan(tr, store, func(page.RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != len(group) {
		t.Fatalf("%d of the group's %d rows survived the crash", n, len(group))
	}
	if err := e2.Commit(tr); err != nil {
		t.Fatal(err)
	}
}

// TestOneEntryPointPerOperation: an operation has one entry point, its
// ctx form. The five context-free twins left serve perf/, a module of its
// own that cannot see a test helper; ROADMAP item 16 moves perf into this
// module and frees them.
func TestOneEntryPointPerOperation(t *testing.T) {
	forPerf := map[string]bool{"Begin": true, "Commit": true, "HeapScan": true, "IndexInsert": true, "IndexScan": true}
	typ := reflect.TypeOf((*Engine)(nil))
	twins := 0
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if _, ok := typ.MethodByName(name + "Ctx"); !ok {
			continue
		}
		twins++
		if !forPerf[name] {
			t.Errorf("Engine.%s duplicates Engine.%sCtx: keep the ctx form only", name, name)
		}
	}
	if twins != len(forPerf) {
		t.Errorf("%d context-free twins, want the %d perf/ calls: drop the freed ones from this list", twins, len(forPerf))
	}
}
