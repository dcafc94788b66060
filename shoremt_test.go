package shoremt

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tx"
)

func openTest(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.CleanerInterval == 0 {
		opts.CleanerInterval = -1 // keep tests deterministic
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestCloseIdempotent(t *testing.T) {
	db := openTest(t, Options{})
	ctx := context.Background()
	err := db.Update(ctx, func(tx *Tx) error {
		_, err := db.CreateTable(tx)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	// Every later call — a signal handler racing a deferred cleanup, an
	// error path double close — must be a silent no-op.
	for i := 0; i < 3; i++ {
		if err := db.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+2, err)
		}
	}
}

func TestCloseIdempotentConcurrent(t *testing.T) {
	db := openTest(t, Options{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = db.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close %d: %v", i, err)
		}
	}
}

func TestPublicTableRoundTrip(t *testing.T) {
	db := openTest(t, Options{})
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(tx)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tb.Insert(tx, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tb.Get(tx, rid); err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := tb.Update(tx, rid, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Reopen handle by id.
	tb2 := db.OpenTable(tb.ID())
	tx2, _ := db.Begin()
	if got, err := tb2.Get(tx2, rid); err != nil || string(got) != "world" {
		t.Fatalf("after commit: %q, %v", got, err)
	}
	count := 0
	if err := tb2.Scan(tx2, func(_ RID, rec []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("scan count = %d", count)
	}
	if err := tb2.Delete(tx2, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tb2.Get(tx2, rid); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("get after delete = %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicIndexErrors(t *testing.T) {
	db := openTest(t, Options{})
	tx, _ := db.Begin()
	ix, err := db.CreateIndex(tx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(tx, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(tx, []byte("k"), []byte("v2")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate = %v", err)
	}
	if err := ix.Update(tx, []byte("missing"), []byte("v")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing = %v", err)
	}
	if _, err := ix.Delete(tx, []byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing = %v", err)
	}
	old, err := ix.Delete(tx, []byte("k"))
	if err != nil || string(old) != "v1" {
		t.Fatalf("delete = %q, %v", old, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestGetReturnsOwnedCopies: a value Get or GetForUpdate returned is the
// caller's, unchanged after its transaction commits and the next one on
// the same goroutine reads and rewrites the same rows (a transaction's
// scratch memory goes to the next when it ends).
func TestGetReturnsOwnedCopies(t *testing.T) {
	db := openTest(t, Options{})
	tx, _ := db.Begin()
	ix, err := db.CreateIndex(tx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := ix.Insert(tx, []byte(k), []byte(strings.Repeat(k, 64))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = db.Begin()
	a, _, err := ix.Get(tx, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ix.GetForUpdate(tx, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = db.Begin()
	for _, k := range []string{"c", "a", "b"} {
		if _, _, err := ix.GetForUpdate(tx, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if err := ix.Update(tx, []byte(k), []byte(strings.Repeat("z", 64))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if string(a) != strings.Repeat("a", 64) || string(b) != strings.Repeat("b", 64) {
		t.Fatalf("values changed after their transaction ended: Get %q, GetForUpdate %q", a, b)
	}
}

func TestTxDoneGuards(t *testing.T) {
	db := openTest(t, Options{})
	tx, _ := db.Begin()
	tb, err := db.CreateTable(tx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("abort after commit = %v", err)
	}
	if _, err := tb.Insert(tx, []byte("x")); !errors.Is(err, ErrTxDone) {
		t.Errorf("insert on done tx = %v", err)
	}
	if _, err := tb.Get(tx, RID{}); !errors.Is(err, ErrTxDone) {
		t.Errorf("get on done tx = %v", err)
	}
}

// TestCall runs registered programs through DB.Call: the result, the
// three refusals (unknown id, a writer under View, a finished Tx) and a
// program's own rollback, which undoes its writes and is not retried.
func TestCall(t *testing.T) {
	db := openTest(t, Options{})
	ctx := context.Background()
	tb := db.OpenTable(0)
	if err := db.Update(ctx, func(tx *Tx) (err error) {
		tb, err = db.CreateTable(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	runs := 0
	insert := db.Engine().RegisterProgram(core.Program{Run: func(ctx context.Context, t *tx.Tx, args, out []byte) ([]byte, error) {
		runs++
		if _, err := db.Engine().HeapInsertCtx(ctx, t, tb.ID(), args); err != nil {
			return out, err
		}
		if string(args) == "undo" {
			return out, fmt.Errorf("program: %w", ErrRollback)
		}
		return append(out, "inserted "...), nil
	}})
	echo := db.Engine().RegisterProgram(core.Program{ReadOnly: true, Run: func(_ context.Context, _ *tx.Tx, args, out []byte) ([]byte, error) {
		return append(out, args...), nil
	}})

	var got []byte
	if err := db.Update(ctx, func(tx *Tx) (err error) {
		got, err = db.Call(tx, insert, []byte("row"), []byte("> "))
		return err
	}); err != nil || string(got) != "> inserted " {
		t.Fatalf("Call = %q, %v", got, err)
	}
	if err := db.View(ctx, func(tx *Tx) (err error) {
		got, err = db.Call(tx, echo, []byte("hi"), nil)
		return err
	}); err != nil || string(got) != "hi" {
		t.Fatalf("read-only Call under View = %q, %v", got, err)
	}
	if err := db.View(ctx, func(tx *Tx) error { _, err := db.Call(tx, insert, []byte("x"), nil); return err }); !errors.Is(err, ErrReadOnly) {
		t.Errorf("writer under View = %v, want ErrReadOnly", err)
	}
	if err := db.Update(ctx, func(tx *Tx) error { _, err := db.Call(tx, echo+1, nil, nil); return err }); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id = %v, want ErrNotFound", err)
	}
	tx, _ := db.Begin()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Call(tx, echo, nil, nil); !errors.Is(err, ErrTxDone) {
		t.Errorf("Call on a finished Tx = %v, want ErrTxDone", err)
	}

	runs = 0
	if err := db.Update(ctx, func(tx *Tx) error { _, err := db.Call(tx, insert, []byte("undo"), nil); return err }); !errors.Is(err, ErrRollback) || runs != 1 {
		t.Errorf("rolling-back program = %v after %d runs, want ErrRollback after 1", err, runs)
	}
	rows := 0
	if err := db.View(ctx, func(tx *Tx) error {
		return tb.Scan(tx, func(RID, []byte) bool { rows++; return true })
	}); err != nil || rows != 1 {
		t.Errorf("%d rows after one insert and one rolled back (%v), want 1", rows, err)
	}
}

func TestPublicAbortRollsBack(t *testing.T) {
	db := openTest(t, Options{})
	tx, _ := db.Begin()
	ix, err := db.CreateIndex(tx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(tx, []byte("keep"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin()
	if err := ix.Insert(tx2, []byte("drop"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := db.Begin()
	if _, ok, _ := ix.Get(tx3, []byte("drop")); ok {
		t.Fatal("aborted key visible")
	}
	if _, ok, _ := ix.Get(tx3, []byte("keep")); !ok {
		t.Fatal("committed key lost")
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestFileBackedPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CleanerInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	ix, err := db.CreateIndex(tx)
	if err != nil {
		t.Fatal(err)
	}
	ixID := ix.ID()
	for i := 0; i < 200; i++ {
		if err := ix.Insert(tx, []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Files exist.
	if _, err := filepath.Glob(filepath.Join(dir, "*")); err != nil {
		t.Fatal(err)
	}
	// Reopen: recovery replays/loads the durable state.
	db2 := openTest(t, Options{Dir: dir})
	ix2, err := db2.OpenIndex(ixID)
	if err != nil {
		t.Fatal(err)
	}
	tx2, _ := db2.Begin()
	count := 0
	if err := ix2.Scan(tx2, nil, nil, func(k, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("reopened index has %d keys, want 200", count)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyFlatLogRefused: a directory with the flat wal.log of an earlier
// version and no wal/ is refused, untouched, not opened over an empty log.
func TestLegacyFlatLogRefused(t *testing.T) {
	dir := t.TempDir()
	flat := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(flat, []byte("SHORELOG and records"), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(Options{Dir: dir}); err == nil {
		db.Close()
		t.Fatal("Open started an empty log next to a flat wal.log")
	} else if !strings.Contains(err.Error(), "wal.log") {
		t.Fatalf("Open = %v; the error does not name wal.log", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("the refused Open left %v in the directory (%v)", ents, err)
	}
	if err := os.Remove(flat); err != nil {
		t.Fatal(err)
	}
	openTest(t, Options{Dir: dir})
}

func TestStagesAllFunctional(t *testing.T) {
	for _, stage := range Stages() {
		stage := stage
		t.Run(stage.String(), func(t *testing.T) {
			db := openTest(t, Options{Stage: stage, BufferFrames: 128})
			tx, _ := db.Begin()
			tb, err := db.CreateTable(tx)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if _, err := tb.Insert(tx, []byte("row")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			st := db.Stats()
			if st.Tx.Commits != 1 {
				t.Errorf("commits = %d", st.Tx.Commits)
			}
		})
	}
}

func TestBufferShardsOption(t *testing.T) {
	// An explicit shard count survives plumbing into the engine, and the
	// pre-bpool2 stages keep the original single clock hand by default.
	db := openTest(t, Options{BufferShards: 2, BufferFrames: 128})
	if got := len(db.Stats().Buffer.Shards); got != 2 {
		t.Fatalf("shard count = %d, want 2", got)
	}
	ctx := context.Background()
	var rid RID
	tb := (*Table)(nil)
	err := db.Update(ctx, func(tx *Tx) error {
		var err error
		tb, err = db.CreateTable(tx)
		if err != nil {
			return err
		}
		rid, err = tb.Insert(tx, []byte("sharded"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.View(ctx, func(tx *Tx) error {
		got, err := tb.Get(tx, rid)
		if err != nil || string(got) != "sharded" {
			return fmt.Errorf("Get = %q, %v", got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh pool serves its first misses from the free lists.
	if st := db.Stats().Buffer; st.FreeListHits == 0 {
		t.Errorf("no free-list allocations recorded: %+v", st)
	}

	base := openTest(t, Options{Stage: StageBaseline, BufferFrames: 128})
	if got := len(base.Stats().Buffer.Shards); got != 1 {
		t.Errorf("baseline shard count = %d, want 1", got)
	}
}

func TestDefaultStageIsFinal(t *testing.T) {
	// The zero Options must open the finished Shore-MT, not the baseline.
	db := openTest(t, Options{})
	cfg := db.Engine().Config()
	if cfg.Stage.String() != "final" {
		t.Fatalf("default stage = %q, want final", cfg.Stage)
	}
	if StageDefault.String() != "final" || StageBaseline.String() != "baseline" {
		t.Errorf("stage names: default=%q baseline=%q", StageDefault, StageBaseline)
	}
	if len(Stages()) != 8 {
		t.Errorf("Stages() has %d entries", len(Stages()))
	}
	if StagePipeline.String() != "pipeline" {
		t.Errorf("pipeline stage name = %q", StagePipeline)
	}
}

func TestCommitAsyncDurable(t *testing.T) {
	db := openTest(t, Options{Stage: StagePipeline, BufferFrames: 128})
	tx1, _ := db.Begin()
	tb, err := db.CreateTable(tx1)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tb.Insert(tx1, []byte("async"))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := tx1.CommitAsync()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err != nil {
		t.Fatalf("async commit: %v", err)
	}
	if _, err := tx1.CommitAsync(); err != ErrTxDone {
		t.Fatalf("second CommitAsync: %v", err)
	}
	tx2, _ := db.Begin()
	got, err := tb.Get(tx2, rid)
	if err != nil || string(got) != "async" {
		t.Fatalf("after async commit: %q, %v", got, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Log.Flushes == 0 {
		t.Errorf("the log's flusher never ran: %+v", st.Log)
	}
}

// TestCommitAsyncWorksAtEveryStage: the same call on every stage; only
// whether the locks are gone when it returns differs.
func TestCommitAsyncWorksAtEveryStage(t *testing.T) {
	for _, stage := range []Stage{StageBaseline, StageFinal, StagePipeline} {
		stage := stage
		t.Run(stage.String(), func(t *testing.T) {
			db := openTest(t, Options{Stage: stage, BufferFrames: 128})
			tx1, _ := db.Begin()
			tb, err := db.CreateTable(tx1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Insert(tx1, []byte("x")); err != nil {
				t.Fatal(err)
			}
			ch, err := tx1.CommitAsync()
			if err != nil {
				t.Fatal(err)
			}
			if err := <-ch; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDurabilityRelaxedCommit(t *testing.T) {
	db := openTest(t, Options{Stage: StagePipeline, Durability: DurabilityRelaxed, BufferFrames: 128})
	tx1, _ := db.Begin()
	tb, err := db.CreateTable(tx1)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tb.Insert(tx1, []byte("relaxed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Relaxed commit released locks at pre-commit: the row is readable
	// immediately even if hardening is still in flight.
	tx2, _ := db.Begin()
	got, err := tb.Get(tx2, rid)
	if err != nil || string(got) != "relaxed" {
		t.Fatalf("after relaxed commit: %q, %v", got, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLockTimeoutSurfaces(t *testing.T) {
	db := openTest(t, Options{LockTimeout: 50 * time.Millisecond})
	tx1, _ := db.Begin()
	tb, err := db.CreateTable(tx1)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tb.Insert(tx1, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin()
	if err := tb.Update(tx2, rid, []byte("w")); err != nil {
		t.Fatal(err)
	}
	// Without the deadlock detector firing (no cycle), a conflicting read
	// must time out.
	tx3, _ := db.Begin()
	_, err = tb.Get(tx3, rid)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("conflicting read = %v, want timeout", err)
	}
	_ = tx3.Abort()
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicOLCOption drives index traffic with optimistic latch
// coupling on through the managed API and checks the new stats surface.
func TestPublicOLCOption(t *testing.T) {
	db := openTest(t, Options{OLC: true})
	ctx := context.Background()
	var ix *Index
	err := db.Update(ctx, func(tx *Tx) error {
		var err error
		ix, err = db.CreateIndex(tx)
		if err != nil {
			return err
		}
		for i := 0; i < 1500; i++ {
			if err := ix.Insert(tx, []byte(fmt.Sprintf("key%06d", i)), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.View(ctx, func(tx *Tx) error {
		for i := 0; i < 1500; i += 7 {
			k := []byte(fmt.Sprintf("key%06d", i))
			v, ok, err := ix.Get(tx, k)
			if err != nil || !ok || string(v) != "v" {
				return fmt.Errorf("Get(%s) = %q, %v, %v", k, v, ok, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Stats().Btree
	if s.OptDescents == 0 {
		t.Fatal("OLC enabled but no optimistic descents recorded")
	}
	if s.OptDescents < 10*(s.Restarts+s.Fallbacks) {
		t.Fatalf("optimistic descents (%d) should dwarf restarts (%d) + fallbacks (%d) on this mix",
			s.OptDescents, s.Restarts, s.Fallbacks)
	}
}

// TestPublicAutoCheckpoint checks that Options.CheckpointEvery bounds
// recovery without any manual DB.Checkpoint call: the log's master
// record advances on its own as committed work accumulates.
func TestPublicAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CleanerInterval: -1, CheckpointEvery: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	var tb *Table
	var rid RID
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := db.Update(ctx, func(tx *Tx) error {
			if tb == nil {
				var err error
				if tb, err = db.CreateTable(tx); err != nil {
					return err
				}
			}
			for i := 0; i < 16; i++ {
				var err error
				if rid, err = tb.Insert(tx, make([]byte, 200)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		master, err := db.logStore.Master()
		if err != nil {
			t.Fatal(err)
		}
		if master > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-checkpoint never ran")
		}
	}
	// Reopen (clean close flushes; the point is the master moved on its
	// own) and confirm the data is there.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir, CleanerInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tb2 := db2.OpenTable(tb.ID())
	err = db2.View(ctx, func(tx *Tx) error {
		got, err := tb2.Get(tx, rid)
		if err != nil || len(got) != 200 {
			return fmt.Errorf("Get(%v) = %d bytes, %v", rid, len(got), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
