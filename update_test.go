package shoremt

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/wal"
	"repro/internal/waltest"
)

// TestUpdateTransferWorkloadNoVisibleDeadlocks is the headline guarantee
// of the managed API: under 8-way contention with random lock order,
// DB.Update commits every transfer with zero caller-visible deadlock or
// timeout errors — the engine absorbs them — and money is conserved.
func TestUpdateTransferWorkloadNoVisibleDeadlocks(t *testing.T) {
	// Deadlock detection (on by default at StageFinal) converts cycles
	// into retryable victims within milliseconds; the lock timeout is kept
	// generous so an oversubscribed CI machine cannot turn honest FIFO
	// waits into timeout storms. The attempt budget absorbs the victims.
	db := openTest(t, Options{
		LockTimeout: 2 * time.Second,
		Retry:       RetryPolicy{MaxAttempts: 100},
	})
	const (
		accounts = 16
		workers  = 8
		perW     = 25
		initial  = 1000
	)
	key := func(i int) []byte { return []byte(fmt.Sprintf("a%03d", i)) }
	enc := func(v int64) []byte { return []byte(strconv.FormatInt(v, 10)) }
	dec := func(b []byte) int64 {
		v, err := strconv.ParseInt(string(b), 10, 64)
		if err != nil {
			t.Errorf("bad balance %q", b)
		}
		return v
	}

	var ix *Index
	if err := db.Update(context.Background(), func(tx *Tx) error {
		var err error
		ix, err = db.CreateIndex(tx)
		if err != nil {
			return err
		}
		for i := 0; i < accounts; i++ {
			if err := ix.Insert(tx, key(i), enc(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				from, to := (w*7+i)%accounts, (w*3+i*5+1)%accounts
				if from == to {
					continue
				}
				err := db.Update(context.Background(), func(tx *Tx) error {
					fb, _, err := ix.Get(tx, key(from))
					if err != nil {
						return err
					}
					tb, _, err := ix.Get(tx, key(to))
					if err != nil {
						return err
					}
					if err := ix.Update(tx, key(from), enc(dec(fb)-1)); err != nil {
						return err
					}
					return ix.Update(tx, key(to), enc(dec(tb)+1))
				})
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d transfer %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d caller-visible errors (want 0)", failures.Load())
	}

	var total int64
	if err := db.View(context.Background(), func(tx *Tx) error {
		total = 0
		return ix.Scan(tx, nil, nil, func(k, v []byte) bool {
			total += dec(v)
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("money not conserved: %d != %d", total, accounts*initial)
	}
}

// TestUpdateCancelUnblocksConflictingWait: with LockTimeout at 5s, a
// cancelled Update blocked on a conflicting row lock returns in under
// 100ms with ErrCanceled, and the lock stays grantable.
func TestUpdateCancelUnblocksConflictingWait(t *testing.T) {
	db := openTest(t, Options{LockTimeout: 5 * time.Second})
	var ix *Index
	if err := db.Update(context.Background(), func(tx *Tx) error {
		var err error
		ix, err = db.CreateIndex(tx)
		if err != nil {
			return err
		}
		return ix.Insert(tx, []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}

	holder, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Update(holder, []byte("k"), []byte("held")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- db.Update(ctx, func(tx *Tx) error {
			return ix.Update(tx, []byte("k"), []byte("blocked"))
		})
	}()
	time.Sleep(30 * time.Millisecond) // let the waiter block
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("cancel took %v to unblock (LockTimeout is 5s)", elapsed)
		}
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Update still blocked")
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	// Queue healthy: an uncancelled Update succeeds immediately.
	if err := db.Update(context.Background(), func(tx *Tx) error {
		return ix.Update(tx, []byte("k"), []byte("after"))
	}); err != nil {
		t.Fatalf("lock not grantable after cancelled wait: %v", err)
	}
}

// TestViewRejectsWritesAndAllowsReads: every write method under View
// returns ErrReadOnly; reads work.
func TestViewRejectsWritesAndAllowsReads(t *testing.T) {
	db := openTest(t, Options{})
	var (
		tb  *Table
		ix  *Index
		rid RID
	)
	if err := db.Update(context.Background(), func(tx *Tx) error {
		var err error
		if tb, err = db.CreateTable(tx); err != nil {
			return err
		}
		if ix, err = db.CreateIndex(tx); err != nil {
			return err
		}
		if rid, err = tb.Insert(tx, []byte("row")); err != nil {
			return err
		}
		return ix.Insert(tx, []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}

	err := db.View(context.Background(), func(tx *Tx) error {
		if got, err := tb.Get(tx, rid); err != nil || string(got) != "row" {
			t.Errorf("View Get = %q, %v", got, err)
		}
		if v, ok, err := ix.Get(tx, []byte("k")); err != nil || !ok || string(v) != "v" {
			t.Errorf("View index Get = %q, %v, %v", v, ok, err)
		}
		for name, werr := range map[string]error{
			"table insert": func() error { _, err := tb.Insert(tx, []byte("x")); return err }(),
			"table update": tb.Update(tx, rid, []byte("x")),
			"table delete": tb.Delete(tx, rid),
			"index insert": ix.Insert(tx, []byte("z"), []byte("x")),
			"index update": ix.Update(tx, []byte("k"), []byte("x")),
			"index delete": func() error { _, err := ix.Delete(tx, []byte("k")); return err }(),
			"create table": func() error { _, err := db.CreateTable(tx); return err }(),
			"create index": func() error { _, err := db.CreateIndex(tx); return err }(),
		} {
			if !errors.Is(werr, ErrReadOnly) {
				t.Errorf("%s under View = %v, want ErrReadOnly", name, werr)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing leaked from the rejected writes.
	if err := db.View(context.Background(), func(tx *Tx) error {
		if got, err := tb.Get(tx, rid); err != nil || string(got) != "row" {
			t.Errorf("row mutated by rejected writes: %q, %v", got, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateGivesUpAfterRetryCap: a closure that always reports a
// deadlock runs exactly MaxAttempts times, and the final error still
// matches ErrDeadlock.
func TestUpdateGivesUpAfterRetryCap(t *testing.T) {
	db := openTest(t, Options{Retry: RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond,
	}})
	attempts := 0
	err := db.Update(context.Background(), func(tx *Tx) error {
		attempts++
		return fmt.Errorf("induced: %w", ErrDeadlock)
	})
	if attempts != 3 {
		t.Fatalf("closure ran %d times, want 3", attempts)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want wrapped ErrDeadlock", err)
	}
}

// TestUpdateDoesNotRetryOtherErrors: a non-retryable closure error aborts
// once and is returned verbatim.
func TestUpdateDoesNotRetryOtherErrors(t *testing.T) {
	db := openTest(t, Options{})
	boom := errors.New("boom")
	attempts := 0
	err := db.Update(context.Background(), func(tx *Tx) error {
		attempts++
		return boom
	})
	if attempts != 1 {
		t.Fatalf("closure ran %d times, want 1", attempts)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestManagedTxRefusesLifecycleCalls: Commit/Abort/CommitAsync inside an
// Update or View closure return ErrManaged (the runner owns those).
func TestManagedTxRefusesLifecycleCalls(t *testing.T) {
	db := openTest(t, Options{})
	if err := db.Update(context.Background(), func(tx *Tx) error {
		if err := tx.Commit(); !errors.Is(err, ErrManaged) {
			t.Errorf("Commit = %v, want ErrManaged", err)
		}
		if err := tx.Abort(); !errors.Is(err, ErrManaged) {
			t.Errorf("Abort = %v, want ErrManaged", err)
		}
		if _, err := tx.CommitAsync(); !errors.Is(err, ErrManaged) {
			t.Errorf("CommitAsync = %v, want ErrManaged", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestManualCommitRetryAfterCancelledWait: a manual commit whose
// durability wait is cancelled leaves the transaction in doubt and
// retryable — a second Commit resumes the wait (ignoring the dead
// context, since the caller explicitly asked to finish) and succeeds.
func TestManualCommitRetryAfterCancelledWait(t *testing.T) {
	logStore := waltest.NewGateStore(wal.NewMemSegmentStore(0))
	db, err := OpenStores(disk.NewMem(0), logStore, Options{Stage: StagePipeline, CleanerInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		logStore.Open()
		db.Close()
	})

	ctx, cancel := context.WithCancel(context.Background())
	tx, err := db.BeginCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(tx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(tx, []byte("row")); err != nil {
		t.Fatal(err)
	}
	parked := logStore.Shut()
	go func() {
		<-parked // the commit's flush is in the store: the wait is on
		cancel()
	}()
	if err := tx.Commit(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("first Commit = %v, want ErrCanceled", err)
	}
	logStore.Open()
	if err := tx.Commit(); err != nil {
		t.Fatalf("retried Commit = %v, want nil", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("third Commit = %v, want ErrTxDone", err)
	}
}

// TestBeginCtxAlreadyCancelled: a dead context fails Begin fast.
func TestBeginCtxAlreadyCancelled(t *testing.T) {
	db := openTest(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.BeginCtx(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("BeginCtx = %v, want ErrCanceled", err)
	}
	if err := db.Update(ctx, func(tx *Tx) error { return nil }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Update = %v, want ErrCanceled", err)
	}
}

// TestUpdateWorksAcrossStages: the managed API behaves identically on
// the baseline and pipeline engines (View included).
func TestUpdateWorksAcrossStages(t *testing.T) {
	for _, stage := range []Stage{StageBaseline, StageFinal, StagePipeline} {
		stage := stage
		t.Run(stage.String(), func(t *testing.T) {
			db := openTest(t, Options{Stage: stage})
			var ix *Index
			if err := db.Update(context.Background(), func(tx *Tx) error {
				var err error
				ix, err = db.CreateIndex(tx)
				if err != nil {
					return err
				}
				return ix.Insert(tx, []byte("k"), []byte("v1"))
			}); err != nil {
				t.Fatal(err)
			}
			if err := db.View(context.Background(), func(tx *Tx) error {
				v, ok, err := ix.Get(tx, []byte("k"))
				if err != nil || !ok || string(v) != "v1" {
					t.Errorf("View Get = %q, %v, %v", v, ok, err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
