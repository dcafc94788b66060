package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/tx"
	"repro/internal/wal"
)

// TestCtxCancelUnblocksEngineLockWait: a cancelled context unblocks a
// conflicting row-lock wait in well under the (5s) lock timeout, and the
// held lock remains grantable to a third transaction.
func TestCtxCancelUnblocksEngineLockWait(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 256
	cfg.LockTimeout = 5 * time.Second
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	store := createTable(t, e)
	tx1, _ := e.Begin()
	rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}

	holder, _ := e.Begin()
	if err := e.HeapUpdateCtx(context.Background(), holder, store, rid, []byte("held")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter, _ := e.BeginCtx(ctx)
	errc := make(chan error, 1)
	go func() { errc <- e.HeapUpdateCtx(ctx, waiter, store, rid, []byte("blocked")) }()
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("cancel took %v to unblock (LockTimeout is 5s)", elapsed)
		}
		if !errors.Is(err, lock.ErrCanceled) {
			t.Fatalf("err = %v, want lock.ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter still blocked")
	}
	if err := e.Abort(waiter); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(holder); err != nil {
		t.Fatal(err)
	}
	// Lock queue healthy: a third transaction gets the row immediately.
	tx3, _ := e.Begin()
	if err := e.HeapUpdateCtx(context.Background(), tx3, store, rid, []byte("after")); err != nil {
		t.Fatalf("row not grantable after cancelled wait: %v", err)
	}
	if err := e.Commit(tx3); err != nil {
		t.Fatal(err)
	}
}

// TestCtxCancelDuringHardenWait: cancelling a strict commit's durability
// wait returns at once and leaves the log's subscription list healthy —
// the same transaction can re-await and a later transaction commits
// normally. On both sides of early lock release: the wait is the same,
// only the locks differ.
func TestCtxCancelDuringHardenWait(t *testing.T) {
	for _, stage := range []Stage{StageFinal, StagePipeline} {
		t.Run(stage.String(), func(t *testing.T) {
			e, _, logStore := newGatedEngine(t, stage)
			store := createTable(t, e)
			t1, _ := e.Begin()
			if _, err := e.HeapInsertCtx(context.Background(), t1, store, []byte("slow-commit")); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			parked := logStore.Shut()
			committed := make(chan error, 1)
			go func() { committed <- e.CommitCtx(ctx, t1) }()
			<-parked // the commit's flush is in the store: the wait is on
			cancel()
			if err := <-committed; !errors.Is(err, lock.ErrCanceled) {
				t.Fatalf("CommitCtx = %v, want lock.ErrCanceled", err)
			}
			if t1.State() != tx.StateCommitting {
				t.Fatalf("state after cancelled wait = %v, want StateCommitting", t1.State())
			}
			if held := e.Locks().Stats().LiveRequests > 0; held == stage.EarlyLockRelease() {
				t.Fatalf("locks held through the wait = %v with early lock release = %v", held, stage.EarlyLockRelease())
			}
			// The retry resolves once the flush lands; the abandoned
			// subscription must not have corrupted the list.
			logStore.Open()
			if err := e.CommitCtx(context.Background(), t1); err != nil {
				t.Fatalf("retried commit: %v", err)
			}
			if t1.State() != tx.StateCommitted {
				t.Fatalf("state after retry = %v", t1.State())
			}
			if n := e.Locks().Stats().LiveRequests; n != 0 {
				t.Fatalf("%d live lock requests after the commit", n)
			}
			// And a fresh transaction commits normally afterwards.
			t2, _ := e.Begin()
			if _, err := e.HeapInsertCtx(context.Background(), t2, store, []byte("after")); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(t2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunCtxRetriesDeadlockVictims: the managed runner absorbs induced
// deadlocks (opposite-order row updates) and both workloads commit.
func TestRunCtxRetriesDeadlockVictims(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 256
	cfg.LockTimeout = 2 * time.Second
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	store := createTable(t, e)
	setup, _ := e.Begin()
	ridA, _ := e.HeapInsertCtx(context.Background(), setup, store, []byte("A"))
	ridB, _ := e.HeapInsertCtx(context.Background(), setup, store, []byte("B"))
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}

	policy := RetryPolicy{MaxAttempts: 30}
	done := make(chan error, 2)
	body := func(a, b bool) func(*tx.Tx) error {
		first, second := ridA, ridB
		if !a {
			first, second = ridB, ridA
		}
		return func(t *tx.Tx) error {
			if err := e.HeapUpdateCtx(context.Background(), t, store, first, []byte("x")); err != nil {
				return err
			}
			time.Sleep(5 * time.Millisecond) // widen the deadlock window
			return e.HeapUpdateCtx(context.Background(), t, store, second, []byte("y"))
		}
	}
	go func() { done <- e.RunCtx(context.Background(), policy, body(true, false), nil) }()
	go func() { done <- e.RunCtx(context.Background(), policy, body(false, true), nil) }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("managed runner surfaced error: %v", err)
		}
	}
}

// TestRunCtxGivesUpAfterCap: a body that always reports a deadlock is
// retried exactly MaxAttempts times, then the last error surfaces.
func TestRunCtxGivesUpAfterCap(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	e, err := Open(vol, logStore, StageConfig(StageFinal))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	var attempts atomic.Int64
	policy := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}
	err = e.RunCtx(context.Background(), policy, func(t *tx.Tx) error {
		attempts.Add(1)
		return fmt.Errorf("induced: %w", lock.ErrDeadlock)
	}, nil)
	if got := attempts.Load(); got != 4 {
		t.Fatalf("body ran %d times, want 4", got)
	}
	if !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("err = %v, want wrapped ErrDeadlock", err)
	}
}

// TestRunCtxStopsOnCancel: cancellation between attempts ends the retry
// loop with ErrCanceled instead of burning the attempt budget.
func TestRunCtxStopsOnCancel(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	e, err := Open(vol, logStore, StageConfig(StageFinal))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	var attempts atomic.Int64
	policy := RetryPolicy{MaxAttempts: 1000, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	errc := make(chan error, 1)
	go func() {
		errc <- e.RunCtx(ctx, policy, func(t *tx.Tx) error {
			attempts.Add(1)
			return fmt.Errorf("induced: %w", lock.ErrDeadlock)
		}, nil)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, lock.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("runner did not stop on cancel")
	}
	if got := attempts.Load(); got >= 10 {
		t.Fatalf("runner kept retrying after cancel: %d attempts", got)
	}
}

// TestCommitReadOnlySkipsDurabilityWait: a read-only commit returns with
// no flush at all possible — unless it read what an early releaser has not
// hardened yet: then it waits for exactly that, the inherited horizon.
func TestCommitReadOnlySkipsDurabilityWait(t *testing.T) {
	e, _, logStore := newPipelineEngine(t)
	store, rid := seedRow(t, e, "row")

	r, _ := e.Begin()
	if _, err := e.HeapReadCtx(context.Background(), r, store, rid); err != nil {
		t.Fatal(err)
	}
	logStore.Shut()
	if err := e.CommitReadOnly(context.Background(), r); err != nil { // hangs here if it waits
		t.Fatal(err)
	}
	if r.State() != tx.StateCommitted {
		t.Fatalf("state = %v", r.State())
	}

	w, _ := e.Begin()
	if err := e.HeapUpdateCtx(context.Background(), w, store, rid, []byte("new")); err != nil {
		t.Fatal(err)
	}
	parked := logStore.Shut()
	acked := e.CommitAsync(w) // locks released, not durable
	<-parked
	r2, _ := e.Begin()
	if got, err := e.HeapReadCtx(context.Background(), r2, store, rid); err != nil || string(got) != "new" {
		t.Fatalf("read behind an early releaser = %q, %v", got, err)
	}
	// With the gate shut the wait cannot end by itself, so a context that
	// is cancelled once r2's commit record is out tells the two apart: a
	// commit that waits is interrupted and in doubt, one that does not
	// returns nil.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for r2.State() == tx.StateActive {
			runtime.Gosched()
		}
		cancel()
	}()
	if err := e.CommitReadOnly(ctx, r2); !errors.Is(err, lock.ErrCanceled) || r2.State() != tx.StateCommitting {
		t.Fatalf("read-only commit behind an unhardened releaser = %v in %v; it must wait for the horizon it inherited", err, r2.State())
	}
	logStore.Open()
	if err := e.Commit(r2); err != nil { // resumes the wait
		t.Fatal(err)
	}
	if d, h := e.Log().DurableLSN(), r2.ELRHorizon(); d < h {
		t.Fatalf("acknowledged with durable %v below the inherited horizon %v", d, h)
	}
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
}
