package core

import (
	"context"
	"errors"
	"fmt"
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
	rid, err := e.HeapInsert(tx1, store, []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}

	holder, _ := e.Begin()
	if err := e.HeapUpdate(holder, store, rid, []byte("held")); err != nil {
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
	if err := e.HeapUpdate(tx3, store, rid, []byte("after")); err != nil {
		t.Fatalf("row not grantable after cancelled wait: %v", err)
	}
	if err := e.Commit(tx3); err != nil {
		t.Fatal(err)
	}
}

// TestCtxCancelDuringHardenWait: cancelling a strict commit's durability
// wait (pipeline stage) returns promptly and leaves the flush daemon's
// subscription list healthy — the same transaction can re-await and a
// later transaction commits normally.
func TestCtxCancelDuringHardenWait(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StagePipeline)
	cfg.Frames = 256
	// Coupled design: no internal background flusher, so the harden wait
	// is resolved only by the flush daemon — whose batching window we
	// stretch to hold the wait open deterministically.
	cfg.LogDesign = wal.DesignCoupled
	cfg.PipelineInterval = 300 * time.Millisecond
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	store := createTable(t, e)
	t1, _ := e.Begin()
	if _, err := e.HeapInsert(t1, store, []byte("slow-commit")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = e.CommitCtx(ctx, t1)
	if !errors.Is(err, lock.ErrCanceled) {
		t.Fatalf("CommitCtx = %v, want lock.ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("cancelled commit wait took %v", elapsed)
	}
	if t1.State() != tx.StateCommitting {
		t.Fatalf("state after cancelled harden = %v, want StateCommitting", t1.State())
	}
	// Retry resolves once the daemon flushes; the abandoned subscription
	// must not have corrupted the list.
	if err := e.CommitCtx(context.Background(), t1); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	if t1.State() != tx.StateCommitted {
		t.Fatalf("state after retry = %v", t1.State())
	}
	// And a fresh transaction commits normally afterwards.
	t2, _ := e.Begin()
	if _, err := e.HeapInsert(t2, store, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(t2); err != nil {
		t.Fatal(err)
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
	ridA, _ := e.HeapInsert(setup, store, []byte("A"))
	ridB, _ := e.HeapInsert(setup, store, []byte("B"))
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
			if err := e.HeapUpdate(t, store, first, []byte("x")); err != nil {
				return err
			}
			time.Sleep(5 * time.Millisecond) // widen the deadlock window
			return e.HeapUpdate(t, store, second, []byte("y"))
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

// TestCommitReadOnlySkipsDurabilityWait: a read-only commit returns
// without waiting on the flush daemon even when the daemon's batching
// window would stall a strict commit.
func TestCommitReadOnlySkipsDurabilityWait(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StagePipeline)
	cfg.LogDesign = wal.DesignCoupled
	cfg.PipelineInterval = 400 * time.Millisecond // strict commits wait out the window
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	store := createTable(t, e)
	w, _ := e.Begin()
	rid, _ := e.HeapInsert(w, store, []byte("row"))
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}

	r, _ := e.Begin()
	if _, err := e.HeapRead(r, store, rid); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := e.CommitReadOnly(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("read-only commit waited %v", elapsed)
	}
	if r.State() != tx.StateCommitted {
		t.Fatalf("state = %v", r.State())
	}
}
