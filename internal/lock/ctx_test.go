package lock

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/closed"
	"repro/internal/page"
)

// TestCancelUnblocksLockWait: with the timeout set to 5s, cancelling the
// waiter's context must unblock it well inside 100ms, and the error must
// carry both ErrCanceled and context.Canceled.
func TestCancelUnblocksLockWait(t *testing.T) {
	m := NewManager(Options{DefaultTimeout: 5 * time.Second})
	n := RowName(1, page.RID{Page: 1, Slot: 1})
	if err := m.Lock(context.Background(), 1, n, X, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- m.Lock(ctx, 2, n, X, 0) }()
	time.Sleep(30 * time.Millisecond) // let tx2 enqueue and block
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("cancel took %v to unblock (want < 100ms)", elapsed)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter still blocked after 2s")
	}
	if got := m.Stats().Cancels; got != 1 {
		t.Fatalf("Cancels = %d, want 1", got)
	}
	// The queue must remain grantable: tx1 releases, tx3 acquires.
	m.Unlock(1, n)
	if err := m.Lock(context.Background(), 3, n, X, 50*time.Millisecond); err != nil {
		t.Fatalf("queue not grantable after cancel: %v", err)
	}
}

// TestCancelLeavesFIFOIntact: tx1 holds X; tx2 (cancelled) and tx3 queue
// behind it. After tx2's cancellation and tx1's release, tx3 must be
// granted — the dequeue re-examines the waiters behind the leaver.
func TestCancelLeavesFIFOIntact(t *testing.T) {
	m := NewManager(Options{DefaultTimeout: 5 * time.Second})
	n := StoreName(7)
	if err := m.Lock(context.Background(), 1, n, X, 0); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	err2 := make(chan error, 1)
	go func() { err2 <- m.Lock(ctx2, 2, n, X, 0) }()
	time.Sleep(20 * time.Millisecond)
	err3 := make(chan error, 1)
	go func() { err3 <- m.Lock(context.Background(), 3, n, X, 0) }()
	time.Sleep(20 * time.Millisecond)

	cancel2()
	if err := <-err2; !errors.Is(err, ErrCanceled) {
		t.Fatalf("tx2: %v, want ErrCanceled", err)
	}
	// tx3 must still be waiting (tx1 holds X), then granted on release.
	select {
	case err := <-err3:
		t.Fatalf("tx3 resolved early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.Unlock(1, n)
	select {
	case err := <-err3:
		if err != nil {
			t.Fatalf("tx3 after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("tx3 never granted after cancel + release")
	}
	if got := m.Holds(3, n); got != X {
		t.Fatalf("tx3 holds %v, want X", got)
	}
}

// TestCtxDeadlineBeatsTimeout: the earliest of the ctx deadline and the
// lock timeout wins; a ctx deadline shorter than the timeout surfaces
// ErrCanceled wrapping DeadlineExceeded, not ErrTimeout.
func TestCtxDeadlineBeatsTimeout(t *testing.T) {
	m := NewManager(Options{DefaultTimeout: 5 * time.Second})
	n := StoreName(9)
	if err := m.Lock(context.Background(), 1, n, X, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := m.Lock(ctx, 2, n, S, 0)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	// And the reverse: a timeout shorter than the deadline still times out.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := m.Lock(ctx2, 3, n, S, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestCancelBeforeWait: an already-cancelled context fails fast without
// enqueueing anything.
func TestCancelBeforeWait(t *testing.T) {
	m := NewManager(Options{})
	n := StoreName(11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Lock(ctx, 1, n, X, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Nothing was enqueued: another tx acquires immediately.
	if err := m.Lock(context.Background(), 2, n, X, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCancelPendingConversion: a cancelled conversion reverts to the
// originally granted mode instead of losing the lock.
func TestCancelPendingConversion(t *testing.T) {
	m := NewManager(Options{DefaultTimeout: 5 * time.Second})
	n := StoreName(13)
	if err := m.Lock(context.Background(), 1, n, S, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(context.Background(), 2, n, S, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- m.Lock(ctx, 1, n, X, 0) }() // conversion blocked by tx2
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, ErrCanceled) {
		t.Fatalf("conversion cancel: %v", err)
	}
	if got := m.Holds(1, n); got != S {
		t.Fatalf("tx1 holds %v after cancelled conversion, want S", got)
	}
	// tx2's release leaves the queue healthy and tx1 can convert later.
	m.Unlock(2, n)
	if err := m.Lock(context.Background(), 1, n, X, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWakesLockWaiters: with the timeout at a minute, so that nothing
// passes by timing out, Close must end a fresh request's wait and a
// conversion's with ErrClosed, which is the closed classification. A
// request that would wait afterwards gets it at once; one that needs no
// wait is still granted.
func TestCloseWakesLockWaiters(t *testing.T) {
	m := NewManager(Options{DefaultTimeout: time.Minute})
	ctx := context.Background()
	n, n2 := RowName(1, page.RID{Page: 1, Slot: 1}), RowName(1, page.RID{Page: 1, Slot: 2})
	for _, l := range []struct {
		tx   uint64
		name Name
		mode Mode
	}{{1, n, X}, {1, n2, S}, {3, n2, S}} {
		if err := m.Lock(ctx, l.tx, l.name, l.mode, 0); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, 2)
	go func() { errc <- m.Lock(ctx, 2, n, X, 0) }()  // a fresh request behind tx1's X
	go func() { errc <- m.Lock(ctx, 3, n2, X, 0) }() // a conversion behind tx1's S
	for m.Stats().Waits < 2 {
		runtime.Gosched()
	}
	m.Close()
	for range 2 {
		if err := <-errc; !errors.Is(err, ErrClosed) || !errors.Is(err, closed.Err) {
			t.Fatalf("waiter woken by Close: %v, want ErrClosed", err)
		}
	}
	if err := m.Lock(ctx, 4, n, S, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("request after Close: %v, want ErrClosed", err)
	}
	if err := m.Lock(ctx, 4, RowName(1, page.RID{Page: 2, Slot: 1}), X, 0); err != nil {
		t.Fatalf("uncontended request after Close: %v", err)
	}
}
