package server

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	shoremt "repro"
	"repro/client"
	"repro/internal/disk"
	"repro/internal/wal"
	"repro/internal/waltest"
	"repro/internal/wire"
)

// TestServerForcedShutdownRollsBack closes the server with no drain
// window while a transaction is open: the force phase must tear the
// session down, roll the transaction back and leave no live locks.
func TestServerForcedShutdownRollsBack(t *testing.T) {
	ts := newTestServer(t, Options{})
	ctx := context.Background()
	c := ts.dial(t)

	store, err := c.CreateIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := run1(ctx, tx, func(b *client.Batch) { b.IndexInsert(store, []byte("k"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}

	if err := ts.srv.Close(); err != nil { // Shutdown with an expired context
		t.Fatal(err)
	}
	if got := ts.db.Stats().Lock.LiveRequests; got != 0 {
		t.Fatalf("%d live lock requests after forced shutdown", got)
	}
	st := ts.db.Stats()
	if st.Tx.Begins != st.Tx.Commits+st.Tx.Aborts {
		t.Fatalf("transaction leaked: begins=%d commits=%d aborts=%d",
			st.Tx.Begins, st.Tx.Commits, st.Tx.Aborts)
	}
	// The client's next request fails: the connection is gone.
	if err := tx.Commit(ctx); err == nil {
		t.Fatal("commit succeeded after forced shutdown")
	}
}

// TestServerServeAfterShutdown verifies Serve refuses listeners once the
// server is shut down, and that Shutdown is idempotent.
func TestServerServeAfterShutdown(t *testing.T) {
	ts := newTestServer(t, Options{})
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := ts.srv.Shutdown(sctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.srv.Serve(l); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Serve after shutdown: got %v, want ErrShutdown", err)
	}
}

// TestServerInDoubtCommitIsNotReportedAborted: a commit whose durability
// wait Shutdown interrupts has its commit record in the log and may
// harden. The reply must not carry FlagTxAborted — a client told "rolled
// back, retry the whole unit of work" would apply it twice — and the
// transaction must still finish: at StageFinal it holds its locks through
// the wait, and nobody else is left to release them. The log store's gate
// holds the wait open; exec is what a session's reader runs per frame, and
// the flags it returns are the reply's.
func TestServerInDoubtCommitIsNotReportedAborted(t *testing.T) {
	key := []byte("k")
	logStore := waltest.NewGateStore(wal.NewMemSegmentStore(0))
	db, err := shoremt.OpenStores(disk.NewMem(0), logStore, shoremt.Options{
		CleanerInterval: -1,
		LockTimeout:     5 * time.Second, // the second transaction waits out the finisher, not this
		Retry:           shoremt.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Options{})
	t.Cleanup(func() {
		logStore.Open()
		srv.Close()
		db.Close()
	})
	ctx := context.Background()
	var ix *shoremt.Index
	if err := db.Update(ctx, func(tx *shoremt.Tx) (err error) {
		if ix, err = db.CreateIndex(tx); err == nil {
			err = ix.Insert(tx, key, []byte("old"))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	batch := func(flags uint8, ops ...wire.DataOp) wire.Request {
		var e wire.Enc
		if err := wire.AppendBatch(&e, flags, ops); err != nil {
			t.Fatal(err)
		}
		return wire.Request{Op: wire.OpBatch, Body: e.B}
	}
	sess := &session{srv: srv}
	update := wire.DataOp{Kind: wire.OpIdxUpdate, Store: ix.ID(), Key: key, Val: []byte("new")}
	if status, _ := srv.exec(sess, batch(wire.BatchSession|wire.BatchBegin, update)); status != wire.StatusOK {
		t.Fatalf("begin batch: %v (%s)", status, sess.body.B)
	}

	parked := logStore.Shut()
	type reply struct {
		status wire.Status
		flags  uint8
	}
	replied := make(chan reply, 1)
	go func() {
		status, flags := srv.exec(sess, batch(wire.BatchSession|wire.BatchCommit))
		replied <- reply{status, flags}
	}()
	<-parked // the commit record is in the store, unsynced: the wait is on
	// Shutdown with no drain window cancels the wait.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	r := <-replied
	if r.status != wire.StatusCanceled {
		t.Fatalf("status = %v (%s), want StatusCanceled", r.status, sess.body.B)
	}
	if r.flags&wire.FlagTxAborted != 0 {
		t.Fatal("an in-doubt commit was reported as rolled back")
	}
	if sess.tx != nil {
		t.Fatal("the session kept the in-doubt transaction")
	}

	logStore.Open()
	// A second transaction gets the row's lock — once the detached
	// finisher has released it — and finds the commit applied.
	if err := db.Update(ctx, func(tx *shoremt.Tx) error {
		v, ok, err := ix.GetForUpdate(tx, key)
		if err == nil && (!ok || string(v) != "new") {
			err = errors.New("row = " + string(v) + ", want the committed value")
		}
		return err
	}); err != nil {
		t.Fatalf("after the flush landed: %v", err)
	}
	// The finisher retires the transaction just after it lets the
	// locks go.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := db.Stats()
		if st.Lock.LiveRequests == 0 && st.Tx.Begins == st.Tx.Commits+st.Tx.Aborts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("left behind: %d live lock requests, begins=%d commits=%d aborts=%d",
				st.Lock.LiveRequests, st.Tx.Begins, st.Tx.Commits, st.Tx.Aborts)
		}
	}
}
