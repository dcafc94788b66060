package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	shoremt "repro"
	"repro/client"
	"repro/internal/wire"
)

// testServer is a served in-memory database on a loopback listener.
type testServer struct {
	db   *shoremt.DB
	srv  *Server
	addr string
}

func newTestServer(t testing.TB, opts Options) *testServer {
	t.Helper()
	db, err := shoremt.Open(shoremt.Options{CleanerInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})
	return &testServer{db: db, srv: srv, addr: l.Addr().String()}
}

func (ts *testServer) dial(t testing.TB) *client.Client {
	t.Helper()
	c, err := client.Dial(ts.addr, client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// run1 runs one recorded op inside tx: a single op is a one-op batch.
func run1(ctx context.Context, tx *client.Tx, record func(b *client.Batch)) error {
	b := client.NewBatch()
	record(b)
	return tx.Run(ctx, b)
}

func TestServerIndexCRUD(t *testing.T) {
	ts := newTestServer(t, Options{})
	c := ts.dial(t)
	ctx := context.Background()

	store, err := c.CreateIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}

	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(k, v string) error {
		return run1(ctx, tx, func(b *client.Batch) { b.IndexInsert(store, []byte(k), []byte(v)) })
	}
	get := func(tx *client.Tx, k string, forUpdate bool) (*client.Lookup, error) {
		var l *client.Lookup
		err := run1(ctx, tx, func(b *client.Batch) {
			if forUpdate {
				l = b.IndexGetForUpdate(store, []byte(k))
			} else {
				l = b.IndexGet(store, []byte(k))
			}
		})
		return l, err
	}
	if err := insert("alpha", "1"); err != nil {
		t.Fatal(err)
	}
	if err := insert("beta", "2"); err != nil {
		t.Fatal(err)
	}
	// A duplicate insert fails but does not kill the transaction.
	if err := insert("alpha", "x"); !errors.Is(err, client.ErrDuplicate) || client.IsAborted(err) {
		t.Fatalf("duplicate insert: got %v, want ErrDuplicate with the transaction alive", err)
	}
	if l, err := get(tx, "alpha", false); err != nil || !l.Found || string(l.Value) != "1" {
		t.Fatalf("get alpha = %+v %v", l, err)
	}
	if l, err := get(tx, "beta", true); err != nil || !l.Found || string(l.Value) != "2" {
		t.Fatalf("get-for-update beta = %+v %v", l, err)
	}
	if l, err := get(tx, "nope", false); err != nil || l.Found || l.Value != nil {
		t.Fatalf("get missing = %+v %v", l, err)
	}
	if err := run1(ctx, tx, func(b *client.Batch) { b.IndexUpdate(store, []byte("beta"), []byte("22")) }); err != nil {
		t.Fatal(err)
	}
	var scan *client.Scanned
	if err := run1(ctx, tx, func(b *client.Batch) { scan = b.IndexScan(store, nil, nil, 0) }); err != nil || len(scan.KVs) != 2 {
		t.Fatalf("scan = %+v, %v", scan, err)
	}
	if kvs := scan.KVs; string(kvs[0].Key) != "alpha" || string(kvs[1].Value) != "22" {
		t.Fatalf("scan contents wrong: %q %q", kvs[0].Key, kvs[1].Value)
	}
	var old *client.Deleted
	if err := run1(ctx, tx, func(b *client.Batch) { old = b.IndexDelete(store, []byte("alpha")) }); err != nil || string(old.Old) != "1" {
		t.Fatalf("delete = %+v %v", old, err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, client.ErrTxDone) {
		t.Fatalf("second Commit: got %v, want ErrTxDone", err)
	}

	// A fresh transaction sees the committed state.
	tx2, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := get(tx2, "alpha", false); err != nil || l.Found {
		t.Fatalf("deleted key after commit = %+v %v", l, err)
	}
	if l, err := get(tx2, "beta", false); err != nil || !l.Found || string(l.Value) != "22" {
		t.Fatalf("beta after commit = %+v %v", l, err)
	}
	if err := tx2.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestServerHeapCRUD(t *testing.T) {
	ts := newTestServer(t, Options{})
	c := ts.dial(t)
	ctx := context.Background()

	store, err := c.CreateTable(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ins *client.InsertedRID
	if err := run1(ctx, tx, func(b *client.Batch) { ins = b.HeapInsert(store, []byte("record one")) }); err != nil {
		t.Fatal(err)
	}
	rid := ins.RID
	var rec *client.Lookup
	if err := run1(ctx, tx, func(b *client.Batch) { rec = b.HeapGet(store, rid) }); err != nil || string(rec.Value) != "record one" {
		t.Fatalf("heap get = %+v %v", rec, err)
	}
	if err := run1(ctx, tx, func(b *client.Batch) { b.HeapUpdate(store, rid, []byte("record two")) }); err != nil {
		t.Fatal(err)
	}
	if err := run1(ctx, tx, func(b *client.Batch) { rec = b.HeapGet(store, rid) }); err != nil || string(rec.Value) != "record two" {
		t.Fatalf("heap get after update = %+v %v", rec, err)
	}
	if err := run1(ctx, tx, func(b *client.Batch) { b.HeapDelete(store, rid) }); err != nil {
		t.Fatal(err)
	}
	if err := run1(ctx, tx, func(b *client.Batch) { b.HeapGet(store, rid) }); !errors.Is(err, client.ErrNoRecord) {
		t.Fatalf("get deleted rid: got %v, want ErrNoRecord", err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestServerManagedBatches(t *testing.T) {
	ts := newTestServer(t, Options{})
	c := ts.dial(t)
	ctx := context.Background()

	store, err := c.CreateIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Update: inserts plus a read-back in one frame.
	var look *client.Lookup
	err = c.Update(ctx, func(b *client.Batch) {
		b.IndexInsert(store, []byte("k1"), []byte("v1"))
		b.IndexInsert(store, []byte("k2"), []byte("v2"))
		look = b.IndexGet(store, []byte("k1"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !look.Found || string(look.Value) != "v1" {
		t.Fatalf("batch lookup = %q %v", look.Value, look.Found)
	}

	// View: reads work, writes are refused.
	var scan *client.Scanned
	err = c.View(ctx, func(b *client.Batch) {
		scan = b.IndexScan(store, nil, nil, 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.KVs) != 2 {
		t.Fatalf("view scan = %d kvs", len(scan.KVs))
	}
	err = c.View(ctx, func(b *client.Batch) {
		b.IndexInsert(store, []byte("k3"), []byte("v3"))
	})
	if !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("write in View: got %v, want ErrReadOnly", err)
	}
	// The refused write must not have committed.
	var k3 *client.Lookup
	if err := c.View(ctx, func(b *client.Batch) {
		k3 = b.IndexGet(store, []byte("k3"))
	}); err != nil {
		t.Fatal(err)
	}
	if k3.Found {
		t.Fatal("write inside View committed")
	}

	// Session batches: begin+reads, then writes+commit — the remote
	// TPC-C shape (two round trips per transaction).
	b := client.NewBatch()
	g1 := b.IndexGetForUpdate(store, []byte("k1"))
	tx, err := c.BeginBatch(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Found {
		t.Fatal("k1 not found in begin batch")
	}
	wb := client.NewBatch()
	wb.IndexUpdate(store, []byte("k1"), []byte("v1-new"))
	if err := tx.RunCommit(ctx, wb); err != nil {
		t.Fatal(err)
	}
	var check *client.Lookup
	if err := c.View(ctx, func(b *client.Batch) {
		check = b.IndexGet(store, []byte("k1"))
	}); err != nil {
		t.Fatal(err)
	}
	if string(check.Value) != "v1-new" {
		t.Fatalf("after session batch commit: %q", check.Value)
	}
}

func TestServerResolveAndStats(t *testing.T) {
	ts := newTestServer(t, Options{})
	ts.srv.RegisterStore("my.index", 42, wire.KindIndex)
	ts.srv.RegisterStore("my.meta", 7, wire.KindMeta)
	c := ts.dial(t)
	ctx := context.Background()

	id, kind, err := c.Resolve(ctx, "my.index")
	if err != nil || id != 42 || kind != wire.KindIndex {
		t.Fatalf("resolve = %d %d %v", id, kind, err)
	}
	if _, _, err := c.Resolve(ctx, "nope"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("resolve missing: got %v, want ErrNotFound", err)
	}
	st, engine, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsOpen < 1 || st.Requests == 0 {
		t.Fatalf("stats implausible: %+v", st)
	}
	if !bytes.Contains(engine, []byte("Lock")) {
		t.Fatalf("engine stats JSON missing Lock section: %.120s", engine)
	}
}

func TestServerShedsOnTxLimit(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, MaxTx: 1})
	ctx := context.Background()

	c1 := ts.dial(t)
	tx1, err := c1.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The only transaction slot is taken: a second Begin is shed.
	c2 := ts.dial(t)
	if _, err := c2.Begin(ctx); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("second Begin: got %v, want ErrBusy", err)
	}
	if st := ts.srv.Stats(); st.Sheds == 0 {
		t.Fatal("shed not counted")
	}
	// Finishing the first transaction frees the slot.
	if err := tx1.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	tx2, err := c2.Begin(ctx)
	if err != nil {
		t.Fatalf("Begin after slot freed: %v", err)
	}
	if err := tx2.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestServerShedsOnQueueOverflow(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, MaxTx: 16})
	ctx := context.Background()

	setup := ts.dial(t)
	store, err := setup.CreateIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Update(ctx, func(b *client.Batch) {
		b.IndexInsert(store, []byte("hot"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}

	// Pin the hot key under an explicit transaction: the single worker
	// will block behind this lock.
	holder := ts.dial(t)
	htx, err := holder.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := run1(ctx, htx, func(b *client.Batch) { b.IndexGetForUpdate(store, []byte("hot")) }); err != nil {
		t.Fatal(err)
	}

	// A managed batch on the hot key occupies the only worker (blocked
	// in the lock wait), and a second one fills the one-slot queue.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := client.Dial(ts.addr, client.Options{Timeout: 30 * time.Second})
			if err != nil {
				results <- err
				return
			}
			defer c.Close()
			results <- c.Update(ctx, func(b *client.Batch) {
				b.IndexUpdate(store, []byte("hot"), []byte("w"))
			})
		}()
	}
	// Wait until worker and queue are both occupied.
	deadline := time.Now().Add(10 * time.Second)
	for ts.srv.Stats().QueueHighWater < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the first batch reach its lock wait

	// The next entry request must be shed immediately, not absorbed.
	shedder := ts.dial(t)
	start := time.Now()
	err = shedder.Update(ctx, func(b *client.Batch) {
		b.IndexUpdate(store, []byte("hot"), []byte("x"))
	})
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("overflow entry: got %v, want ErrBusy", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v; must be immediate", d)
	}
	if st := ts.srv.Stats(); st.Sheds == 0 {
		t.Fatal("shed not counted")
	}

	// The lock holder's commit is a continuation: it runs inline even
	// though the pool is wedged, unblocking the queued batches.
	if err := htx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("queued batch: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("queued batches never drained")
		}
	}
}

func TestServerIdleReap(t *testing.T) {
	ts := newTestServer(t, Options{IdleTimeout: 60 * time.Millisecond})
	c := ts.dial(t)
	ctx := context.Background()

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

	// Go quiet: the janitor must close the session and roll the
	// transaction back, freeing its locks.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := ts.db.Stats()
		if ts.srv.Stats().IdleCloses > 0 && st.Lock.LiveRequests == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle session not reaped: server=%+v live=%d",
				ts.srv.Stats(), st.Lock.LiveRequests)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The reaped session's locks are gone: another client can take the
	// same key immediately.
	c2 := ts.dial(t)
	if err := c2.Update(ctx, func(b *client.Batch) {
		b.IndexInsert(store, []byte("k"), []byte("v2"))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestServerRollbackOnDisconnect(t *testing.T) {
	ts := newTestServer(t, Options{})
	ctx := context.Background()

	setup := ts.dial(t)
	store, err := setup.CreateIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}

	c := ts.dial(t)
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := run1(ctx, tx, func(b *client.Batch) { b.IndexInsert(store, []byte("mine"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	// Tear the connection down without Commit/Rollback.
	c.Close()

	deadline := time.Now().Add(10 * time.Second)
	for ts.srv.Stats().DisconnectRollbacks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect rollback never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The insert was rolled back and its locks are free.
	var look *client.Lookup
	if err := setup.View(ctx, func(b *client.Batch) {
		look = b.IndexGet(store, []byte("mine"))
	}); err != nil {
		t.Fatal(err)
	}
	if look.Found {
		t.Fatal("uncommitted insert survived the disconnect")
	}
	if live := ts.db.Stats().Lock.LiveRequests; live != 0 {
		t.Fatalf("%d locks leaked by the dead session", live)
	}
}

func TestServerDrainingRefusesEntries(t *testing.T) {
	ts := newTestServer(t, Options{})
	ctx := context.Background()
	c := ts.dial(t)
	c2 := ts.dial(t) // dialed before shutdown: listeners close once draining starts

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

	done := make(chan struct{})
	go func() {
		defer close(done)
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ts.srv.Shutdown(sctx)
	}()

	// Shutdown cannot finish while c's transaction is open, so c2's
	// reader is still alive: its Begin must be refused with ErrClosing.
	deadline := time.Now().Add(10 * time.Second)
	for !ts.srv.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c2.Begin(ctx); !errors.Is(err, client.ErrClosing) {
		t.Fatalf("Begin while draining: got %v, want ErrClosing", err)
	}
	// The in-flight transaction may run to completion during the drain.
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown hung")
	}
	if got := ts.db.Stats().Lock.LiveRequests; got != 0 {
		t.Fatalf("%d live lock requests after shutdown", got)
	}
}

func TestServerFrameTooLarge(t *testing.T) {
	ts := newTestServer(t, Options{})
	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// An oversized frame announcement gets a TooLarge reply, then the
	// server hangs up (the stream cannot be resynchronized).
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var buf []byte
	payload, err := wire.ReadFrame(conn, &buf)
	if err != nil {
		t.Fatalf("expected TooLarge reply, read failed: %v", err)
	}
	resp, err := wire.ParseResponse(payload)
	if err != nil || resp.Status != wire.StatusTooLarge {
		t.Fatalf("reply = %+v, %v; want StatusTooLarge", resp, err)
	}
	// The connection is then closed server-side.
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept a protocol-broken connection open")
	}
}

func TestServerBadSession(t *testing.T) {
	ts := newTestServer(t, Options{})
	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// An op before Hello is refused with StatusBadSession.
	payload := wire.AppendRequest(nil, wire.OpRollback, 999, nil)
	if err := wire.WriteFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var buf []byte
	respPayload, err := wire.ReadFrame(conn, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ParseResponse(respPayload)
	if err != nil || resp.Status != wire.StatusBadSession {
		t.Fatalf("reply = %+v, %v; want StatusBadSession", resp, err)
	}
}

func TestServerTxStateErrors(t *testing.T) {
	ts := newTestServer(t, Options{})
	ctx := context.Background()

	// Commit with no open transaction: speak raw frames so the client's
	// own Tx state tracking cannot get in the way.
	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var buf []byte
	roundTrip := func(op wire.Op, sid uint32, body []byte) wire.Response {
		t.Helper()
		if err := wire.WriteFrame(conn, wire.AppendRequest(nil, op, sid, body)); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(conn, &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ParseResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	hello := roundTrip(wire.OpHello, 0, nil)
	if hello.Status != wire.StatusOK {
		t.Fatalf("hello: %+v", hello)
	}
	sid := wire.NewDec(hello.Body).U32()
	var commit wire.Enc
	if err := wire.AppendBatch(&commit, wire.BatchSession|wire.BatchCommit, nil); err != nil {
		t.Fatal(err)
	}
	if resp := roundTrip(wire.OpBatch, sid, commit.B); resp.Status != wire.StatusNoTx {
		t.Fatalf("commit without tx: %+v, want StatusNoTx", resp)
	}
	if resp := roundTrip(wire.OpRollback, sid, nil); resp.Status != wire.StatusNoTx {
		t.Fatalf("rollback without tx: %+v, want StatusNoTx", resp)
	}
	// The retired begin/commit opcodes and a bare data op are refused as
	// malformed, and the connection survives them.
	for _, op := range []wire.Op{3, 4, wire.OpIdxGet} {
		if resp := roundTrip(op, sid, nil); resp.Status != wire.StatusProto {
			t.Fatalf("opcode %d as a request: %+v, want StatusProto", op, resp)
		}
	}
	if resp := roundTrip(wire.OpPing, sid, nil); resp.Status != wire.StatusOK {
		t.Fatalf("ping after refused opcodes: %+v", resp)
	}

	// Double Begin and managed-batch-with-open-tx via the client.
	c := ts.dial(t)
	store, err := c.CreateIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(ctx); !errors.Is(err, client.ErrTxOpen) {
		t.Fatalf("double Begin: got %v, want ErrTxOpen", err)
	}
	err = c.Update(ctx, func(b *client.Batch) {
		b.IndexInsert(store, []byte("x"), []byte("y"))
	})
	if !errors.Is(err, client.ErrTxOpen) {
		t.Fatalf("managed batch with open tx: got %v, want ErrTxOpen", err)
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestServerSessionCounters(t *testing.T) {
	ts := newTestServer(t, Options{})
	ctx := context.Background()
	var clients []*client.Client
	for i := 0; i < 5; i++ {
		clients = append(clients, ts.dial(t))
	}
	for _, c := range clients {
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := ts.srv.Stats()
	if st.SessionsOpen != 5 || st.SessionsPeak < 5 || st.SessionsTotal != 5 {
		t.Fatalf("session counters: %+v", st)
	}
	for _, c := range clients {
		c.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for ts.srv.Stats().SessionsOpen != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions not closed: %+v", ts.srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
