package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	shoremt "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/tx"
	"repro/internal/wire"
)

// TestServerFailedBeginBatchLeavesNothingOpen: a batch that began the
// session's transaction and then failed — even with an error that would
// not kill an open transaction, like a duplicate key — must roll it back.
// BeginBatch returns no handle on failure, so a transaction left open
// could only be ended by the idle timeout or a disconnect, and until then
// every BeginBatch on the connection would fail ErrTxOpen with its locks
// and its open-transaction token held.
func TestServerFailedBeginBatchLeavesNothingOpen(t *testing.T) {
	ts := newTestServer(t, Options{})
	c := ts.dial(t)
	ctx := context.Background()
	store, err := c.CreateIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}
	insertK := func(b *client.Batch) { b.IndexInsert(store, []byte("k"), []byte("v")) }
	if err := c.Update(ctx, insertK); err != nil {
		t.Fatal(err)
	}
	idle := ts.db.Stats().Lock.LiveRequests

	again := client.NewBatch()
	insertK(again)
	tx, err := c.BeginBatch(ctx, again)
	if !errors.Is(err, client.ErrDuplicate) || tx != nil {
		t.Fatalf("BeginBatch of a duplicate insert = %v, %v; want nil, ErrDuplicate", tx, err)
	}
	if !client.IsAborted(err) {
		t.Errorf("the failed BeginBatch did not report its transaction rolled back: %v", err)
	}
	if live := ts.db.Stats().Lock.LiveRequests; live != idle {
		t.Errorf("%d live lock requests after the failed BeginBatch, %d when idle", live, idle)
	}
	if n := len(ts.srv.txTokens); n != 0 {
		t.Errorf("%d open-transaction tokens held after the failed BeginBatch", n)
	}
	tx, err = c.BeginBatch(ctx, client.NewBatch())
	if err != nil {
		t.Fatalf("second BeginBatch on the same connection: %v", err)
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
}

// The session state machine. Only OpBatch and OpRollback move it:
//
//	no tx ──batch with Begin──▶ open ──batch with Commit │ Rollback │
//	                                   failure that kills │ disconnect──▶ no tx
//
// smStep is one request and what it would do IF it ran; smModel.expect is
// the whole model of whether it runs and what it leaves behind.
type smStep struct {
	name    string
	op      wire.Op
	body    []byte
	proto   bool        // refused before it reaches the session: StatusProto
	own     bool        // brings its own transaction: Begin bit, or a managed mode
	begins  bool        // ... and leaves it with the session: Begin bit
	frag    bool        // continues the session's: a batch without Begin, Rollback
	ends    bool        // success leaves no transaction: Commit bit, Rollback, managed
	durable bool        // ... having committed: Commit bit, managed update
	kills   bool        // failure rolls the session's transaction back
	fail    wire.Status // what its ops answer when they run (StatusOK: they succeed)
	keys    []string    // keys its ops insert
	ops     []wire.DataOp
	probes  []string // keys its probe calls read, in op order
}

type smModel struct {
	open      bool
	pending   []string        // inserted and not yet committed
	committed map[string]bool // every key whose transaction ended: what a scan must (not) find
}

// expect returns the status and the FlagTxAborted bit st must be answered
// with, and moves the model.
func (m *smModel) expect(st smStep) (wire.Status, bool) {
	switch {
	case st.proto:
		return wire.StatusProto, false
	case st.own && m.open:
		return wire.StatusTxOpen, false
	case st.frag && !m.open:
		return wire.StatusNoTx, false
	}
	// It runs.
	m.open = m.open || st.begins
	m.pending = append(m.pending, st.keys...) // a fragment's ops before a failed one stay done
	if st.fail != wire.StatusOK {
		aborted := st.kills && m.open
		if aborted || !m.open { // a managed batch rolls its own transaction back
			m.end(false)
		}
		return st.fail, aborted
	}
	if st.ends {
		m.end(st.durable)
	}
	return wire.StatusOK, false
}

// end closes the model's transaction, committed or rolled back.
func (m *smModel) end(committed bool) {
	for _, k := range m.pending {
		m.committed[k] = committed
	}
	m.open, m.pending = false, nil
}

// smFixture is the database the sessions run against: an index holding
// "dup" (inserting it again fails without hurting the transaction) and
// "held", X-locked by an engine transaction for the whole test (asking for
// it times out, which kills the asker's transaction); and two programs:
// probe, read-only, answers whether the key in its arguments is in the
// index, and rollback asks for its transaction to be rolled back.
type smFixture struct {
	store           uint32
	seq             int
	probe, rollback uint32
}

// register registers the fixture's programs on db.
func (fx *smFixture) register(t *testing.T, db *shoremt.DB) {
	e := db.Engine()
	ix, err := e.OpenIndex(fx.store)
	if err != nil {
		t.Fatal(err)
	}
	fx.probe = e.RegisterProgram(core.Program{ReadOnly: true, Run: func(ctx context.Context, t *tx.Tx, args, out []byte) ([]byte, error) {
		_, found, err := e.IndexLookupCtx(ctx, t, ix, args)
		if found {
			return append(out, 1), err
		}
		return append(out, 0), err
	}})
	fx.rollback = e.RegisterProgram(core.Program{Run: func(_ context.Context, _ *tx.Tx, _, out []byte) ([]byte, error) {
		return out, fmt.Errorf("program: %w", core.ErrRollback)
	}})
}

// probed decodes a successful batch reply to st and returns what each of
// its probe calls answered.
func (st *smStep) probed(body []byte) ([]bool, error) {
	d := wire.NewDec(body)
	var found []bool
	for _, op := range st.ops {
		switch op.Kind {
		case wire.OpIdxGet:
			d.U8()
			d.Bytes()
		case wire.OpCall:
			found = append(found, bytes.Equal(d.Bytes(), []byte{1}))
		}
	}
	return found, d.Done()
}

// randomStep draws one request. Every surviving request shape is in here:
// batches in the three modes with every Begin/Commit combination, empty,
// succeeding and failing both ways, with data ops and program calls (a
// probe of the newest key, a program that rolls back, an unknown id; and,
// while the session's transaction has written keys, a probe of one);
// Rollback; DDL; and what must bounce off without touching the session —
// retired opcodes, bare data ops, malformed batches, a failing catalog
// lookup.
func (fx *smFixture) randomStep(t *testing.T, rng *rand.Rand, pending []string) smStep {
	switch n := rng.Intn(20); {
	case n == 0:
		return smStep{name: "rollback", op: wire.OpRollback, frag: true, ends: true}
	case n == 1:
		op := []wire.Op{wire.OpCreateIndex, wire.OpCreateTable}[rng.Intn(2)]
		return smStep{name: op.String(), op: op}
	case n == 2:
		op := []wire.Op{3, 4, wire.OpIdxInsert, wire.OpHeapGet, wire.OpIdxGetU, 200}[rng.Intn(6)]
		return smStep{name: "retired " + op.String(), op: op, proto: true}
	case n == 3:
		body := [][]byte{nil, {wire.BatchBegin}, {3, 0, 0}, {wire.BatchCommit, 0, 1, byte(wire.OpRollback)},
			{wire.BatchBegin, 0, 1, byte(wire.OpIdxGet), 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}}[rng.Intn(5)]
		return smStep{name: fmt.Sprintf("malformed batch %x", body), op: wire.OpBatch, body: body, proto: true}
	case n == 4:
		var e wire.Enc
		e.Str("no such name")
		return smStep{name: "resolve", op: wire.OpResolve, body: e.B, fail: wire.StatusNotFound}
	}
	if len(pending) > 0 && rng.Intn(3) == 0 {
		key := pending[rng.Intn(len(pending))]
		ops := []wire.DataOp{{Kind: wire.OpCall, Store: fx.probe, Val: []byte(key)}}
		var e wire.Enc
		if err := wire.AppendBatch(&e, wire.BatchSession, ops); err != nil {
			t.Fatal(err)
		}
		return smStep{name: "probe of " + key, op: wire.OpBatch, body: e.B, frag: true, ops: ops, probes: []string{key}}
	}
	mode := []uint8{wire.BatchSession, wire.BatchSession, wire.BatchSession, wire.BatchUpdate, wire.BatchView}[rng.Intn(5)]
	flags := mode | []uint8{0, wire.BatchBegin, wire.BatchCommit, wire.BatchBegin | wire.BatchCommit}[rng.Intn(4)]
	begin, commit := flags&wire.BatchBegin != 0, flags&wire.BatchCommit != 0
	st := smStep{op: wire.OpBatch}
	if mode == wire.BatchSession {
		st.own, st.begins, st.frag, st.ends, st.durable = begin, begin, !begin, commit, commit
	} else {
		st.own, st.ends, st.durable = true, true, mode == wire.BatchUpdate
	}
	var ops []wire.DataOp
	for i, n := 0, rng.Intn(4); i < n && st.fail == wire.StatusOK; i++ {
		switch k := rng.Intn(16); {
		case k < 5:
			ops = append(ops, wire.DataOp{Kind: wire.OpIdxGet, Store: fx.store, Key: []byte("dup")})
		case k < 9:
			fx.seq++
			key := fmt.Sprintf("k%06d", fx.seq)
			ops = append(ops, wire.DataOp{Kind: wire.OpIdxInsert, Store: fx.store, Key: []byte(key), Val: []byte("v")})
			if mode == wire.BatchView {
				st.fail = wire.StatusReadOnly
			} else {
				st.keys = append(st.keys, key)
			}
		case k < 11 && mode != wire.BatchView:
			ops = append(ops, wire.DataOp{Kind: wire.OpIdxInsert, Store: fx.store, Key: []byte("dup"), Val: []byte("v")})
			st.fail = wire.StatusDuplicate
		case k == 11 && mode != wire.BatchView:
			ops = append(ops, wire.DataOp{Kind: wire.OpIdxGetU, Store: fx.store, Key: []byte("held")})
			st.fail = wire.StatusTimeout
		case k < 14:
			key := "dup"
			if fx.seq > 0 {
				key = fmt.Sprintf("k%06d", fx.seq)
			}
			ops = append(ops, wire.DataOp{Kind: wire.OpCall, Store: fx.probe, Val: []byte(key)})
			st.probes = append(st.probes, key)
		case k == 14:
			ops = append(ops, wire.DataOp{Kind: wire.OpCall, Store: fx.rollback})
			st.fail = wire.StatusRolledBack
			if mode == wire.BatchView {
				st.fail = wire.StatusReadOnly // a writer named in a View batch
			}
		default:
			ops = append(ops, wire.DataOp{Kind: wire.OpCall, Store: fx.rollback + 1})
			st.fail = wire.StatusNotFound
		}
	}
	st.ops = ops
	st.kills = begin || commit || st.fail == wire.StatusTimeout || st.fail == wire.StatusRolledBack
	var e wire.Enc
	if err := wire.AppendBatch(&e, flags, ops); err != nil {
		t.Fatal(err)
	}
	st.body = e.B
	st.name = fmt.Sprintf("batch flags=%#x ops=%d fail=%v", flags, len(ops), st.fail)
	return st
}

// TestSessionStateMachine drives one session per seed over a net.Pipe
// with a random sequence of requests and checks every reply, and the
// server's open-transaction tokens after it, against smModel; then it
// hangs up — mid-transaction as often as not — and checks that the
// committed keys, and only they, are in the index and that nothing is
// left behind: no session, no token, no lock.
func TestSessionStateMachine(t *testing.T) {
	db, err := shoremt.Open(shoremt.Options{
		CleanerInterval: -1,
		LockTimeout:     10 * time.Millisecond,
		Retry:           shoremt.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db, Options{})
	defer srv.Close()
	ctx := context.Background()
	var ix *shoremt.Index
	if err := db.Update(ctx, func(tx *shoremt.Tx) (err error) {
		if ix, err = db.CreateIndex(tx); err == nil {
			if err = ix.Insert(tx, []byte("dup"), []byte("v")); err == nil {
				err = ix.Insert(tx, []byte("held"), []byte("v"))
			}
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	holder, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.GetForUpdate(holder, []byte("held")); err != nil {
		t.Fatal(err)
	}
	quiet := func(wantLive uint64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			open, tokens, live := srv.Stats().SessionsOpen, len(srv.txTokens), db.Stats().Lock.LiveRequests
			if open == 0 && tokens == 0 && live == wantLive {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("left behind: %d sessions, %d open-transaction tokens, %d live lock requests (want %d)",
					open, tokens, live, wantLive)
			}
		}
	}
	idle := db.Stats().Lock.LiveRequests // the holder's
	fx := &smFixture{store: ix.ID()}
	fx.register(t, db)
	m := &smModel{committed: map[string]bool{"dup": true, "held": true}}
	seen := map[string]int{} // reply classes, to check the draw reaches them all

	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		conn, remote := net.Pipe()
		srv.startSession(remote)
		conn.SetDeadline(time.Now().Add(30 * time.Second))
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
		sid := wire.NewDec(roundTrip(wire.OpHello, 0, nil).Body).U32()

		steps := 20 + rng.Intn(30)
		for i := 0; i < steps; i++ {
			st := fx.randomStep(t, rng, m.pending)
			was := m.open
			pendingBefore := map[string]bool{}
			for _, k := range m.pending {
				pendingBefore[k] = true
			}
			wantStatus, wantAborted := m.expect(st)
			resp := roundTrip(st.op, sid, st.body)
			if resp.Status != wantStatus || resp.Flags&wire.FlagTxAborted != 0 != wantAborted {
				t.Fatalf("seed %d step %d: %s with open=%v answered %v aborted=%v (%s), model says %v aborted=%v",
					seed, i, st.name, was, resp.Status, resp.Flags&wire.FlagTxAborted != 0, resp.Body, wantStatus, wantAborted)
			}
			seen[fmt.Sprintf("%v aborted=%v", wantStatus, wantAborted)]++
			switch {
			case st.op != wire.OpBatch:
			case wantStatus == wire.StatusNotFound:
				seen["unknown program"]++
			case wantStatus == wire.StatusRolledBack && st.begins:
				seen["program rollback in a begin batch"]++
			case wantStatus == wire.StatusOK:
				// A probe sees what its transaction wrote: the keys still
				// pending in the model, or committed by it just now.
				found, err := st.probed(resp.Body)
				if err != nil {
					t.Fatalf("seed %d step %d: %s: reply %x: %v", seed, i, st.name, resp.Body, err)
				}
				for j, k := range st.probes {
					want := m.committed[k] || slices.Contains(m.pending, k)
					if found[j] != want {
						t.Fatalf("seed %d step %d: %s: probe of %s found=%v, model says %v", seed, i, st.name, k, found[j], want)
					}
					if want && pendingBefore[k] {
						seen["call sees the open transaction's write"]++
					}
				}
			}
			if tokens := len(srv.txTokens); (tokens == 1) != m.open || tokens > 1 {
				t.Fatalf("seed %d step %d: %s with open=%v left %d open-transaction tokens, model says open=%v",
					seed, i, st.name, was, tokens, m.open)
			}
		}
		conn.Close() // rollback-on-disconnect when m.open
		seen[fmt.Sprintf("disconnect open=%v", m.open)]++
		m.end(false)
		quiet(idle)
	}

	for _, class := range []string{"ok aborted=false", "txOpen aborted=false", "noTx aborted=false",
		"proto aborted=false", "notFound aborted=false", "readOnly aborted=false",
		"duplicate aborted=false", "duplicate aborted=true", "timeout aborted=false", "timeout aborted=true",
		"rolledBack aborted=false", "rolledBack aborted=true", "unknown program",
		"program rollback in a begin batch", "call sees the open transaction's write",
		"disconnect open=false", "disconnect open=true"} {
		if seen[class] == 0 {
			t.Errorf("no step was answered %q: %v", class, seen)
		}
	}
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	quiet(0)
	found := map[string]bool{}
	if err := db.View(ctx, func(tx *shoremt.Tx) error {
		return ix.Scan(tx, nil, nil, func(k, _ []byte) bool {
			found[string(k)] = true
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	commits := 0
	for k, committed := range m.committed {
		if committed {
			commits++
		}
		if found[k] != committed {
			t.Errorf("key %s: committed=%v, in the index=%v", k, committed, found[k])
		}
	}
	for k := range found {
		if _, ok := m.committed[k]; !ok {
			t.Errorf("key %s is in the index and its transaction never ended", k)
		}
	}
	if len(found) != commits || commits < 20 {
		t.Fatalf("%d keys in the index, %d committed (want equal, and at least 20)", len(found), commits)
	}
}
