package server

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	shoremt "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/dora"
	"repro/internal/lock"
	"repro/internal/space"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// errorRows is every engine sentinel a session can be answered with and
// the client sentinel it must arrive as. A name without a package is the
// root's (errors.go).
var errorRows = []struct {
	name string
	err  error
	want error
}{
	{"ErrClosed", shoremt.ErrClosed, client.ErrClosing},
	{"core.ErrClosed", core.ErrClosed, client.ErrClosing},
	{"dora.ErrClosed", dora.ErrClosed, client.ErrClosing},
	{"wal.ErrLogClosed", wal.ErrLogClosed, client.ErrClosing},
	{"lock.ErrClosed", lock.ErrClosed, client.ErrClosing},
	{"ErrDeadlock", shoremt.ErrDeadlock, client.ErrDeadlock},
	{"ErrTimeout", shoremt.ErrTimeout, client.ErrTimeout},
	{"ErrCanceled", shoremt.ErrCanceled, client.ErrCanceled},
	{"ErrDuplicate", shoremt.ErrDuplicate, client.ErrDuplicate},
	{"ErrNotFound", shoremt.ErrNotFound, client.ErrNotFound},
	{"space.ErrNoSuchStore", space.ErrNoSuchStore, client.ErrNotFound},
	{"ErrNoRecord", shoremt.ErrNoRecord, client.ErrNoRecord},
	{"ErrReadOnly", shoremt.ErrReadOnly, client.ErrReadOnly},
	{"core.ErrSnapshotWrite", core.ErrSnapshotWrite, client.ErrReadOnly},
	{"ErrTxDone", shoremt.ErrTxDone, client.ErrNoTx},
	{"ErrRollback", shoremt.ErrRollback, client.ErrRolledBack},
	{"wire.ErrTooLarge", wire.ErrTooLarge, client.ErrTooLarge},
	{"wire.ErrMalformed", wire.ErrMalformed, client.ErrProto},
}

// noSession names the root sentinels that cannot reach a session, and why.
var noSession = map[string]string{
	"ErrManaged":    "only shoremt.Tx.Commit and Abort return it, and the server calls them on session transactions alone",
	"ErrCommitting": "abortTx consumes it: an in-doubt commit is answered not aborted, with the error that interrupted it",
}

// TestErrorTable drives every row through a real server and client: a
// registered program returns the row's error wrapped, once in an Update
// batch and once in a fragment of the session's transaction. The answer
// must be the row's client sentinel, retryable and aborting as the status
// table says, and core.IsRetryable must agree with it.
func TestErrorTable(t *testing.T) {
	ts := newTestServer(t, Options{})
	c := ts.dial(t)
	ctx := context.Background()
	for _, row := range errorRows {
		status := row.want.(wire.Status)
		if core.IsRetryable(row.err) != status.Retryable() {
			t.Errorf("%s: core.IsRetryable = %v, the status table says %v", row.name, !status.Retryable(), status.Retryable())
		}
		id := ts.db.Engine().RegisterProgram(core.Program{Run: func(_ context.Context, _ *tx.Tx, _, out []byte) ([]byte, error) {
			return out, fmt.Errorf("prog: %w", row.err)
		}})
		check := func(how string, err error, aborted bool) {
			t.Helper()
			switch {
			case !errors.Is(err, row.want):
				t.Errorf("%s in %s: got %v, want %v", row.name, how, err, row.want)
			case client.Retryable(err) != status.Retryable():
				t.Errorf("%s in %s: Retryable = %v", row.name, how, client.Retryable(err))
			case client.IsAborted(err) != aborted:
				t.Errorf("%s in %s: IsAborted = %v, want %v", row.name, how, client.IsAborted(err), aborted)
			}
		}
		check("an Update batch", c.Update(ctx, func(b *client.Batch) { b.Call(id, nil) }), false)

		sess, err := c.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b := client.NewBatch()
		b.Call(id, nil)
		err = sess.Run(ctx, b)
		check("a session batch", err, status.Aborts())
		if !client.IsAborted(err) {
			if err := sess.Rollback(ctx); err != nil {
				t.Fatalf("%s: rollback: %v", row.name, err)
			}
		}
	}

	// The engine's own answer for a store id nobody created.
	for _, op := range []func(b *client.Batch){
		func(b *client.Batch) { b.HeapInsert(999, []byte("x")) },
		func(b *client.Batch) { b.IndexGet(999, []byte("x")) },
	} {
		if err := c.Update(ctx, op); !errors.Is(err, client.ErrNotFound) {
			t.Errorf("data op on store 999: got %v, want %v", err, client.ErrNotFound)
		}
	}

	// And for a RID on an index node or off the volume: it names no
	// record of the table.
	var table *shoremt.Table
	var ix *shoremt.Index
	err := ts.db.Update(ctx, func(tx *shoremt.Tx) (err error) {
		if table, err = ts.db.CreateTable(tx); err != nil {
			return err
		}
		if ix, err = ts.db.CreateIndex(tx); err != nil {
			return err
		}
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			if err := ix.Insert(tx, []byte(k), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := ts.db.Engine().OpenIndex(ix.ID())
	if err != nil {
		t.Fatal(err)
	}
	for where, rid := range map[string]client.RID{
		"on an index node": {Page: uint64(inner.Root()), Slot: 2},
		"off the volume":   {Page: 1 << 39, Slot: 1},
	} {
		for name, op := range map[string]func(b *client.Batch){
			"HeapGet":    func(b *client.Batch) { b.HeapGet(table.ID(), rid) },
			"HeapUpdate": func(b *client.Batch) { b.HeapUpdate(table.ID(), rid, []byte("x")) },
			"HeapDelete": func(b *client.Batch) { b.HeapDelete(table.ID(), rid) },
		} {
			if err := c.Update(ctx, op); !errors.Is(err, client.ErrNoRecord) {
				t.Errorf("%s on a RID %s: got %v, want %v", name, where, err, client.ErrNoRecord)
			}
		}
	}
	if n, err := inner.Verify(); err != nil || n != 5 {
		t.Errorf("index Verify = %d keys, %v; want 5, nil", n, err)
	}
}

// TestErrorTableComplete checks that every exported Err* of the root's
// errors.go has a row in errorRows or a reason in noSession, and that
// errorRows covers every row of the server's statusRows.
func TestErrorTableComplete(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../../errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, row := range errorRows {
		rows[row.name] = true
	}
	found := 0
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.VAR {
			continue
		}
		for _, spec := range gen.Specs {
			for _, n := range spec.(*ast.ValueSpec).Names {
				if !n.IsExported() || !strings.HasPrefix(n.Name, "Err") {
					continue
				}
				found++
				if !rows[n.Name] && noSession[n.Name] == "" {
					t.Errorf("errors.go's %s has no row in errorRows and no reason in noSession", n.Name)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no exported Err* found in errors.go")
	}
	for _, sr := range statusRows {
		covered := false
		for _, row := range errorRows {
			covered = covered || (errors.Is(row.err, sr.err) && row.want == error(sr.status))
		}
		if !covered {
			t.Errorf("statusRows' %v → %v has no row in errorRows", sr.err, sr.status)
		}
	}
}
