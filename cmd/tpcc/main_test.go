package main

import (
	"io"
	"net"
	"strings"
	"testing"

	shoremt "repro"
	"repro/internal/server"
	"repro/internal/tpcc"
)

// runTpcc runs the driver with args, which override its short defaults,
// and checks that every transaction type did work and none failed.
func runTpcc(t *testing.T, args ...string) *result {
	t.Helper()
	res, err := run(append([]string{"-warehouses", "2", "-clients", "2", "-readers", "1", "-duration", "150ms"}, args...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for typ := range tpcc.Types {
		if res.Acked[typ].Load() == 0 {
			t.Errorf("no %s committed", typ)
		}
	}
	if n := res.Failed.Sum(); n != 0 {
		t.Errorf("%d failed transactions: %v", n, res.Errors)
	}
	return res
}

// TestDriverModes runs the one driver loop over each executor: the
// engine's managed transactions and the partition executor over shared
// and partitioned B-trees (snapshot readers next to the first and the
// last), and a server on loopback.
func TestDriverModes(t *testing.T) {
	for _, mode := range [][]string{
		{"-stage", "final"},
		{"-snapshot"},
		{"-dora"},
		{"-plp"},
		{"-plp", "-snapshot"},
	} {
		t.Run(strings.Join(mode, " "), func(t *testing.T) {
			res := runTpcc(t, mode...)
			if res.end.Tx.Commits <= res.loaded.Tx.Commits {
				t.Errorf("engine commits %d after load, %d after the run", res.loaded.Tx.Commits, res.end.Tx.Commits)
			}
		})
	}
	t.Run("remote", func(t *testing.T) {
		db, err := shoremt.Open(shoremt.Options{CleanerInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tdb, err := tpcc.Load(db.Engine(), tpcc.TinyScale(), 42)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(db, server.Options{})
		for _, e := range tdb.Catalog() {
			srv.RegisterStore(e.Name, e.ID, e.Kind)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(l) }()
		before := db.Stats().Tx.Commits
		runTpcc(t, "-addr", l.Addr().String())
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		<-served
		if db.Stats().Tx.Commits == before {
			t.Error("the remote run committed nothing on the server")
		}
	})
}

// TestPartitionedReadersStayOffSharedLocks: the partition executor's
// writers lock in their partitions' tables only, so its readers must too —
// a reader taking S locks in the shared manager would see rows those
// writers have not committed. After the load the shared manager takes no
// lock at all.
func TestPartitionedReadersStayOffSharedLocks(t *testing.T) {
	res := runTpcc(t, "-plp", "-clients", "1")
	if before, after := res.loaded.Lock.Acquires, res.end.Lock.Acquires; after != before {
		t.Errorf("shared lock manager: %d acquires after load, %d after the run (%d reads)", before, after, res.Acked[tpcc.OrderStatus].Load()+res.Acked[tpcc.StockLevel].Load())
	}
}
