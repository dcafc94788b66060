package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	shoremt "repro"
	"repro/client"
	"repro/internal/tpcc"
)

// newBenchServer serves a freshly loaded TPC-C database on loopback.
func newBenchServer(b testing.TB, opts Options, warehouses int) (*testServer, tpcc.Scale) {
	b.Helper()
	db, err := shoremt.Open(shoremt.Options{CleanerInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	scale := tpcc.DefaultScale(warehouses)
	tdb, err := tpcc.Load(db.Engine(), scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(db, opts)
	for _, e := range tdb.Catalog() {
		srv.RegisterStore(e.Name, e.ID, e.Kind)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})
	return &testServer{db: db, srv: srv, addr: l.Addr().String()}, scale
}

// BenchmarkServerRemote drives the TPC-C Payment / New Order mix over the
// wire: every transaction is one round trip through admission control,
// with client-side retry absorbing deadlock victims, lock timeouts and
// shed requests. The clients=256 variant exercises connection counts far
// above GOMAXPROCS; overload
// points many clients at deliberately few slots and reports how much
// load is shed and, as x-of-clients=16, how well throughput holds: its
// tx/s over the unconstrained clients=16 run's. Graceful degradation
// means that ratio stays near 1 (0.8 is the bar). It is a wall-clock
// ratio, so it is reported here and not asserted in a test.
func BenchmarkServerRemote(b *testing.B) {
	var base float64
	for _, nc := range []int{16, 256} {
		b.Run(fmt.Sprintf("clients=%d", nc), func(b *testing.B) {
			if tps := benchRemoteTPCC(b, Options{}, nc); nc == 16 {
				base = tps
			}
		})
	}
	b.Run("overload", func(b *testing.B) {
		tps := benchRemoteTPCC(b, Options{Workers: 2, QueueDepth: 2}, 64)
		if base > 0 { // zero when -bench selected overload alone
			b.ReportMetric(tps/base, "x-of-clients=16")
		}
	})
}

// benchRemoteTPCC runs clients on their own connections until b.N
// transactions have been answered and returns the committed transactions
// per second.
func benchRemoteTPCC(b *testing.B, opts Options, clients int) float64 {
	ts, scale := newBenchServer(b, opts, 2)
	stats := &tpcc.RemoteStats{}
	tally := tpcc.NewTally(scale)
	answered := func() int {
		return int(tally.Acked.Sum() + tally.Aborted.Sum() + tally.Failed.Sum())
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for answered() < b.N {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	b.ResetTimer()
	tpcc.Drive(ctx, tpcc.Redial(ts.addr, stats), tpcc.Mix{tpcc.Payment: 50, tpcc.NewOrder: 50}, clients, 1, tally)
	b.StopTimer()

	n := float64(answered())
	var tps float64
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		tps = float64(tally.Acked.Sum()+tally.Aborted.Sum()) / elapsed
		b.ReportMetric(tps, "tx/s")
	}
	failures := tally.Failed.Sum()
	b.ReportMetric(float64(stats.Sheds.Load())/n, "sheds/op")
	b.ReportMetric(float64(stats.Deadlocks.Load()+stats.Timeouts.Load())/n, "retries/op")
	b.ReportMetric(float64(failures)/n, "failures/op")
	if failures > uint64(n/5) {
		b.Fatalf("%d of %v transactions failed hard: %v", failures, n, tally.Errors)
	}
	if peak := ts.srv.Stats().SessionsPeak; int(peak) < clients {
		b.Fatalf("sessions peak %d < %d clients", peak, clients)
	}
	return tps
}

// TestServerOverload checks how a server with one slot and room for two
// waiters takes sixteen clients, none of which retry: excess entry
// requests are refused with ErrBusy, every other reply is a commit or a
// retryable error, and transactions keep committing. How much throughput
// holds under overload is a wall-clock ratio; BenchmarkServerRemote
// reports it.
func TestServerOverload(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	ctx := context.Background()

	setup := ts.dial(t)
	store, err := setup.CreateIndex(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Update(ctx, func(b *client.Batch) {
		for i := 0; i < 16; i++ {
			b.IndexInsert(store, []byte(fmt.Sprintf("k%02d", i)), []byte("0"))
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Every client runs until both outcomes have been seen, however slow
	// the machine.
	var committed, busy atomic.Uint64
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(ts.addr, client.Options{Timeout: 30 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			key := []byte(fmt.Sprintf("k%02d", i%16))
			for (committed.Load() == 0 || busy.Load() == 0) && time.Now().Before(deadline) {
				err := c.Update(ctx, func(b *client.Batch) {
					b.IndexUpdate(store, key, []byte("1"))
				})
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, client.ErrBusy):
					busy.Add(1)
				case client.Retryable(err):
				default:
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if committed.Load() == 0 || busy.Load() == 0 {
		t.Fatalf("under overload: %d committed, %d shed; want both above zero", committed.Load(), busy.Load())
	}
}
