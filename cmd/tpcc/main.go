// Command tpcc loads a TPC-C database into the real storage engine and
// runs a Payment / New Order / Delivery mix, with optional Order-Status /
// Stock-Level readers next to it, reporting throughput and engine
// statistics. An embedded run ends by checking TPC-C's consistency
// conditions 1–4 and fails if one does not hold. Unlike
// shorebench (the paper's figures on the contention simulator), this
// drives the actual Go implementation end to end.
//
// Usage:
//
//	tpcc -warehouses 2 -clients 4 -duration 5s -stage final
//
// A run picks one executor for the five transactions: the engine's managed
// transactions (the default), the partition executor (-dora, or -plp for
// partitioned B-trees as well), or a live shored daemon. With -addr each
// client goroutine dials its own connection to a daemon started with a
// -tpcc preload, and a transaction is one round trip: a call of the
// program the server registered for it. The engine flags are ignored in
// that mode — the server picked its configuration when it started.
//
//	shored -tpcc 2 &
//	tpcc -addr 127.0.0.1:7070 -clients 64 -duration 10s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/tpcc"
	"repro/internal/wal"
)

func main() {
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tpcc:", err)
		os.Exit(1)
	}
}

// executor runs the mix's five transactions against one back end.
type executor struct {
	payment     func(context.Context, tpcc.PaymentInput) error
	newOrder    func(context.Context, tpcc.NewOrderInput) error
	orderStatus func(context.Context, tpcc.OrderStatusInput) (tpcc.OrderStatusResult, error)
	stockLevel  func(context.Context, tpcc.StockLevelInput) (int, error)
	delivery    func(context.Context, tpcc.DeliveryInput) (int, error)
}

// backend is what a run drives: the database's scale, an executor for each
// client goroutine with the function that releases it, and finish, which
// prints the back end's statistics after the run, checks what it can and
// closes it.
type backend struct {
	desc   string
	scale  tpcc.Scale
	client func() (executor, func())
	finish func() error
}

// result is what a run counted. loaded and end are the embedded engine's
// statistics after the load and after the run.
type result struct {
	payments, newOrders, deliveries, userAborts, reads      atomic.Uint64
	payFailures, noFailures, deliveryFailures, readFailures atomic.Uint64

	loaded, end core.EngineStats
	errMu       sync.Mutex
	errSamples  map[string]int
}

// run parses args, runs the mix and prints its report to out.
func run(args []string, out io.Writer) (*result, error) {
	fs := flag.NewFlagSet("tpcc", flag.ContinueOnError)
	warehouses := fs.Int("warehouses", 2, "TPC-C warehouses")
	clients := fs.Int("clients", 4, "concurrent client goroutines")
	duration := fs.Duration("duration", 5*time.Second, "run duration")
	stage := core.StageFinal
	fs.Func("stage", "engine optimization stage (baseline|bpool1|caching|log|lock mgr|bpool2|final|pipeline; default final)", func(name string) error {
		for _, s := range core.Stages() {
			if s.String() == name {
				stage = s
				return nil
			}
		}
		return fmt.Errorf("unknown stage %q", name)
	})
	frames := fs.Int("frames", 8192, "buffer pool frames")
	shards := fs.Int("shards", 0, "buffer replacement shards (0 = stage default: GOMAXPROCS-scaled from bpool2 up, 1 = single clock hand)")
	payPct := fs.Int("payment", 50, "percent of the transactions other than Delivery (4 %) that are Payment (rest New Order)")
	olc := fs.Bool("olc", false, "optimistic latch coupling: validate B-tree inner nodes against latch versions instead of pinning them")
	dorafl := fs.Bool("dora", false, "data-oriented execution: route decomposed actions to partition owners with thread-local lock tables")
	plpfl := fs.Bool("plp", false, "physiological partitioning (implies -dora): per-partition B-tree segments with latch-free owner access, ownership fixed at open")
	partitions := fs.Int("partitions", 0, "DORA partitions (0 = GOMAXPROCS; clamped to -warehouses)")
	addr := fs.String("addr", "", "drive a remote shored server at this address instead of an embedded engine")
	logSegment := fs.Int64("log-segment", 0, "log segment size in bytes (0 = default segment size)")
	readers := fs.Int("readers", 0, "concurrent read-only clients running Stock-Level / Order-Status scan loops next to the write mix")
	snapshot := fs.Bool("snapshot", false, "multiversion snapshot reads: read-only transactions run lock-free against version chains")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	res := &result{errSamples: map[string]int{}}
	var b *backend
	var err error
	if *addr != "" {
		b, err = dialRemote(*addr, out)
	} else {
		cfg := core.StageConfig(stage)
		cfg.Frames = *frames
		cfg.OLC = *olc
		cfg.DORA = *dorafl || *plpfl
		cfg.PLP = *plpfl
		cfg.DoraPartitions = *partitions
		cfg.DoraKeys = *warehouses
		if *shards > 0 {
			cfg.Buffer.Shards = *shards
		}
		cfg.CleanerInterval = 10 * time.Millisecond
		cfg.Snapshot = *snapshot
		if *snapshot {
			// Version-chain GC rides checkpoints; without a checkpoint
			// cadence a long -snapshot run grows chains without bound.
			cfg.CheckpointEvery = 8 << 20
		}
		b, err = openEmbedded(cfg, *logSegment, *warehouses, out, res)
	}
	if err != nil {
		return nil, err
	}
	res.drive(b, *clients, *readers, *payPct, *duration, out)
	return res, b.finish()
}

// openEmbedded opens an in-memory engine per cfg, loads TPC-C into it and
// picks the executor: the engine's managed transactions, or the partition
// executor's under cfg.DORA.
func openEmbedded(cfg core.Config, logSegment int64, warehouses int, out io.Writer, res *result) (*backend, error) {
	engine, err := core.Open(disk.NewMem(0), wal.NewMemSegmentStore(logSegment), cfg)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	scale := tpcc.DefaultScale(warehouses)
	fmt.Fprintf(out, "loading %d warehouses (%d districts, %d customers/district, %d items)...\n",
		scale.Warehouses, scale.Districts, scale.Customers, scale.Items)
	start := time.Now()
	db, err := tpcc.Load(engine, scale, 42)
	if err != nil {
		engine.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	fmt.Fprintf(out, "loaded in %v\n", time.Since(start).Round(time.Millisecond))
	res.loaded = engine.Stats()

	// Every transaction runs under the engine's managed deadlock retry.
	ex := executor{db.PaymentCtx, db.NewOrderCtx, db.OrderStatusCtx, db.StockLevelCtx, db.DeliveryCtx}
	if cfg.DORA {
		ex.payment, ex.newOrder, ex.delivery = db.DoraPayment, db.DoraNewOrder, db.DoraDelivery
		if !cfg.Snapshot {
			// The writers' sub-transactions lock in their partitions'
			// tables only, so a reader locking in the shared manager
			// would see rows they have not committed. Snapshot readers
			// lock nowhere and stay on the View path.
			ex.orderStatus, ex.stockLevel = db.DoraOrderStatus, db.DoraStockLevel
		}
	}
	return &backend{
		desc:   fmt.Sprintf("stage %s, dora %v, plp %v, snapshot %v", cfg.Stage, cfg.DORA, cfg.PLP, cfg.Snapshot),
		scale:  scale,
		client: func() (executor, func()) { return ex, func() {} },
		finish: func() error {
			defer engine.Close()
			res.end = engine.Stats()
			printEngine(out, res.end)
			if err := db.CheckConsistency(context.Background()); err != nil {
				return err
			}
			fmt.Fprintf(out, "  consistency: TPC-C conditions 1-4 hold\n")
			return nil
		},
	}, nil
}

// dialRemote resolves the TPC-C catalog of the shored server at addr. Each
// client goroutine gets a connection of its own.
func dialRemote(addr string, out io.Writer) (*backend, error) {
	probe, err := client.Dial(addr, client.Options{})
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	stats := &tpcc.RemoteStats{}
	rp, err := tpcc.OpenRemote(context.Background(), probe, stats)
	if err != nil {
		probe.Close()
		return nil, fmt.Errorf("resolve catalog (is shored running with -tpcc?): %w", err)
	}
	fmt.Fprintf(out, "remote %s: %d warehouses, %d districts, %d customers/district, %d items\n",
		addr, rp.Scale.Warehouses, rp.Scale.Districts, rp.Scale.Customers, rp.Scale.Items)
	return &backend{
		desc:  "remote " + addr,
		scale: rp.Scale,
		client: func() (executor, func()) {
			c := &remoteConn{addr: addr, stats: stats}
			return c.executor(), c.close
		},
		finish: func() error {
			defer probe.Close()
			fmt.Fprintf(out, "  retries:     %d shed (busy), %d deadlock victims, %d lock timeouts\n",
				stats.Sheds.Load(), stats.Deadlocks.Load(), stats.Timeouts.Load())
			sst, ejson, err := probe.Stats(context.Background())
			if err != nil {
				return nil
			}
			fmt.Fprintf(out, "\nserver statistics:\n")
			fmt.Fprintf(out, "  sessions:    %d open, %d peak, %d total\n", sst.SessionsOpen, sst.SessionsPeak, sst.SessionsTotal)
			fmt.Fprintf(out, "  requests:    %d (%d batches), queue high-water %d\n", sst.Requests, sst.Batches, sst.QueueHighWater)
			fmt.Fprintf(out, "  shed:        %d busy refusals\n", sst.Sheds)
			fmt.Fprintf(out, "  rollbacks:   %d on disconnect, %d idle closes\n", sst.DisconnectRollbacks, sst.IdleCloses)
			var es core.EngineStats
			if json.Unmarshal(ejson, &es) == nil {
				printEngine(out, es)
			}
			return nil
		},
	}, nil
}

// remoteConn is one client goroutine's connection to the server. A
// transport error poisons a connection (its stream is desynchronized), so
// the next transaction redials, as any real database client would.
type remoteConn struct {
	addr  string
	stats *tpcc.RemoteStats
	r     *tpcc.Remote
}

// do runs fn on the connection, dialing it first if it has none or the
// last transaction poisoned it.
func (c *remoteConn) do(ctx context.Context, fn func(*tpcc.Remote) error) error {
	for c.r == nil || c.r.C.Closed() {
		c.close()
		if cl, err := client.Dial(c.addr, client.Options{}); err == nil {
			if c.r, err = tpcc.OpenRemote(ctx, cl, c.stats); err == nil {
				break
			}
			cl.Close()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	return fn(c.r)
}

func (c *remoteConn) close() {
	if c.r != nil {
		c.r.C.Close()
		c.r = nil
	}
}

func (c *remoteConn) executor() executor {
	return executor{
		payment: func(ctx context.Context, in tpcc.PaymentInput) error {
			return c.do(ctx, func(r *tpcc.Remote) error { return r.Payment(ctx, in) })
		},
		newOrder: func(ctx context.Context, in tpcc.NewOrderInput) error {
			return c.do(ctx, func(r *tpcc.Remote) error { return r.NewOrder(ctx, in) })
		},
		orderStatus: func(ctx context.Context, in tpcc.OrderStatusInput) (res tpcc.OrderStatusResult, err error) {
			err = c.do(ctx, func(r *tpcc.Remote) (err error) { res, err = r.OrderStatus(ctx, in); return err })
			return res, err
		},
		stockLevel: func(ctx context.Context, in tpcc.StockLevelInput) (low int, err error) {
			err = c.do(ctx, func(r *tpcc.Remote) (err error) { low, err = r.StockLevel(ctx, in); return err })
			return low, err
		},
		delivery: func(ctx context.Context, in tpcc.DeliveryInput) (n int, err error) {
			err = c.do(ctx, func(r *tpcc.Remote) (err error) { n, err = r.Delivery(ctx, in); return err })
			return n, err
		},
	}
}

// drive runs clients writers and readers readers against b for duration,
// then prints what they did.
func (res *result) drive(b *backend, clients, readers, payPct int, duration time.Duration, out io.Writer) {
	// The run ends by canceling ctx: workers drain at once, even from
	// inside a lock wait. It has no deadline, which a client would make its
	// network deadline: that can fire before ctx reports it, and the
	// transaction it cut would count as failed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer time.AfterFunc(duration, cancel).Stop()
	var wg sync.WaitGroup
	for c := 0; c < clients+readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ex, release := b.client()
			defer release()
			if c < clients {
				res.write(ctx, ex, b.scale, c, payPct)
			} else {
				res.read(ctx, ex, b.scale, c-clients)
			}
		}(c)
	}
	fmt.Fprintf(out, "running %d clients + %d readers for %v (%s)...\n", clients, readers, duration, b.desc)
	wg.Wait()

	secs := duration.Seconds()
	pay, no, del, reads := res.payments.Load(), res.newOrders.Load(), res.deliveries.Load(), res.reads.Load()
	fmt.Fprintf(out, "\nresults (tps by transaction type):\n")
	fmt.Fprintf(out, "  payments:    %8d (%8.1f tps, %d failed)\n", pay, float64(pay)/secs, res.payFailures.Load())
	fmt.Fprintf(out, "  new orders:  %8d (%8.1f tps, %d failed)\n", no, float64(no)/secs, res.noFailures.Load())
	fmt.Fprintf(out, "  deliveries:  %8d (%8.1f tps, %d failed)\n", del, float64(del)/secs, res.deliveryFailures.Load())
	fmt.Fprintf(out, "  user aborts: %8d (the spec's 1%% intentional rollbacks)\n", res.userAborts.Load())
	fmt.Fprintf(out, "  total:       %8d committed (%8.1f tps)\n", pay+no+del, float64(pay+no+del)/secs)
	if readers > 0 {
		fmt.Fprintf(out, "  readers:     %8d read txns (%8.1f tps, %d failed)\n", reads, float64(reads)/secs, res.readFailures.Load())
	}
	for msg, n := range res.errSamples {
		fmt.Fprintf(out, "  error:       %6d x %s\n", n, msg)
	}
}

// write runs writer c's mix until ctx is done: Delivery at TPC-C's 4 %
// share, and the rest Payment at payPct percent, else New Order. A
// Delivery that finds nothing to deliver counts as done, as the spec has
// it.
func (res *result) write(ctx context.Context, ex executor, scale tpcc.Scale, c, payPct int) {
	r := tpcc.NewRand(int64(1000 + c))
	home := uint32(c%scale.Warehouses + 1)
	for ctx.Err() == nil {
		var err error
		done, failed := &res.newOrders, &res.noFailures
		switch {
		case r.Int(1, 100) <= 4:
			done, failed = &res.deliveries, &res.deliveryFailures
			if _, err = ex.delivery(ctx, tpcc.GenDelivery(r, scale, home)); errors.Is(err, tpcc.ErrNothingToDeliver) {
				err = nil
			}
		case r.Int(1, 100) <= payPct:
			done, failed = &res.payments, &res.payFailures
			err = ex.payment(ctx, tpcc.GenPayment(r, scale, home))
		default:
			err = ex.newOrder(ctx, tpcc.GenNewOrder(r, scale, home))
		}
		switch {
		case err == nil:
			done.Add(1)
		case errors.Is(err, tpcc.ErrUserAbort):
			res.userAborts.Add(1)
		case ctx.Err() != nil:
			return // the run is over: drain
		default:
			res.fail(failed, err)
		}
	}
}

// read runs reader c's Stock-Level / Order-Status scan loop until ctx is
// done. With -snapshot these never touch a lock table; without it they
// take S locks against the writers.
func (res *result) read(ctx context.Context, ex executor, scale tpcc.Scale, c int) {
	r := tpcc.NewRand(int64(9000 + c))
	home := uint32(c%scale.Warehouses + 1)
	for ctx.Err() == nil {
		var err error
		if r.Int(1, 100) <= 50 {
			_, err = ex.stockLevel(ctx, tpcc.GenStockLevel(r, scale, home))
		} else {
			_, err = ex.orderStatus(ctx, tpcc.GenOrderStatus(r, scale, home))
		}
		switch {
		case err == nil:
			res.reads.Add(1)
		case ctx.Err() != nil:
			return // the run is over: drain
		default:
			res.fail(&res.readFailures, err)
		}
	}
}

// fail counts a failed transaction and keeps a sample of the messages.
func (res *result) fail(n *atomic.Uint64, err error) {
	n.Add(1)
	res.errMu.Lock()
	defer res.errMu.Unlock()
	if len(res.errSamples) < 16 || res.errSamples[err.Error()] > 0 {
		res.errSamples[err.Error()]++
	}
}

// printEngine prints an engine's statistics, with a section for each of
// MVCC, OLC, DORA and PLP that ran.
func printEngine(out io.Writer, st core.EngineStats) {
	fmt.Fprintf(out, "\nengine statistics:\n")
	fmt.Fprintf(out, "  buffer pool: %d hits, %d hot-array hits, %d misses, %d evictions\n",
		st.Buffer.Hits, st.Buffer.HotHits, st.Buffer.Misses, st.Buffer.Evictions)
	fmt.Fprintf(out, "  bpool repl.: %d shards, %d free-list allocs, %d steals, %d cleaner-supplied, %d clock scans\n",
		len(st.Buffer.Shards), st.Buffer.FreeListHits, st.Buffer.Steals, st.Buffer.CleanerFrees, st.Buffer.ScanFrames)
	if len(st.Buffer.Shards) > 1 {
		for i, sh := range st.Buffer.Shards {
			fmt.Fprintf(out, "    shard %2d:  %8d evictions, %8d scans, %6d steals, %6d cleaner-supplied, %4d free\n",
				i, sh.Evictions, sh.Scans, sh.Steals, sh.CleanerFrees, sh.FreeFrames)
		}
	}
	fmt.Fprintf(out, "  log:         %d inserts (%.1f MiB), %d flushes\n",
		st.Log.Inserts, float64(st.Log.InsertedBytes)/(1<<20), st.Log.Flushes)
	fmt.Fprintf(out, "  locks:       %d acquires, %d waits, %d deadlocks, %d timeouts, %d canceled, %d escalations (%d refused)\n",
		st.Lock.Acquires, st.Lock.Waits, st.Lock.Deadlocks, st.Lock.Timeouts, st.Lock.Cancels, st.Lock.Escalations, st.Lock.EscalationsRefused)
	fmt.Fprintf(out, "  lock bypass: %d cache hits\n", st.Lock.CacheHits)
	if st.Mvcc.Snapshots+st.Mvcc.VersionsInstalled > 0 {
		m := st.Mvcc
		fmt.Fprintf(out, "  mvcc:        %d versions installed (%d live, %.1f KiB, chain high-water %d), %d chain walks, %d reclaimed\n",
			m.VersionsInstalled, m.LiveVersions, float64(m.LiveBytes)/1024, m.ChainLenHW, m.ChainWalks, m.GCReclaimed)
		fmt.Fprintf(out, "               %d snapshots (%d active, oldest LSN %d), %d reads, %d scans\n",
			m.Snapshots, m.ActiveSnapshots, m.OldestSnapshot, m.SnapshotReads, m.SnapshotScans)
	}
	fmt.Fprintf(out, "  btree:       %d latched descents; cursor: %d hits, %d misses; splits: %d at the insertion point, %d logged as images\n",
		st.Btree.LatchedDescents, st.Btree.CursorHits, st.Btree.CursorMisses, st.Btree.InsertPointSplits, st.Btree.ImageSplits)
	if st.Btree.OptDescents > 0 {
		fmt.Fprintf(out, "  btree OLC:   %d optimistic descents, %d restarts, %d fallbacks\n",
			st.Btree.OptDescents, st.Btree.Restarts, st.Btree.Fallbacks)
	}
	if d := st.Dora; d.Partitions > 0 {
		fmt.Fprintf(out, "  dora:        %d partitions, %d actions routed, %d local tx, %d cross-partition tx, %d aborted\n",
			d.Partitions, d.Routed, d.LocalTx, d.CrossTx, d.Aborts)
		fmt.Fprintf(out, "               %d local acquires, %d local waits, %d rendezvous waits, queue high-water %d, skew %.2f (max/mean routed)\n",
			d.LocalAcquires, d.LocalWaits, d.RendezvousWaits, d.QueueHighWater, d.SkewRatio)
		for i, p := range d.Parts {
			fmt.Fprintf(out, "    part %2d:   %8d actions, %8d acquires, %6d waits, %8d commits, %6d aborts, queue hw %d\n",
				i, p.Routed, p.Acquires, p.LockWaits, p.Commits, p.Aborts, p.QueueHighWater)
		}
	}
	if p := st.Plp; p.Partitions > 0 {
		b := st.Btree
		fmt.Fprintf(out, "  plp:         %d routing keys over %d partitions (%d forests), map v%d\n",
			p.Keys, p.Partitions, p.Tables, p.MapVersion)
		fmt.Fprintf(out, "               owner path: %d descents, %d reads, %d writes, %d scans, %d fallbacks\n",
			b.OwnerDescents, b.OwnerReads, b.OwnerWrites, b.OwnerScans, b.OwnerFallbacks)
	}
	fmt.Fprintf(out, "  space:       %d page allocations, %d extent grows\n",
		st.Space.Allocs, st.Space.ExtentsGrown)
	fmt.Fprintf(out, "  tx:          %d begun, %d committed, %d aborted\n",
		st.Tx.Begins, st.Tx.Commits, st.Tx.Aborts)
}
