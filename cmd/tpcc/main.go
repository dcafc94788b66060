// Command tpcc loads a TPC-C database into the real storage engine and
// runs a Payment / New Order mix against it, reporting throughput and
// engine statistics. Unlike shorebench (which reproduces the paper's
// figures on the contention simulator), this drives the actual Go
// implementation end to end.
//
// Usage:
//
//	tpcc -warehouses 2 -clients 4 -duration 5s -stage final
//
// With -addr the same mix runs remotely against a live shored daemon
// (started with a -tpcc preload): each client goroutine dials its own
// connection and drives Payment / New Order over the wire protocol, one
// round trip per transaction: a call of the program the server registered
// for it. The engine flags are ignored in that
// mode — the server picked its stage when it started.
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
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/tpcc"
	"repro/internal/wal"
)

func stageByName(name string) (core.Stage, bool) {
	for _, s := range core.Stages() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

func main() {
	warehouses := flag.Int("warehouses", 2, "TPC-C warehouses")
	clients := flag.Int("clients", 4, "concurrent client goroutines")
	duration := flag.Duration("duration", 5*time.Second, "run duration")
	stageName := flag.String("stage", "final", "engine optimization stage (baseline|bpool1|caching|log|lock mgr|bpool2|final|pipeline)")
	frames := flag.Int("frames", 8192, "buffer pool frames")
	shards := flag.Int("shards", 0, "buffer replacement shards (0 = stage default: GOMAXPROCS-scaled from bpool2 up, 1 = single clock hand)")
	payPct := flag.Int("payment", 50, "percent of transactions that are Payment (rest New Order)")
	olc := flag.Bool("olc", false, "optimistic latch coupling: validate B-tree inner nodes against latch versions instead of pinning them")
	dorafl := flag.Bool("dora", false, "data-oriented execution: route decomposed actions to partition owners with thread-local lock tables")
	plpfl := flag.Bool("plp", false, "physiological partitioning (implies -dora): per-partition B-tree segments with latch-free owner access, ownership fixed at open")
	partitions := flag.Int("partitions", 0, "DORA partitions (0 = GOMAXPROCS; clamped to -warehouses)")
	addr := flag.String("addr", "", "drive a remote shored server at this address instead of an embedded engine")
	logSegment := flag.Int64("log-segment", 0, "log segment size in bytes (0 = default segment size)")
	redoWorkers := flag.Int("redo-workers", 0, "parallel redo workers during restart recovery (0 = GOMAXPROCS, 1 = serial)")
	readers := flag.Int("readers", 0, "concurrent read-only clients running Stock-Level / Order-Status scan loops next to the write mix")
	snapshot := flag.Bool("snapshot", false, "multiversion snapshot reads: read-only transactions run lock-free against version chains")
	flag.Parse()

	if *addr != "" {
		runRemote(*addr, *clients, *readers, *duration, *payPct)
		return
	}

	stage, ok := stageByName(*stageName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown stage %q\n", *stageName)
		os.Exit(2)
	}
	useDora := *dorafl || *plpfl
	cfg := core.StageConfig(stage)
	cfg.Frames = *frames
	cfg.OLC = *olc
	cfg.DORA = useDora
	cfg.PLP = *plpfl
	cfg.DoraPartitions = *partitions
	cfg.DoraKeys = *warehouses
	if *shards > 0 {
		cfg.Buffer.Shards = *shards
	}
	cfg.CleanerInterval = 10 * time.Millisecond
	cfg.RedoWorkers = *redoWorkers
	cfg.Snapshot = *snapshot
	if *snapshot {
		// Version-chain GC rides checkpoints; without a checkpoint cadence
		// a long -snapshot run grows chains without bound.
		cfg.CheckpointEvery = 8 << 20
	}

	engine, err := core.Open(disk.NewMem(0), wal.NewMemSegmentStore(*logSegment), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer engine.Close()

	scale := tpcc.DefaultScale(*warehouses)
	fmt.Printf("loading %d warehouses (%d districts, %d customers/district, %d items)...\n",
		scale.Warehouses, scale.Districts, scale.Customers, scale.Items)
	start := time.Now()
	db, err := tpcc.Load(engine, scale, 42)
	if err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded in %v\n", time.Since(start).Round(time.Millisecond))

	// The run is bounded by a context deadline: workers drain as soon as
	// it fires, even from inside a lock wait, and every transaction runs
	// under the engine's managed deadlock retry.
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	var payments, newOrders, userAborts, payFailures, noFailures atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := tpcc.NewRand(int64(1000 + c))
			home := uint32(c%*warehouses + 1)
			for ctx.Err() == nil {
				if r.Int(1, 100) <= *payPct {
					in := tpcc.GenPayment(r, scale, home)
					var err error
					if useDora {
						err = db.DoraPayment(ctx, in)
					} else {
						err = db.PaymentCtx(ctx, in)
					}
					switch {
					case err == nil:
						payments.Add(1)
					case errors.Is(err, lock.ErrCanceled):
						return // deadline: drain
					default:
						payFailures.Add(1)
					}
				} else {
					in := tpcc.GenNewOrder(r, scale, home)
					var err error
					if useDora {
						err = db.DoraNewOrder(ctx, in)
					} else {
						err = db.NewOrderCtx(ctx, in)
					}
					switch {
					case err == nil:
						newOrders.Add(1)
					case errors.Is(err, tpcc.ErrUserAbort):
						userAborts.Add(1)
					case errors.Is(err, lock.ErrCanceled):
						return // deadline: drain
					default:
						noFailures.Add(1)
					}
				}
			}
		}(c)
	}
	// Read-only clients: Stock-Level / Order-Status scan loops running
	// next to the write mix. With -snapshot these never touch the lock
	// table; without it they contend for S locks against the writers.
	var reads, readFailures atomic.Uint64
	for c := 0; c < *readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := tpcc.NewRand(int64(9000 + c))
			home := uint32(c%*warehouses + 1)
			for ctx.Err() == nil {
				var err error
				if r.Int(1, 100) <= 50 {
					_, err = db.StockLevelCtx(ctx, tpcc.GenStockLevel(r, scale, home))
				} else {
					_, err = db.OrderStatusCtx(ctx, tpcc.GenOrderStatus(r, scale, home))
				}
				switch {
				case err == nil:
					reads.Add(1)
				case ctx.Err() != nil, errors.Is(err, lock.ErrCanceled):
					return // deadline: drain
				default:
					readFailures.Add(1)
				}
			}
		}(c)
	}
	fmt.Printf("running %d clients + %d readers for %v (stage %s, snapshot %v)...\n",
		*clients, *readers, *duration, stage, *snapshot)
	wg.Wait()

	secs := duration.Seconds()
	total := payments.Load() + newOrders.Load()
	fmt.Printf("\nresults (tps by transaction type):\n")
	fmt.Printf("  payments:    %8d (%8.1f tps, %d failed)\n", payments.Load(), float64(payments.Load())/secs, payFailures.Load())
	fmt.Printf("  new orders:  %8d (%8.1f tps, %d failed)\n", newOrders.Load(), float64(newOrders.Load())/secs, noFailures.Load())
	fmt.Printf("  user aborts: %8d (the spec's 1%% intentional rollbacks)\n", userAborts.Load())
	fmt.Printf("  total:       %8d committed (%8.1f tps)\n", total, float64(total)/secs)
	if *readers > 0 {
		fmt.Printf("  readers:     %8d read txns (%8.1f tps, %d failed)\n",
			reads.Load(), float64(reads.Load())/secs, readFailures.Load())
	}

	st := engine.Stats()
	fmt.Printf("\nengine statistics:\n")
	fmt.Printf("  buffer pool: %d hits, %d hot-array hits, %d misses, %d evictions\n",
		st.Buffer.Hits, st.Buffer.HotHits, st.Buffer.Misses, st.Buffer.Evictions)
	fmt.Printf("  bpool repl.: %d shards, %d free-list allocs, %d steals, %d cleaner-supplied, %d clock scans\n",
		len(st.Buffer.Shards), st.Buffer.FreeListHits, st.Buffer.Steals, st.Buffer.CleanerFrees, st.Buffer.ScanFrames)
	if len(st.Buffer.Shards) > 1 {
		for i, sh := range st.Buffer.Shards {
			fmt.Printf("    shard %2d:  %8d evictions, %8d scans, %6d steals, %6d cleaner-supplied, %4d free\n",
				i, sh.Evictions, sh.Scans, sh.Steals, sh.CleanerFrees, sh.FreeFrames)
		}
	}
	fmt.Printf("  log:         %d inserts (%.1f MiB), %d flushes\n",
		st.Log.Inserts, float64(st.Log.InsertedBytes)/(1<<20), st.Log.Flushes)
	fmt.Printf("  locks:       %d acquires, %d waits, %d deadlocks, %d timeouts, %d canceled, %d escalations (%d refused)\n",
		st.Lock.Acquires, st.Lock.Waits, st.Lock.Deadlocks, st.Lock.Timeouts, st.Lock.Cancels, st.Lock.Escalations, st.Lock.EscalationsRefused)
	fmt.Printf("  lock bypass: %d cache hits\n", st.Lock.CacheHits)
	if *snapshot {
		m := st.Mvcc
		fmt.Printf("  mvcc:        %d versions installed (%d live, %.1f KiB, chain high-water %d), %d chain walks, %d reclaimed\n",
			m.VersionsInstalled, m.LiveVersions, float64(m.LiveBytes)/1024, m.ChainLenHW, m.ChainWalks, m.GCReclaimed)
		fmt.Printf("               %d snapshots (%d active, oldest LSN %d), %d reads, %d scans\n",
			m.Snapshots, m.ActiveSnapshots, m.OldestSnapshot, m.SnapshotReads, m.SnapshotScans)
	}
	fmt.Printf("  btree:       %d latched descents; cursor: %d hits, %d misses; splits: %d at the insertion point, %d logged as images\n",
		st.Btree.LatchedDescents, st.Btree.CursorHits, st.Btree.CursorMisses, st.Btree.InsertPointSplits, st.Btree.ImageSplits)
	if *olc {
		fmt.Printf("  btree OLC:   %d optimistic descents, %d restarts, %d fallbacks\n",
			st.Btree.OptDescents, st.Btree.Restarts, st.Btree.Fallbacks)
	}
	if useDora {
		d := st.Dora
		fmt.Printf("  dora:        %d partitions, %d actions routed, %d local tx, %d cross-partition tx, %d aborted\n",
			d.Partitions, d.Routed, d.LocalTx, d.CrossTx, d.Aborts)
		fmt.Printf("               %d local acquires, %d local waits, %d rendezvous waits, queue high-water %d, skew %.2f (max/mean routed)\n",
			d.LocalAcquires, d.LocalWaits, d.RendezvousWaits, d.QueueHighWater, d.SkewRatio)
		for i, p := range d.Parts {
			fmt.Printf("    part %2d:   %8d actions, %8d acquires, %6d waits, %8d commits, %6d aborts, queue hw %d\n",
				i, p.Routed, p.Acquires, p.LockWaits, p.Commits, p.Aborts, p.QueueHighWater)
		}
	}
	if *plpfl {
		p := st.Plp
		b := st.Btree
		fmt.Printf("  plp:         %d routing keys over %d partitions (%d forests), map v%d\n",
			p.Keys, p.Partitions, p.Tables, p.MapVersion)
		fmt.Printf("               owner path: %d descents, %d reads, %d writes, %d scans, %d fallbacks\n",
			b.OwnerDescents, b.OwnerReads, b.OwnerWrites, b.OwnerScans, b.OwnerFallbacks)
	}
	fmt.Printf("  space:       %d page allocations, %d extent grows\n",
		st.Space.Allocs, st.Space.ExtentsGrown)
	fmt.Printf("  tx:          %d begun, %d committed, %d aborted\n",
		st.Tx.Begins, st.Tx.Commits, st.Tx.Aborts)
}

// runRemote drives the Payment / New Order mix against a live shored
// server: one connection per client goroutine, client-side retry on
// deadlock/timeout/shed, server statistics fetched at the end. With
// readers > 0, additional connections run Stock-Level / Order-Status
// through the server's View path, which rides the snapshot read path
// when shored was started with -snapshot.
func runRemote(addr string, clients, readers int, duration time.Duration, payPct int) {
	probe, err := client.Dial(addr, client.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dial:", err)
		os.Exit(1)
	}
	stats := &tpcc.RemoteStats{}
	rp, err := tpcc.OpenRemote(context.Background(), probe, stats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "resolve catalog (is shored running with -tpcc?):", err)
		os.Exit(1)
	}
	scale := rp.Scale
	fmt.Printf("remote %s: %d warehouses, %d districts, %d customers/district, %d items\n",
		addr, scale.Warehouses, scale.Districts, scale.Customers, scale.Items)

	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	var payments, newOrders, userAborts, payFailures, noFailures atomic.Uint64
	var errMu sync.Mutex
	errSamples := map[string]int{}
	sample := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if len(errSamples) < 16 || errSamples[err.Error()] > 0 {
			errSamples[err.Error()]++
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var cl *client.Client
			var r *tpcc.Remote
			// dial (re)establishes the connection; a transport error
			// poisons the client (the stream is desynchronized), so the
			// driver reconnects like any real database client would.
			dial := func() bool {
				if cl != nil {
					cl.Close()
				}
				for ctx.Err() == nil {
					var err error
					if cl, err = client.Dial(addr, client.Options{}); err == nil {
						if r, err = tpcc.OpenRemote(ctx, cl, stats); err == nil {
							return true
						}
						cl.Close()
					}
					select {
					case <-ctx.Done():
					case <-time.After(50 * time.Millisecond):
					}
				}
				return false
			}
			if !dial() {
				return
			}
			defer func() { cl.Close() }()
			rnd := tpcc.NewRand(int64(1000 + c))
			home := uint32(c%scale.Warehouses + 1)
			for ctx.Err() == nil {
				if cl.Closed() && !dial() {
					return
				}
				if rnd.Int(1, 100) <= payPct {
					in := tpcc.GenPayment(rnd, scale, home)
					switch err := r.Payment(ctx, in); {
					case err == nil:
						payments.Add(1)
					case ctx.Err() != nil:
						return // deadline: drain
					default:
						payFailures.Add(1)
						sample(err)
					}
				} else {
					in := tpcc.GenNewOrder(rnd, scale, home)
					switch err := r.NewOrder(ctx, in); {
					case err == nil:
						newOrders.Add(1)
					case errors.Is(err, tpcc.ErrUserAbort):
						userAborts.Add(1)
					case ctx.Err() != nil:
						return // deadline: drain
					default:
						noFailures.Add(1)
						sample(err)
					}
				}
			}
		}(c)
	}
	// Read-only connections: each dials its own session and drives the
	// server's View path with Stock-Level / Order-Status scan loops.
	var reads, readFailures atomic.Uint64
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{})
			if err != nil {
				return
			}
			defer cl.Close()
			r, err := tpcc.OpenRemote(ctx, cl, stats)
			if err != nil {
				return
			}
			rnd := tpcc.NewRand(int64(9000 + c))
			home := uint32(c%scale.Warehouses + 1)
			for ctx.Err() == nil && !cl.Closed() {
				var err error
				if rnd.Int(1, 100) <= 50 {
					_, err = r.StockLevel(ctx, tpcc.GenStockLevel(rnd, scale, home))
				} else {
					_, err = r.OrderStatus(ctx, tpcc.GenOrderStatus(rnd, scale, home))
				}
				switch {
				case err == nil:
					reads.Add(1)
				case ctx.Err() != nil:
					return // deadline: drain
				default:
					readFailures.Add(1)
					sample(err)
				}
			}
		}(c)
	}
	fmt.Printf("running %d remote clients + %d readers for %v...\n", clients, readers, duration)
	wg.Wait()

	secs := duration.Seconds()
	total := payments.Load() + newOrders.Load()
	fmt.Printf("\nresults (tps by transaction type):\n")
	fmt.Printf("  payments:    %8d (%8.1f tps, %d failed)\n", payments.Load(), float64(payments.Load())/secs, payFailures.Load())
	fmt.Printf("  new orders:  %8d (%8.1f tps, %d failed)\n", newOrders.Load(), float64(newOrders.Load())/secs, noFailures.Load())
	fmt.Printf("  user aborts: %8d (the spec's 1%% intentional rollbacks)\n", userAborts.Load())
	fmt.Printf("  total:       %8d committed (%8.1f tps)\n", total, float64(total)/secs)
	if readers > 0 {
		fmt.Printf("  readers:     %8d read txns (%8.1f tps, %d failed)\n",
			reads.Load(), float64(reads.Load())/secs, readFailures.Load())
	}
	fmt.Printf("  retries:     %d shed (busy), %d deadlock victims, %d lock timeouts\n",
		stats.Sheds.Load(), stats.Deadlocks.Load(), stats.Timeouts.Load())
	errMu.Lock()
	for msg, n := range errSamples {
		fmt.Printf("  error:       %6d x %s\n", n, msg)
	}
	errMu.Unlock()

	if sst, ejson, err := probe.Stats(context.Background()); err == nil {
		fmt.Printf("\nserver statistics:\n")
		fmt.Printf("  sessions:    %d open, %d peak, %d total\n", sst.SessionsOpen, sst.SessionsPeak, sst.SessionsTotal)
		fmt.Printf("  requests:    %d (%d batches), queue high-water %d\n", sst.Requests, sst.Batches, sst.QueueHighWater)
		fmt.Printf("  shed:        %d busy refusals\n", sst.Sheds)
		fmt.Printf("  rollbacks:   %d on disconnect, %d idle closes\n", sst.DisconnectRollbacks, sst.IdleCloses)
		var es core.EngineStats
		if json.Unmarshal(ejson, &es) == nil && es.Mvcc.Snapshots > 0 {
			m := es.Mvcc
			fmt.Printf("  mvcc:        %d versions installed (%d live), %d chain walks, %d reclaimed\n",
				m.VersionsInstalled, m.LiveVersions, m.ChainWalks, m.GCReclaimed)
			fmt.Printf("               %d snapshots (%d active), %d reads, %d scans\n",
				m.Snapshots, m.ActiveSnapshots, m.SnapshotReads, m.SnapshotScans)
		}
	}
	probe.Close()
}
