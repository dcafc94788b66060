// Command tpcc loads TPC-C into the storage engine, runs a Payment / New
// Order / Delivery mix with optional Order-Status / Stock-Level readers
// through tpcc.Drive, and prints tps per transaction and the engine's
// statistics. An embedded run ends with tpcc's Audit and fails on a fault.
// The executor is the engine's managed transactions (the default), the
// partition executor (-dora, or -plp for partitioned B-trees too), or a
// shored daemon started with a -tpcc preload (-addr: a connection per
// client, a round trip per transaction, the engine flags ignored).
//
//	tpcc -warehouses 2 -clients 4 -duration 5s -stage final
//	shored -tpcc 2 & tpcc -addr 127.0.0.1:7070 -clients 64 -duration 10s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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

// result is what a run's clients were told and, embedded, the engine's
// statistics after the load and after the run. open opens an executor per
// client; finish prints the back end's statistics, audits what it can of
// the run and closes the back end.
type result struct {
	*tpcc.Tally
	loaded, end core.EngineStats
	open        func() tpcc.Executor
	finish      func() error
}

// run parses args, runs the mix and prints its report to out.
func run(args []string, out io.Writer) (*result, error) {
	fs := flag.NewFlagSet("tpcc", flag.ContinueOnError)
	warehouses := fs.Int("warehouses", 2, "TPC-C warehouses")
	clients := fs.Int("clients", 4, "concurrent client goroutines")
	duration := fs.Duration("duration", 5*time.Second, "run duration")
	stage := fs.String("stage", "final", "engine optimization stage (baseline|bpool1|caching|log|lock mgr|bpool2|final|pipeline)")
	frames := fs.Int("frames", 8192, "buffer pool frames")
	payPct := fs.Int("payment", 50, "percent of the transactions other than Delivery (4 %) that are Payment (rest New Order)")
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

	var res *result
	var err error
	if *addr != "" {
		res, err = dialRemote(*addr, out)
	} else if i := slices.IndexFunc(core.Stages(), func(s core.Stage) bool { return s.String() == *stage }); i < 0 {
		return nil, fmt.Errorf("unknown stage %q", *stage)
	} else {
		cfg := core.StageConfig(core.Stages()[i])
		cfg.Frames, cfg.Snapshot, cfg.CleanerInterval = *frames, *snapshot, 10*time.Millisecond
		cfg.DORA, cfg.PLP, cfg.DoraPartitions, cfg.DoraKeys = *dorafl || *plpfl, *plpfl, *partitions, *warehouses
		res, err = openEmbedded(cfg, *logSegment, *warehouses, out)
	}
	if err != nil {
		return nil, err
	}

	// Canceling ctx drains the clients at once, even from a lock wait. A
	// deadline would become a remote client's network deadline, which can
	// fire before ctx reports it and count the transaction it cut failed.
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(*duration, cancel).Stop()
	fmt.Fprintf(out, "running %d clients + %d readers for %v...\n", *clients, *readers, *duration)
	read := make(chan struct{})
	go func() {
		tpcc.Drive(ctx, res.open, tpcc.Mix{tpcc.OrderStatus: 50, tpcc.StockLevel: 50}, *readers, 9000, res.Tally)
		close(read)
	}()
	pay := 96 * *payPct / 100
	tpcc.Drive(ctx, res.open, tpcc.Mix{tpcc.Payment: pay, tpcc.NewOrder: 96 - pay, tpcc.Delivery: 4}, *clients, 1000, res.Tally)
	<-read

	secs := duration.Seconds()
	fmt.Fprintf(out, "\nresults (tps by transaction type):\n")
	for typ := range tpcc.Types {
		if n := res.Acked[typ].Load(); n+res.Failed[typ].Load() > 0 {
			fmt.Fprintf(out, "  %-13s %8d (%8.1f tps, %d failed, %d user aborts)\n", typ.String()+":", n, float64(n)/secs, res.Failed[typ].Load(), res.Aborted[typ].Load())
		}
	}
	n := res.Acked.Sum()
	fmt.Fprintf(out, "  total:         %8d committed (%8.1f tps)\n", n, float64(n)/secs)
	for msg, n := range res.Errors {
		fmt.Fprintf(out, "  error:       %6d x %s\n", n, msg)
	}
	return res, res.finish()
}

// openEmbedded opens an in-memory engine per cfg, loads TPC-C into it and
// drives the executor its configuration calls for.
func openEmbedded(cfg core.Config, logSegment int64, warehouses int, out io.Writer) (*result, error) {
	engine, err := core.Open(disk.NewMem(0), wal.NewMemSegmentStore(logSegment), cfg)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	scale := tpcc.DefaultScale(warehouses)
	fmt.Fprintf(out, "loading %d warehouses (%d districts, %d customers/district, %d items)...\n",
		scale.Warehouses, scale.Districts, scale.Customers, scale.Items)
	start := time.Now()
	db, err := tpcc.Load(engine, scale, 42)
	var base tpcc.Baseline
	if err == nil {
		base, err = db.Baseline(context.Background())
	}
	if err != nil {
		engine.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	fmt.Fprintf(out, "loaded in %v (stage %s, dora %v, plp %v, snapshot %v)\n",
		time.Since(start).Round(time.Millisecond), cfg.Stage, cfg.DORA, cfg.PLP, cfg.Snapshot)
	res := &result{Tally: tpcc.NewTally(scale), loaded: engine.Stats(), open: db.Executor}
	res.finish = func() error {
		defer engine.Close()
		res.end = engine.Stats()
		printEngine(out, res.end)
		if err := db.Audit(context.Background(), base, res.Tally); err != nil {
			return err
		}
		fmt.Fprintf(out, "  audit:       every index verifies, TPC-C conditions 1-4 hold, the tables grew by what was acknowledged\n")
		return nil
	}
	return res, nil
}

// dialRemote resolves the TPC-C catalog of the shored server at addr.
func dialRemote(addr string, out io.Writer) (*result, error) {
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
	return &result{Tally: tpcc.NewTally(rp.Scale), open: tpcc.Redial(addr, stats), finish: func() error {
		defer probe.Close()
		fmt.Fprintf(out, "  retries:     %d shed (busy), %d deadlock victims, %d lock timeouts\n", stats.Sheds.Load(), stats.Deadlocks.Load(), stats.Timeouts.Load())
		sst, ejson, err := probe.Stats(context.Background())
		if err != nil {
			return nil
		}
		fmt.Fprintf(out, "\nserver statistics:\n  sessions:    %d open, %d peak, %d total\n  requests:    %d (%d batches), queue high-water %d\n",
			sst.SessionsOpen, sst.SessionsPeak, sst.SessionsTotal, sst.Requests, sst.Batches, sst.QueueHighWater)
		fmt.Fprintf(out, "  shed:        %d busy refusals\n  rollbacks:   %d on disconnect, %d idle closes\n", sst.Sheds, sst.DisconnectRollbacks, sst.IdleCloses)
		var es core.EngineStats
		if json.Unmarshal(ejson, &es) == nil {
			printEngine(out, es)
		}
		return nil
	}}, nil
}

// printEngine prints an engine's statistics, with a section for each of
// MVCC, optimistic descents, DORA and PLP that ran.
func printEngine(out io.Writer, st core.EngineStats) {
	b, l, m, bt := st.Buffer, st.Lock, st.Mvcc, st.Btree
	fmt.Fprintf(out, "\nengine statistics:\n  buffer pool: %d hits, %d hot-array hits, %d misses, %d evictions\n", b.Hits, b.HotHits, b.Misses, b.Evictions)
	fmt.Fprintf(out, "  bpool repl.: %d shards, %d free-list allocs, %d steals, %d cleaner-supplied, %d clock scans\n",
		len(b.Shards), b.FreeListHits, b.Steals, b.CleanerFrees, b.ScanFrames)
	for i, sh := range b.Shards {
		if len(b.Shards) > 1 {
			fmt.Fprintf(out, "    shard %2d:  %8d evictions, %8d scans, %6d steals, %6d cleaner-supplied, %4d free\n",
				i, sh.Evictions, sh.Scans, sh.Steals, sh.CleanerFrees, sh.FreeFrames)
		}
	}
	fmt.Fprintf(out, "  log:         %d inserts (%.1f MiB), %d flushes\n", st.Log.Inserts, float64(st.Log.InsertedBytes)/(1<<20), st.Log.Flushes)
	fmt.Fprintf(out, "  locks:       %d acquires, %d waits, %d deadlocks, %d timeouts, %d canceled, %d escalations (%d refused)\n  lock bypass: %d cache hits\n",
		l.Acquires, l.Waits, l.Deadlocks, l.Timeouts, l.Cancels, l.Escalations, l.EscalationsRefused, l.CacheHits)
	if m.Snapshots+m.VersionsInstalled > 0 {
		fmt.Fprintf(out, "  mvcc:        %d versions installed (%d live, %.1f KiB, chain high-water %d), %d chain walks, %d reclaimed\n",
			m.VersionsInstalled, m.LiveVersions, float64(m.LiveBytes)/1024, m.ChainLenHW, m.ChainWalks, m.GCReclaimed)
		fmt.Fprintf(out, "               %d snapshots (%d active, oldest LSN %d), %d reads, %d scans\n",
			m.Snapshots, m.ActiveSnapshots, m.OldestSnapshot, m.SnapshotReads, m.SnapshotScans)
	}
	fmt.Fprintf(out, "  btree:       %d latched descents; cursor: %d hits, %d misses; splits: %d at the insertion point, %d logged as images\n",
		bt.LatchedDescents, bt.CursorHits, bt.CursorMisses, bt.InsertPointSplits, bt.ImageSplits)
	if bt.OptDescents+bt.OptLeafReads > 0 {
		fmt.Fprintf(out, "  btree OLC:   %d optimistic descents, %d optimistic leaf reads, %d restarts, %d fallbacks\n",
			bt.OptDescents, bt.OptLeafReads, bt.Restarts, bt.Fallbacks)
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
		fmt.Fprintf(out, "  plp:         %d routing keys over %d partitions (%d forests)\n", p.Keys, p.Partitions, p.Tables)
		fmt.Fprintf(out, "               segment trees: %d descents, %d leaf reads, %d fallbacks\n",
			bt.OwnerDescents, bt.OwnerReads, bt.OwnerFallbacks)
	}
	fmt.Fprintf(out, "  space:       %d page allocations, %d extent grows\n  tx:          %d begun, %d committed, %d aborted\n",
		st.Space.Allocs, st.Space.ExtentsGrown, st.Tx.Begins, st.Tx.Commits, st.Tx.Aborts)
}
