// Command shored serves a shore-mt database over TCP: the embedded
// engine behind internal/wire's length-prefixed protocol, with
// per-connection sessions, a bounded admission queue in front of a
// GOMAXPROCS-scaled worker pool, and load shedding at the transaction
// boundary. SIGTERM/SIGINT drain in-flight sessions before the process
// exits; a second signal forces immediate teardown.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	shoremt "repro"
	"repro/internal/server"
	"repro/internal/tpcc"
)

func stageByName(name string) (shoremt.Stage, bool) {
	for _, s := range shoremt.Stages() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	dir := flag.String("dir", "", "data directory (empty = in-memory volume and log)")
	stageName := flag.String("stage", "final", "engine optimization stage (baseline|bpool1|caching|log|lock mgr|bpool2|final|pipeline)")
	frames := flag.Int("frames", 8192, "buffer pool frames")
	shards := flag.Int("shards", 0, "buffer replacement shards (0 = stage default)")
	durability := flag.String("durability", "strict", "commit durability: strict|relaxed")
	olc := flag.Bool("olc", false, "optimistic latch coupling on B-tree descents")
	workers := flag.Int("workers", 0, "execution pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x workers); overflow sheds with busy")
	idle := flag.Duration("idle", 5*time.Minute, "idle-session timeout (rolls back and closes; <0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	snapshot := flag.Bool("snapshot", false, "multiversion snapshot reads: View batches run lock-free against version chains")
	warehouses := flag.Int("tpcc", 0, "preload a TPC-C database with this many warehouses and publish its catalog")
	logSegment := flag.Int64("log-segment", 0, "log segment size in bytes (0 = default segment size)")
	redoWorkers := flag.Int("redo-workers", 0, "parallel redo workers during restart recovery (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	stage, ok := stageByName(*stageName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown stage %q\n", *stageName)
		os.Exit(2)
	}
	opts := shoremt.Options{
		Stage:        stage,
		BufferFrames: *frames,
		BufferShards: *shards,
		Dir:          *dir,
		OLC:          *olc,
		Snapshot:     *snapshot,

		LogSegmentBytes: *logSegment,
		RedoWorkers:     *redoWorkers,
	}
	if *snapshot && opts.CheckpointEvery == 0 {
		// Version-chain GC rides checkpoints; give a -snapshot server a
		// default cadence so long-lived chains get reclaimed.
		opts.CheckpointEvery = 8 << 20
	}
	if *durability == "relaxed" {
		opts.Durability = shoremt.DurabilityRelaxed
	} else if *durability != "strict" {
		fmt.Fprintf(os.Stderr, "unknown durability %q\n", *durability)
		os.Exit(2)
	}

	db, err := shoremt.Open(opts)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	if rs := db.Stats().Recovery; rs.Ran {
		log.Printf("recovery: analysis %v, redo %v (%d workers, %d/%d records replayed), undo %v (%d losers), %d B torn tail clipped, %d segments archived",
			rs.Analysis.Round(time.Microsecond), rs.Redo.Round(time.Microsecond), rs.RedoWorkers,
			rs.RecordsReplayed, rs.RecordsScanned, rs.Undo.Round(time.Microsecond), rs.Losers, rs.TornBytesClipped, rs.SegmentsArchived)
	}
	// DB.Close is idempotent: this defer and the shutdown path below can
	// both call it, whichever runs last is a no-op.
	defer db.Close()

	srv := server.New(db, server.Options{
		Workers:     *workers,
		QueueDepth:  *queue,
		IdleTimeout: *idle,
		Logf:        log.Printf,
	})

	if *warehouses > 0 {
		scale := tpcc.DefaultScale(*warehouses)
		log.Printf("loading TPC-C: %d warehouses (%d districts, %d customers/district, %d items)",
			scale.Warehouses, scale.Districts, scale.Customers, scale.Items)
		start := time.Now()
		tdb, err := tpcc.Load(db.Engine(), scale, 42)
		if err != nil {
			log.Fatalf("tpcc load: %v", err)
		}
		for _, e := range tdb.Catalog() {
			srv.RegisterStore(e.Name, e.ID, e.Kind)
		}
		log.Printf("loaded in %v", time.Since(start).Round(time.Millisecond))
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("shored listening on %s (stage %s, workers %d, queue %d)",
		l.Addr(), stage, *workers, *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("%v: draining (window %v; signal again to force)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		go func() {
			<-sig
			log.Printf("second signal: forcing shutdown")
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		cancel()
	case err := <-serveErr:
		if err != nil {
			log.Printf("serve: %v", err)
		}
		_ = srv.Close()
	}

	st := srv.Stats()
	if b, err := json.MarshalIndent(st, "", "  "); err == nil {
		log.Printf("server stats:\n%s", b)
	}
	es := db.Stats()
	log.Printf("engine: %d commits, %d aborts, %d lock acquires (%d live at exit)",
		es.Tx.Commits, es.Tx.Aborts, es.Lock.Acquires, es.Lock.LiveRequests)
	if *snapshot {
		m := es.Mvcc
		log.Printf("mvcc: %d versions installed (%d live, %d B, chain high-water %d), %d walks, %d reclaimed, %d snapshots",
			m.VersionsInstalled, m.LiveVersions, m.LiveBytes, m.ChainLenHW, m.ChainWalks, m.GCReclaimed, m.Snapshots)
	}
	if err := db.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}
