// Recovery: demonstrate ARIES crash recovery end to end — committed work
// survives a crash, in-flight work rolls back, and fuzzy checkpoints
// bound the log replayed at restart.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

func main() {
	ctx := context.Background()
	// Shared "durable hardware": the volume and log store survive the
	// crash; the engine (buffer pool, lock tables, ...) does not.
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)

	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 256
	engine, err := core.Open(vol, logStore, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Committed work: 100 rows + an index.
	t1, _ := engine.BeginCtx(ctx)
	table, err := engine.CreateTable(t1)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := engine.CreateIndex(t1)
	if err != nil {
		log.Fatal(err)
	}
	ixStore := ix.Store()
	var rids []page.RID
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key%03d", i)
		rid, err := engine.HeapInsertCtx(ctx, t1, table, []byte("value-"+key))
		if err != nil {
			log.Fatal(err)
		}
		rids = append(rids, rid)
		if err := engine.IndexInsertCtx(ctx, t1, ix, []byte(key), []byte(rid.String())); err != nil {
			log.Fatal(err)
		}
	}
	if err := engine.CommitCtx(ctx, t1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed 100 rows + index entries")

	// Fuzzy checkpoint (with a cleaner sweep so the §7.7 fast path fires).
	engine.Pool().CleanerSweep()
	if err := engine.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint taken")

	// In-flight transaction: must roll back at restart. Force its records
	// into the durable log so recovery has something to undo.
	t2, _ := engine.BeginCtx(ctx)
	if err := engine.HeapUpdateCtx(ctx, t2, table, rids[0], []byte("TAMPERED")); err != nil {
		log.Fatal(err)
	}
	if err := engine.IndexInsertCtx(ctx, t2, ix, []byte("ghost"), []byte("boo")); err != nil {
		log.Fatal(err)
	}
	if err := engine.Log().Flush(engine.Log().CurLSN()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("in-flight transaction wrote TAMPERED + ghost (flushed, uncommitted)")

	// CRASH: the volatile log tail and all engine state vanish.
	engine.CrashHard()
	fmt.Println("--- crash ---")

	// Restart: Open runs analysis / redo / undo.
	engine2, err := core.Open(vol, logStore, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer engine2.Close()
	fmt.Println("restart recovery complete")

	t3, _ := engine2.BeginCtx(ctx)
	got, err := engine2.HeapReadCtx(ctx, t3, table, rids[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("row 0 after recovery: %q (tampering undone: %v)\n",
		got, string(got) == "value-key000")
	ix2, err := engine2.OpenIndex(ixStore)
	if err != nil {
		log.Fatal(err)
	}
	if _, ok, _ := engine2.IndexLookupCtx(ctx, t3, ix2, []byte("ghost")); ok {
		log.Fatal("ghost key survived recovery!")
	}
	fmt.Println("ghost key correctly absent")
	count := 0
	if err := engine2.IndexScanCtx(ctx, t3, ix2, nil, nil, func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index has %d committed keys (want 100)\n", count)
	if err := engine2.CommitCtx(ctx, t3); err != nil {
		log.Fatal(err)
	}
	if count != 100 {
		log.Fatal("recovery lost committed data")
	}
	fmt.Println("recovery verified ✓")
}
