// Stages: run the same concurrent insert workload against the real engine
// at every Figure 7 optimization stage and print the contention counters
// that motivated each optimization — a miniature of the paper's §7
// methodology ("profile, fix the dominant bottleneck, repeat") on live
// code instead of the simulator.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/wal"
)

const (
	workers  = 4
	duration = 500 * time.Millisecond
)

func runStage(stage core.Stage) {
	ctx := context.Background()
	cfg := core.StageConfig(stage)
	cfg.Frames = 1024
	engine, err := core.Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	// One private table per worker — the paper's microbenchmark shape.
	stores := make([]uint32, workers)
	setup, err := engine.BeginCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for i := range stores {
		s, err := engine.CreateTable(setup)
		if err != nil {
			log.Fatal(err)
		}
		stores[i] = s
	}
	if err := engine.CommitCtx(ctx, setup); err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	inserted := make([]int, workers)
	stop := time.Now().Add(duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := []byte("0123456789abcdef0123456789abcdef")
			for time.Now().Before(stop) {
				t, err := engine.BeginCtx(ctx)
				if err != nil {
					log.Fatal(err)
				}
				for i := 0; i < 100; i++ {
					if _, err := engine.HeapInsertCtx(ctx, t, stores[w], payload); err != nil {
						log.Fatal(err)
					}
				}
				if err := engine.CommitCtx(ctx, t); err != nil {
					log.Fatal(err)
				}
				inserted[w] += 100
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for _, n := range inserted {
		total += n
	}
	st := engine.Stats()
	fmt.Printf("%-9s %8.0f inserts/s", stage, float64(total)/duration.Seconds())
	fmt.Printf("  | bpool tableLock contended %5.1f%%  globalLock contended %5.1f%%",
		100*st.Buffer.TableLock.ContentionRatio(), 100*st.Buffer.GlobalLock.ContentionRatio())
	fmt.Printf("  | space lock contended %5.1f%%", 100*st.Space.Lock.ContentionRatio())
	fmt.Printf("  | log insertWaits %d", st.Log.InsertWaits)
	fmt.Printf("  | lock latch contended %5.1f%%\n", 100*st.Lock.Latch.ContentionRatio())
}

func main() {
	fmt.Printf("workload: %d workers, private tables, 100-record transactions, %v per stage\n\n",
		workers, duration)
	for _, stage := range core.Stages() {
		runStage(stage)
	}
	fmt.Println("\nNote: on a single-CPU host the absolute rates barely differ — that")
	fmt.Println("is precisely why the paper's figures are reproduced on the")
	fmt.Println("contention simulator (cmd/shorebench). The counters above still show")
	fmt.Println("each stage eliminating its bottleneck's contention.")
}
