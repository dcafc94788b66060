package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/tx"
	"repro/internal/wal"
)

// TestOutOfPoolCounters is the benchmark's kv-outofpool audit at a size
// the benchmark cannot run: an index four times a 64-frame pool, four
// goroutines incrementing per-key counters, the cleaner on a 1 ms beat
// and a checkpoint every 50 commits, so every transaction misses, evicts
// dirty pages and meets pages on their way in or out. Afterwards every
// counter equals its acknowledged commits and the index verifies — on
// the live engine and again after a hard crash and recovery. It guards
// the buffer pool's frame life-cycle (buffer/frame.go, R1–R5) end to end:
// a lost update, an orphaned dirty frame or a checkpoint that forgot a
// page on its way out each surface here as a wrong counter.
func TestOutOfPoolCounters(t *testing.T) {
	const (
		frames   = 64
		keys     = 20000 // ~280 leaves of 100-byte values, filled in key order
		workers  = 4
		txns     = 250 // per worker
		opsPerTx = 4
		valBytes = 100
	)
	ctx := context.Background()
	key := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	for _, stage := range []Stage{StageBaseline, StageFinal} {
		t.Run(stage.String(), func(t *testing.T) {
			cfg := StageConfig(stage)
			cfg.Frames = frames
			cfg.CleanerInterval = time.Millisecond
			vol, logStore := disk.NewMem(0), wal.NewMemSegmentStore(0)
			e, err := Open(vol, logStore, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { e.Close() }()
			setup, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := e.CreateIndex(setup)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(setup); err != nil {
				t.Fatal(err)
			}
			val := make([]byte, valBytes)
			for lo := uint32(0); lo < keys; lo += 500 {
				load, err := e.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for n := lo; n < lo+500; n++ {
					if err := e.IndexInsert(load, ix, key(n), val); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Commit(load); err != nil {
					t.Fatal(err)
				}
			}
			if pages := vol.NumPages(); pages < 4*frames {
				t.Fatalf("volume has %d pages: the index does not outgrow the %d-frame pool fourfold", pages, frames)
			}

			acked := make([]atomic.Uint64, keys)
			var commits atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					buf := make([]byte, valBytes)
					for i := 0; i < txns; i++ {
						picks := make([]uint32, opsPerTx)
						for j := range picks {
							picks[j] = uint32(rng.Intn(keys))
						}
						slices.Sort(picks) // one lock order: no deadlocks to retry
						picks = slices.Compact(picks)
						err := e.RunCtx(ctx, RetryPolicy{}, func(t *tx.Tx) error {
							for _, n := range picks {
								v, ok, err := e.IndexLookupForUpdateCtx(ctx, t, ix, key(n))
								if err != nil {
									return err
								}
								if !ok {
									return fmt.Errorf("key %d is gone", n)
								}
								copy(buf, v)
								binary.BigEndian.PutUint64(buf, binary.BigEndian.Uint64(v)+1)
								if err := e.IndexUpdateCtx(ctx, t, ix, key(n), buf); err != nil {
									return err
								}
							}
							return nil
						}, nil)
						if err != nil {
							t.Errorf("worker %d txn %d: %v", w, i, err)
							return
						}
						for _, n := range picks {
							acked[n].Add(1)
						}
						if commits.Add(1)%50 == 0 {
							if err := e.Checkpoint(); err != nil {
								t.Errorf("checkpoint: %v", err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if st := e.Stats().Buffer; st.Evictions == 0 || st.Writebacks+st.CleanerIO == 0 {
				t.Fatalf("no eviction pressure: %+v", st)
			}

			audit := func(e *Engine, when string) {
				t.Helper()
				ix, err := e.OpenIndex(ix.Store())
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if n, err := ix.Verify(); err != nil || n != keys {
					t.Errorf("%s: Verify = %d keys, %v; want %d", when, n, err, keys)
				}
				scan, err := e.Begin()
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				defer e.Abort(scan)
				bad := 0
				err = e.IndexScan(scan, ix, nil, nil, func(k, v []byte) bool {
					n := binary.BigEndian.Uint32(k)
					if got, want := binary.BigEndian.Uint64(v), acked[n].Load(); got != want {
						if bad++; bad <= 5 {
							t.Errorf("%s: key %d counter = %d, acknowledged %d", when, n, got, want)
						}
					}
					return true
				})
				if err != nil || bad > 5 {
					t.Errorf("%s: scan error %v, %d wrong counters", when, err, bad)
				}
			}
			audit(e, "live")
			e.CrashHard()
			if e, err = Open(vol, logStore, cfg); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			audit(e, "after crash and recovery")
		})
	}
}
