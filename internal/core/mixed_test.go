package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/wal"
)

// TestConcurrentCommitAbortMix runs concurrent workers against ONE shared
// index, each randomly committing or aborting, and verifies that exactly
// the committed keys remain — exercising logical undo (with B-tree splits)
// interleaved with concurrent inserts from other transactions, which is
// the scenario physical undo would corrupt and ARIES/IM-style logical undo
// exists for.
func TestConcurrentCommitAbortMix(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 512
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tx0, _ := e.Begin()
	ix, err := e.CreateIndex(tx0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx0); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const txPerWorker = 25
	const keysPerTx = 20
	var mu sync.Mutex
	committed := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txPerWorker; i++ {
				txi, err := e.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				keys := make([]string, 0, keysPerTx)
				ok := true
				for j := 0; j < keysPerTx; j++ {
					k := fmt.Sprintf("w%d-t%02d-k%02d", w, i, j)
					if err := e.IndexInsert(txi, ix, []byte(k), []byte("v")); err != nil {
						t.Error(err)
						ok = false
						break
					}
					keys = append(keys, k)
				}
				if !ok {
					_ = e.Abort(txi)
					return
				}
				// Workers alternate commit/abort deterministically.
				if (w+i)%2 == 0 {
					if err := e.Commit(txi); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					for _, k := range keys {
						committed[k] = true
					}
					mu.Unlock()
				} else {
					if err := e.Abort(txi); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Exactly the committed keys remain, tree structurally sound.
	txv, _ := e.Begin()
	count := 0
	if err := e.IndexScan(txv, ix, nil, nil, func(k, v []byte) bool {
		if !committed[string(k)] {
			t.Errorf("aborted key %q survived", k)
			return false
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(committed) {
		t.Fatalf("index has %d keys, want %d", count, len(committed))
	}
	if err := e.Commit(txv); err != nil {
		t.Fatal(err)
	}
	vcount, err := ix.Verify()
	if err != nil {
		t.Fatalf("tree corrupt after mixed workload: %v", err)
	}
	if vcount != len(committed) {
		t.Fatalf("Verify counted %d, want %d", vcount, len(committed))
	}
}
