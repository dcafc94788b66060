package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

// TestRecoveryStressRandomCrashPoints runs a randomized workload, crashes
// at a pseudo-random durability point, recovers, and checks that exactly
// the committed prefix survives — repeated across seeds. This is the
// repository's strongest end-to-end ARIES check: analysis, redo (heap and
// B-tree, including splits), logical and physical undo, and directory
// rebuild all execute on every iteration.
func TestRecoveryStressRandomCrashPoints(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			vol := disk.NewMem(0)
			logStore := wal.NewMemSegmentStore(0)
			cfg := StageConfig(StageFinal)
			cfg.Frames = 64 // tiny pool: forces evictions + write-backs mid-run
			e, err := Open(vol, logStore, cfg)
			if err != nil {
				t.Fatal(err)
			}

			store := createTable(t, e)
			tx0, _ := e.Begin()
			ix, err := e.CreateIndex(tx0)
			if err != nil {
				t.Fatal(err)
			}
			ixStore := ix.Store()
			if err := e.Commit(tx0); err != nil {
				t.Fatal(err)
			}

			// committed mirrors everything whose commit returned.
			committed := map[string]string{}
			committedRIDs := map[string]page.RID{}

			nTx := 10 + rng.Intn(15)
			for i := 0; i < nTx; i++ {
				txi, err := e.Begin()
				if err != nil {
					t.Fatal(err)
				}
				local := map[string]string{}
				localRID := map[string]page.RID{}
				ops := 1 + rng.Intn(30)
				for j := 0; j < ops; j++ {
					key := fmt.Sprintf("k%02d-%03d", i, j)
					val := fmt.Sprintf("v%d-%d-%d", seed, i, j)
					if err := e.IndexInsert(txi, ix, []byte(key), []byte(val)); err != nil {
						t.Fatal(err)
					}
					rid, err := e.HeapInsertCtx(context.Background(), txi, store, []byte(val))
					if err != nil {
						t.Fatal(err)
					}
					local[key] = val
					localRID[key] = rid
				}
				switch rng.Intn(4) {
				case 0: // abort: nothing becomes visible
					if err := e.Abort(txi); err != nil {
						t.Fatal(err)
					}
				default: // commit
					if err := e.Commit(txi); err != nil {
						t.Fatal(err)
					}
					for k, v := range local {
						committed[k] = v
						committedRIDs[k] = localRID[k]
					}
				}
				if rng.Intn(5) == 0 {
					if rng.Intn(2) == 0 {
						e.Pool().CleanerSweep()
					}
					if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// One in-flight loser at crash time, flushed so undo must run.
			loser, _ := e.Begin()
			if err := e.IndexInsert(loser, ix, []byte("zz-loser"), []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
				t.Fatal(err)
			}
			e.CrashHard()

			e2, err := Open(vol, logStore, cfg)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer e2.Close()
			ix2, err := e2.OpenIndex(ixStore)
			if err != nil {
				t.Fatal(err)
			}
			txv, _ := e2.Begin()
			for k, v := range committed {
				got, ok, err := e2.IndexLookupCtx(context.Background(), txv, ix2, []byte(k))
				if err != nil || !ok || string(got) != v {
					t.Fatalf("committed key %s: got %q,%v,%v want %q", k, got, ok, err, v)
				}
				rec, err := e2.HeapReadCtx(context.Background(), txv, store, committedRIDs[k])
				if err != nil || string(rec) != v {
					t.Fatalf("committed heap row %s: %q, %v", k, rec, err)
				}
			}
			if _, ok, _ := e2.IndexLookupCtx(context.Background(), txv, ix2, []byte("zz-loser")); ok {
				t.Fatal("loser key survived recovery")
			}
			// Every index key must be a committed one.
			count := 0
			if err := e2.IndexScan(txv, ix2, nil, nil, func(k, v []byte) bool {
				if committed[string(k)] != string(v) {
					t.Errorf("uncommitted key %q=%q visible after recovery", k, v)
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
			// Structural integrity of the recovered tree (ordering, high
			// keys, levels, leaf chain).
			vcount, err := ix2.Verify()
			if err != nil {
				t.Fatalf("recovered tree corrupt: %v", err)
			}
			if vcount != len(committed) {
				t.Fatalf("Verify counted %d keys, want %d", vcount, len(committed))
			}
			if err := e2.Commit(txv); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiskWriteFaultSurfaces verifies that injected volume failures
// surface as errors instead of being swallowed, and that healing the
// volume lets the engine continue.
func TestDiskWriteFaultSurfaces(t *testing.T) {
	base := disk.NewMem(0)
	vol := disk.NewFault(base)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 8 // tiny: evictions happen quickly
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	store := createTable(t, e)

	// Fill enough pages (2 KiB records, ~4/page, 50 pages > 8 frames) that
	// evictions must write back, then arm faults.
	big := make([]byte, 2048)
	tx1, _ := e.Begin()
	for i := 0; i < 200; i++ {
		if _, err := e.HeapInsertCtx(context.Background(), tx1, store, big); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	vol.FailWritesAfter(0)
	// Continue inserting: eventually an eviction write-back must fail and
	// the error must surface through the public operation.
	tx2, _ := e.Begin()
	var opErr error
	for i := 0; i < 500 && opErr == nil; i++ {
		_, opErr = e.HeapInsertCtx(context.Background(), tx2, store, big)
	}
	if opErr == nil {
		t.Fatal("no error surfaced despite failing volume writes")
	}
	if !errors.Is(opErr, disk.ErrInjected) {
		t.Fatalf("surfaced error = %v, want injected fault", opErr)
	}
	_ = e.Abort(tx2)

	// Heal: the engine keeps working.
	vol.HealWrites()
	tx3, _ := e.Begin()
	if _, err := e.HeapInsertCtx(context.Background(), tx3, store, []byte("recovered")); err != nil {
		t.Fatalf("insert after heal: %v", err)
	}
	if err := e.Commit(tx3); err != nil {
		t.Fatal(err)
	}
}

// TestReadFaultSurfaces injects a read failure for one page and verifies
// the miss path reports it.
func TestReadFaultSurfaces(t *testing.T) {
	base := disk.NewMem(0)
	vol := disk.NewFault(base)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 4
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	store := createTable(t, e)
	tx1, _ := e.Begin()
	rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("target"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	// Persist everything, then evict the page cleanly so the next access
	// must hit the (faulty) disk.
	e.Pool().CleanerSweep()
	e.Pool().Drop(rid.Page)
	vol.FailReadsOf(rid.Page)
	tx2, _ := e.Begin()
	if _, err := e.HeapReadCtx(context.Background(), tx2, store, rid); !errors.Is(err, disk.ErrInjected) {
		t.Fatalf("read fault not surfaced: %v", err)
	}
	vol.HealReads()
	if got, err := e.HeapReadCtx(context.Background(), tx2, store, rid); err != nil || string(got) != "target" {
		t.Fatalf("after heal: %q, %v", got, err)
	}
	if err := e.Commit(tx2); err != nil {
		t.Fatal(err)
	}
}
