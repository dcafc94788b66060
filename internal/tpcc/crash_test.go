package tpcc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/wal"
)

// TestCrashKeepsAcknowledgedCommits is the crash audit of the commit path.
// Two clients run Payment, New Order and Delivery until the plug is pulled
// mid-stream (CrashHard: only what group commit made durable survives).
// The database reopened over the same volume and log must hold every New
// Order a client was told had committed, and pass TPC-C's consistency
// conditions. A New Order in flight at the crash may survive or not.
func TestCrashKeepsAcknowledgedCommits(t *testing.T) {
	for _, stage := range []core.Stage{core.StageFinal, core.StagePipeline} {
		t.Run(stage.String(), func(t *testing.T) {
			vol, logStore := disk.NewMem(0), wal.NewMemSegmentStore(0)
			cfg := core.StageConfig(stage)
			cfg.Frames = 2048
			e, err := core.Open(vol, logStore, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scale := TinyScale()
			db, err := Load(e, scale, 42)
			if err != nil {
				e.Close()
				t.Fatal(err)
			}
			before := nextOrderIDs(t, db)

			const clients, acks = 2, 300
			var (
				acked   atomic.Int64
				crashed atomic.Bool
				wg      sync.WaitGroup
			)
			enough, errs := make(chan struct{}), make(chan error, clients)
			orders := make([][]uint32, clients) // acknowledged New Orders per district, per client
			for c := range orders {
				orders[c] = make([]uint32, len(before))
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					ctx, r, home := context.Background(), NewRand(int64(7+c)), uint32(c%scale.Warehouses+1)
					for {
						var err error
						switch n := r.Int(1, 10); {
						case n <= 4:
							err = db.PaymentCtx(ctx, GenPayment(r, scale, home))
						case n <= 9:
							in := GenNewOrder(r, scale, home)
							if err = db.NewOrderCtx(ctx, in); err == nil {
								orders[c][district(scale, in.WID, in.DID)]++
							}
						default:
							_, err = db.DeliveryCtx(ctx, GenDelivery(r, scale, home))
						}
						if errors.Is(err, ErrUserAbort) || errors.Is(err, ErrNothingToDeliver) {
							err = nil
						}
						if err != nil {
							if !crashed.Load() {
								errs <- err
							}
							return
						}
						if acked.Add(1) == acks {
							close(enough)
						}
					}
				}(c)
			}
			stopped := make(chan struct{})
			go func() { wg.Wait(); close(stopped) }()
			select {
			case <-enough:
			case <-stopped:
				t.Fatalf("a client stopped before the crash: %v", <-errs)
			}
			crashed.Store(true)
			e.CrashHard()
			<-stopped
			select {
			case err := <-errs:
				t.Fatalf("a client failed before the crash: %v", err)
			default:
			}

			e2, err := core.Open(vol, logStore, cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer e2.Close()
			db2 := &DB{Engine: e2, Scale: scale, History: db.History}
			old := db.indexes()
			for i, ix := range db2.indexes() {
				if *ix, err = e2.OpenIndex((*old[i]).Store()); err != nil {
					t.Fatal(err)
				}
			}
			if err := db2.CheckConsistency(context.Background()); err != nil {
				t.Fatal(err)
			}
			after := nextOrderIDs(t, db2)
			tr, err := e2.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i, first := range before {
				w, d := uint32(i/scale.Districts+1), uint8(i%scale.Districts+1)
				end := first
				for c := range orders {
					end += orders[c][i]
				}
				if after[i] < end {
					t.Errorf("district %d/%d: next order id %d after the crash, %d New Orders were acknowledged from %d", w, d, after[i], end-first, first)
				}
				// Order ids are taken in commit order, and an acknowledged
				// commit hardened every commit before it: the acknowledged
				// orders are among the first end-first ids.
				for o := first; o < end; o++ {
					if _, ok, err := e2.IndexLookup(tr, db2.Orders, oRow(w, d, o).key()); err != nil || !ok {
						t.Fatalf("district %d/%d: ORDERS lost order %d of %d acknowledged from %d (err %v)", w, d, o, end-first, first, err)
					}
				}
			}
			if err := e2.Commit(tr); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// district numbers district d of warehouse w from 0.
func district(scale Scale, w uint32, d uint8) int {
	return int(w-1)*scale.Districts + int(d-1)
}

// nextOrderIDs reads every district's D_NEXT_O_ID, in district order.
func nextOrderIDs(t *testing.T, db *DB) []uint32 {
	t.Helper()
	tr, err := db.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	next := make([]uint32, db.Scale.Warehouses*db.Scale.Districts)
	for w := uint32(1); w <= uint32(db.Scale.Warehouses); w++ {
		for d := uint8(1); d <= uint8(db.Scale.Districts); d++ {
			next[district(db.Scale, w, d)] = readRow(t, db, tr, dRow(w, d), decodeDistrict).NextOID
		}
	}
	if err := db.Engine.Commit(tr); err != nil {
		t.Fatal(err)
	}
	return next
}
