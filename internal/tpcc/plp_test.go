package tpcc

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/tx"
	"repro/internal/wal"
)

// newPlpDB opens a PLP engine (physiologically partitioned B-trees over
// DORA) and loads TPC-C into it: the warehouse-prefixed indexes become
// per-partition segment forests.
func newPlpDB(t testing.TB, scale Scale, partitions int) *DB {
	t.Helper()
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 4096
	cfg.PLP = true
	cfg.DoraPartitions = partitions
	cfg.DoraKeys = scale.Warehouses
	e, err := core.Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	db, err := Load(e, scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// verifyForests checks structural integrity and segment routing of every
// partitioned index (and the shared ITEM tree).
func verifyForests(t *testing.T, db *DB) {
	t.Helper()
	for _, ix := range []struct {
		name string
		ix   *core.Index
	}{
		{"warehouse", db.Warehouse}, {"district", db.District},
		{"customer", db.Customer}, {"orders", db.Orders},
		{"neworder", db.NewOrderTab}, {"orderline", db.OrderLine},
		{"stock", db.Stock}, {"item", db.Item},
	} {
		if _, err := ix.ix.Verify(); err != nil {
			t.Errorf("%s: Verify: %v", ix.name, err)
		}
	}
}

// TestPlpLatchBypass drives partition-local Payments and Order-Status
// reads through the executor and asserts the latch-free contract: every
// index operation lands on the Owner* counters or on the sub-transaction's
// cursor while the shared-tree descent counters (optimistic and latched
// alike) stay flat — partition owners never take a B-tree latch beyond
// the single-leaf write fence. Payment writes only rows it has just read
// (warehouse, district, customer), so each of its writes reaches its leaf
// through the cursor and not one of them is a descent.
func TestPlpLatchBypass(t *testing.T) {
	scale := Scale{Warehouses: 4, Districts: 2, Customers: 10, Items: 50, StockPerItem: true}
	db := newPlpDB(t, scale, 2)
	ctx := context.Background()

	if db.Engine.PlpMap() == nil {
		t.Fatal("no segment catalog")
	}
	before := db.Engine.Stats().Btree

	const payments = 200
	r := NewRand(11)
	for i := 0; i < payments; i++ {
		w := uint32(i%scale.Warehouses + 1)
		d := uint8(r.Int(1, scale.Districts))
		c := uint32(r.Int(1, scale.Customers))
		in := PaymentInput{
			WID: w, DID: d, CWID: w, CDID: d, CID: c,
			Amount: float64(r.Int(1, 500)),
		}
		if err := db.DoraPayment(ctx, in); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if _, err := db.DoraOrderStatus(ctx, OrderStatusInput{WID: w, DID: d, CID: c}); err != nil {
				t.Fatal(err)
			}
		}
	}

	after := db.Engine.Stats().Btree
	if hits := after.CursorHits - before.CursorHits; hits < 3*payments {
		t.Errorf("%d cursor hits for %d payments of three read-then-write rows each", hits, payments)
	}
	if after.OwnerDescents != before.OwnerDescents || after.OwnerWrites != before.OwnerWrites {
		t.Errorf("owner write descents moved: %d -> %d (writes %d -> %d); every write follows a read of its row",
			before.OwnerDescents, after.OwnerDescents, before.OwnerWrites, after.OwnerWrites)
	}
	if after.OwnerReads <= before.OwnerReads {
		t.Error("owner point reads did not climb")
	}
	if after.OwnerScans <= before.OwnerScans {
		t.Error("owner scans did not climb")
	}
	if after.OptDescents != before.OptDescents {
		t.Errorf("shared optimistic descents moved: %d -> %d", before.OptDescents, after.OptDescents)
	}
	if after.LatchedDescents != before.LatchedDescents {
		t.Errorf("latched descents moved: %d -> %d", before.LatchedDescents, after.LatchedDescents)
	}
	if after.OwnerFallbacks != before.OwnerFallbacks {
		t.Errorf("owner fallbacks moved: %d -> %d", before.OwnerFallbacks, after.OwnerFallbacks)
	}
}

// TestPlpSnapshotCoexistence runs lock-free View readers scanning a
// partitioned forest while partition-local writers commit through the
// executor (run under -race in CI): every snapshot scan must see a
// stable, fully stitched customer count in global key order, and the
// version-memory gauges must account for the writers' installs.
func TestPlpSnapshotCoexistence(t *testing.T) {
	scale := Scale{Warehouses: 4, Districts: 2, Customers: 20, Items: 50, StockPerItem: true}
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 4096
	cfg.PLP = true
	cfg.DoraPartitions = 2
	cfg.DoraKeys = scale.Warehouses
	cfg.Snapshot = true
	e, err := core.Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	db, err := Load(e, scale, 42)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	wantCustomers := scale.Warehouses * scale.Districts * scale.Customers
	done := make(chan struct{})
	// Writers keep paying until every reader has completed a scan
	// alongside them, however fast 60 payments go by.
	const readers = 2
	var scanned atomic.Int32 // readers with a completed scan

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := NewRand(int64(8200 + w))
			home := uint32(w%scale.Warehouses + 1)
			remote := home%uint32(scale.Warehouses) + 1
			for i := 0; i < 60 || (scanned.Load() < readers && !t.Failed()); i++ {
				cw := home
				if i%3 == 0 {
					cw = remote
				}
				in := PaymentInput{
					WID: home, DID: uint8(r.Int(1, scale.Districts)),
					CWID: cw, CDID: uint8(r.Int(1, scale.Districts)),
					CID: uint32(r.Int(1, scale.Customers)), Amount: float64(r.Int(1, 500)),
				}
				if err := db.DoraPayment(ctx, in); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	var rg sync.WaitGroup
	for c := 0; c < readers; c++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for scans := 0; ; scans++ {
				select {
				case <-done:
					if scans == 0 {
						t.Error("reader finished without a single scan")
					}
					return
				default:
				}
				n := 0
				var prev []byte
				err := db.Engine.RunViewCtx(ctx, core.RetryPolicy{}, func(vt *tx.Tx) error {
					return db.Engine.IndexScanCtx(ctx, vt, db.Customer, nil, nil, func(k, v []byte) bool {
						if prev != nil && bytes.Compare(prev, k) >= 0 {
							t.Errorf("stitched scan out of order: %x after %x", k, prev)
							return false
						}
						prev = append(prev[:0], k...)
						if _, err := decodeCustomer(v); err != nil {
							t.Errorf("torn customer row: %v", err)
							return false
						}
						n++
						return true
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
				if n != wantCustomers {
					t.Errorf("snapshot scan saw %d customers, want %d", n, wantCustomers)
					return
				}
				if scans == 0 {
					scanned.Add(1)
				}
			}
		}()
	}
	rg.Wait()
	wg.Wait()
	verifyForests(t, db)

	m := db.Engine.Stats().Mvcc
	if m.VersionsInstalled == 0 {
		t.Error("no versions installed by partition-local writers")
	}
	if m.LiveBytes <= 0 {
		t.Errorf("LiveBytes gauge = %d, want > 0", m.LiveBytes)
	}
	if m.ChainLenHW < 1 {
		t.Errorf("ChainLenHW = %d, want >= 1", m.ChainLenHW)
	}
	if m.Snapshots == 0 {
		t.Error("no snapshot transactions recorded")
	}
}

// TestPlpSharedPartitionOneAction pins PLP's action grouping: a Payment
// whose home and customer warehouses differ but share an owner (1 and 3
// of four warehouses over two partitions, under Route's modulo) is one
// action on one partition, not a cross-partition rendezvous.
func TestPlpSharedPartitionOneAction(t *testing.T) {
	scale := Scale{Warehouses: 4, Districts: 2, Customers: 10, Items: 50, StockPerItem: true}
	db := newPlpDB(t, scale, 2)
	if x := db.Engine.Dora(); x.Route(1) != x.Route(3) {
		t.Fatalf("warehouses 1 and 3 on partitions %d and %d, want one", x.Route(1), x.Route(3))
	}
	before := db.Engine.Stats().Dora
	in := PaymentInput{WID: 1, DID: 1, CWID: 3, CDID: 2, CID: 3, Amount: 10}
	if err := db.DoraPayment(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	after := db.Engine.Stats().Dora
	if local, cross := after.LocalTx-before.LocalTx, after.CrossTx-before.CrossTx; local != 1 || cross != 0 {
		t.Errorf("LocalTx +%d, CrossTx +%d; want +1, +0", local, cross)
	}
}
