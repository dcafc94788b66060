package tpcc

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/dora"
	"repro/internal/lock"
	"repro/internal/wal"
)

func newDoraDB(t testing.TB, scale Scale, partitions int) *DB {
	t.Helper()
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 2048
	cfg.DORA = true
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

// TestDoraCrossPartitionStress drives forced-remote Payments and New
// Orders from many goroutines (run under -race in CI) through the
// partition executor, over shared B-trees and over PLP's forests, and then
// audits the result: lost updates on either side of a rendezvous would
// break the warehouses' YTD, the districts' order sequence or the order
// tables' growth, which Audit checks exactly when nothing failed. No
// action reaches the shared lock manager, the HISTORY insert of every
// Payment included.
func TestDoraCrossPartitionStress(t *testing.T) {
	scale := Scale{Warehouses: 4, Districts: 2, Customers: 10, Items: 50, StockPerItem: true}
	for _, c := range []struct {
		name string
		open func(testing.TB, Scale, int) *DB
		seed int64
	}{{"static", newDoraDB, 7000}, {"plp", newPlpDB, 7100}} {
		t.Run(c.name, func(t *testing.T) {
			db := c.open(t, scale, 2)
			ctx, ex := context.Background(), db.Executor()
			base, err := db.Baseline(ctx)
			if err != nil {
				t.Fatal(err)
			}
			tally := NewTally(scale)
			var whYTD [5]atomic.Int64 // integer amounts: exact in float64
			acquires := db.Engine.Stats().Lock.Acquires
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := NewRand(c.seed + int64(w))
					home := uint32(w%scale.Warehouses + 1)
					// The next warehouse: always on the other partition
					// under static routing ((w-1) mod 2), every other
					// time under PLP's two ranges.
					remote := home%uint32(scale.Warehouses) + 1
					for i := 0; i < 40; i++ {
						if i%2 == 0 {
							amount := float64(r.Int(1, 500))
							err := ex.Payment(ctx, PaymentInput{
								WID: home, DID: uint8(r.Int(1, scale.Districts)),
								CWID: remote, CDID: uint8(r.Int(1, scale.Districts)),
								CID: uint32(r.Int(1, scale.Customers)), Amount: amount,
							})
							if err == nil {
								whYTD[home].Add(int64(amount))
							}
							tally.book(ctx, Payment, err)
						} else {
							in := NewOrderInput{
								WID: home, DID: uint8(r.Int(1, scale.Districts)), CID: uint32(r.Int(1, scale.Customers)),
								Lines: []NewOrderLine{
									{ItemID: uint32(r.Int(1, scale.Items)), SupplyWID: home, Quantity: 1 + uint8(i%5)},
									{ItemID: uint32(r.Int(1, scale.Items)), SupplyWID: remote, Quantity: 1 + uint8(w%5)},
								},
							}
							err := ex.NewOrder(ctx, in)
							if err == nil {
								tally.ackNewOrder(in)
							}
							tally.book(ctx, NewOrder, err)
						}
					}
				}()
			}
			wg.Wait()
			if n := tally.Failed.Sum(); n != 0 {
				t.Fatalf("%d transactions failed: %v", n, tally.Errors)
			}
			st := db.Engine.Stats()
			if got := st.Lock.Acquires - acquires; got != 0 {
				t.Errorf("DORA Payments and New Orders took %d shared lock-manager locks, want 0", got)
			}
			if st.Dora.CrossTx == 0 || st.Dora.LocalAcquires == 0 || st.Dora.Aborts != 0 {
				t.Errorf("%d cross-partition transactions, %d thread-local lock acquires, %d aborts; want some, some, none",
					st.Dora.CrossTx, st.Dora.LocalAcquires, st.Dora.Aborts)
			}
			if c.name == "plp" && (st.Btree.OwnerWrites == 0 || st.Plp.Tables == 0) {
				t.Errorf("%d owner-path writes over %d partitioned indexes; want both above zero", st.Btree.OwnerWrites, st.Plp.Tables)
			}
			rd, err := db.Engine.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for w := 1; w <= scale.Warehouses; w++ {
				if got, want := readRow(t, db, rd, wRow(uint32(w)), decodeWarehouse).YTD, float64(whYTD[w].Load()); got != want {
					t.Errorf("warehouse %d YTD = %v, want %v (lost update)", w, got, want)
				}
			}
			if err := db.Engine.Commit(rd); err != nil {
				t.Fatal(err)
			}
			if err := db.Audit(ctx, base, tally); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDoraRendezvousAbort forces a remote action to fail (unknown item
// on the remote partition) after the home action has already allocated
// the order id and inserted rows, and checks every partition rolled
// back: the district sequence, the stock row, and the order tables are
// untouched.
func TestDoraRendezvousAbort(t *testing.T) {
	scale := Scale{Warehouses: 2, Districts: 2, Customers: 10, Items: 50, StockPerItem: true}
	db := newDoraDB(t, scale, 2)
	ctx := context.Background()

	rd, err := db.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	distBefore := readRow(t, db, rd, dRow(1, 1), decodeDistrict)
	stockBefore := readRow(t, db, rd, sRow(1, 1), decodeStock)
	ordersBefore, err := db.Orders.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Engine.Commit(rd); err != nil {
		t.Fatal(err)
	}

	in := NewOrderInput{
		WID: 1, DID: 1, CID: 1,
		Lines: []NewOrderLine{
			{ItemID: 1, SupplyWID: 1, Quantity: 3},                        // home, valid
			{ItemID: uint32(scale.Items) + 99, SupplyWID: 2, Quantity: 1}, // remote, unknown item
		},
	}
	if err := db.DoraNewOrder(ctx, in); !errors.Is(err, ErrUserAbort) {
		t.Fatalf("DoraNewOrder = %v, want ErrUserAbort", err)
	}

	rd2, err := db.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Engine.Abort(rd2)
	distAfter := readRow(t, db, rd2, dRow(1, 1), decodeDistrict)
	if distAfter.NextOID != distBefore.NextOID {
		t.Errorf("NextOID %d -> %d: home partition did not roll back", distBefore.NextOID, distAfter.NextOID)
	}
	stockAfter := readRow(t, db, rd2, sRow(1, 1), decodeStock)
	if stockAfter != stockBefore {
		t.Errorf("stock (1,1) changed across aborted order: %+v -> %+v", stockBefore, stockAfter)
	}
	ordersAfter, err := db.Orders.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if ordersAfter != ordersBefore {
		t.Errorf("orders rows %d -> %d: insert survived the abort", ordersBefore, ordersAfter)
	}
	if st := db.Engine.Stats().Dora; st.Aborts != 1 {
		t.Errorf("Dora.Aborts = %d, want 1", st.Aborts)
	}
}

// TestDoraRollbackFlag checks the spec's intentional 1% rollback aborts
// every partition even when all actions succeed operationally.
func TestDoraRollbackFlag(t *testing.T) {
	scale := Scale{Warehouses: 2, Districts: 2, Customers: 10, Items: 50, StockPerItem: true}
	db := newDoraDB(t, scale, 2)
	ctx := context.Background()

	in := NewOrderInput{
		WID: 1, DID: 1, CID: 1, Rollback: true,
		Lines: []NewOrderLine{
			{ItemID: 1, SupplyWID: 1, Quantity: 1},
			{ItemID: 2, SupplyWID: 2, Quantity: 1},
		},
	}
	if err := db.DoraNewOrder(ctx, in); !errors.Is(err, ErrUserAbort) {
		t.Fatalf("DoraNewOrder = %v, want ErrUserAbort", err)
	}
	rd, err := db.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Engine.Abort(rd)
	dist := readRow(t, db, rd, dRow(1, 1), decodeDistrict)
	if want := uint32(1); dist.NextOID != want {
		t.Errorf("NextOID = %d, want %d after rollback", dist.NextOID, want)
	}
}

// TestDoraDisabled checks the entrypoints fail cleanly without DORA.
func TestDoraDisabled(t *testing.T) {
	db := newDB(t, TinyScale())
	if err := db.DoraPayment(context.Background(), PaymentInput{WID: 1, DID: 1, CWID: 1, CDID: 1, CID: 1, Amount: 1}); !errors.Is(err, ErrDoraDisabled) {
		t.Fatalf("DoraPayment = %v, want ErrDoraDisabled", err)
	}
}

// TestDoraReadOnlyTransactions exercises the Order-Status and
// Stock-Level decompositions against orders created through DORA.
func TestDoraReadOnlyTransactions(t *testing.T) {
	scale := Scale{Warehouses: 2, Districts: 2, Customers: 10, Items: 50, StockPerItem: true}
	db := newDoraDB(t, scale, 2)
	ctx := context.Background()

	in := NewOrderInput{
		WID: 1, DID: 1, CID: 3,
		Lines: []NewOrderLine{
			{ItemID: 5, SupplyWID: 1, Quantity: 2},
			{ItemID: 7, SupplyWID: 2, Quantity: 4},
		},
	}
	if err := db.DoraNewOrder(ctx, in); err != nil {
		t.Fatal(err)
	}

	res, err := db.DoraOrderStatus(ctx, OrderStatusInput{WID: 1, DID: 1, CID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 2 {
		t.Fatalf("order status lines = %d, want 2", len(res.Lines))
	}
	if _, err := db.DoraStockLevel(ctx, StockLevelInput{WID: 1, DID: 1, Threshold: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DoraDelivery(ctx, DeliveryInput{WID: 1, CarrierID: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestDoraLockSets pins the DORA decomposition derived from the plans to
// the lock lists DoraPayment, DoraNewOrder and DoraDelivery used to spell
// out by hand: the same actions, routed by the same warehouses, with the
// same locks. Delivery's scans take the X anchor of its warehouse.
// Static routing is modulo two partitions (warehouses 1 and 3 share one);
// PLP's map splits four warehouses into contiguous ranges (1 and 2 share
// one).
func TestDoraLockSets(t *testing.T) {
	static := func(w uint32) int { return int((w - 1) % 2) }
	plp := func(w uint32) int { return int((w - 1) / 2) }
	type want struct {
		route        uint32
		head, depend bool
		locks        []dora.LockReq
	}
	l := func(key uint64, m lock.Mode) dora.LockReq { return dora.LockReq{Key: key, Mode: m} }
	payHome := []dora.LockReq{l(kWh(1), lock.IX), l(kWRow(1), lock.X), l(kDist(1, 2), lock.X)}
	payCust := func(w uint32) []dora.LockReq {
		return []dora.LockReq{l(kWh(w), lock.IX), l(kCust(w, 1, 7), lock.X)}
	}
	pay := func(cw uint32) []step {
		return PaymentInput{WID: 1, DID: 2, CWID: cw, CDID: 1, CID: 7, Amount: 10}.plan()
	}
	noHead := []dora.LockReq{l(kWh(1), lock.IX), l(kWRow(1), lock.S), l(kDist(1, 2), lock.X), l(kCust(1, 2, 7), lock.S)}
	stock := func(w, i uint32) []dora.LockReq { return []dora.LockReq{l(kWh(w), lock.IX), l(kStock(w, i), lock.X)} }
	newOrder := func(lines ...NewOrderLine) []step {
		return NewOrderInput{WID: 1, DID: 2, CID: 7, Lines: lines}.plan()
	}
	delivery := func(w uint32) []step { return DeliveryInput{WID: w, CarrierID: 4}.plan(10) }
	remoteLines := []NewOrderLine{{ItemID: 5, SupplyWID: 1}, {ItemID: 6, SupplyWID: 2}, {ItemID: 7, SupplyWID: 3}, {ItemID: 8, SupplyWID: 2}}
	cat := func(lists ...[]dora.LockReq) []dora.LockReq { return slices.Concat(lists...) }
	for _, c := range []struct {
		name  string
		plan  []step
		group func(uint32) int
		want  []want
	}{
		{"local payment", pay(1), static, []want{{route: 1, locks: cat(payHome, payCust(1)[1:])}}},
		{"remote customer, same partition, static", pay(3), static, []want{{route: 1, locks: cat(payHome, payCust(3))}}},
		{"remote customer, same partition, plp", pay(2), plp, []want{{route: 1, locks: cat(payHome, payCust(2))}}},
		{"remote customer, other partition, static", pay(2), static, []want{{route: 1, locks: payHome}, {route: 2, locks: payCust(2)}}},
		{"remote customer, other partition, plp", pay(3), plp, []want{{route: 1, locks: payHome}, {route: 3, locks: payCust(3)}}},
		{"new order, home lines", newOrder(NewOrderLine{ItemID: 5, SupplyWID: 1}, NewOrderLine{ItemID: 6, SupplyWID: 1}), static,
			[]want{{route: 1, head: true, locks: cat(noHead, stock(1, 5)[1:], stock(1, 6)[1:])}}},
		{"new order, remote lines, static", newOrder(remoteLines...), static, []want{
			{route: 1, head: true, locks: cat(noHead, stock(1, 5)[1:], stock(3, 7))},
			{route: 2, depend: true, locks: cat(stock(2, 6), stock(2, 8)[1:])},
		}},
		{"new order, remote lines, plp", newOrder(remoteLines...), plp, []want{
			{route: 1, head: true, locks: cat(noHead, stock(1, 5)[1:], stock(2, 6), stock(2, 8)[1:])},
			{route: 3, depend: true, locks: stock(3, 7)},
		}},
		{"new order, one stock row twice", newOrder(NewOrderLine{ItemID: 5, SupplyWID: 1}, NewOrderLine{ItemID: 5, SupplyWID: 1}), plp,
			[]want{{route: 1, head: true, locks: cat(noHead, stock(1, 5)[1:])}}},
		{"delivery, static", delivery(3), static, []want{{route: 3, locks: []dora.LockReq{l(kWh(3), lock.X)}}}},
		{"delivery, plp", delivery(2), plp, []want{{route: 2, locks: []dora.LockReq{l(kWh(2), lock.X)}}}},
	} {
		got := actions(c.plan, c.group)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d actions, want %d", c.name, len(got), len(c.want))
			continue
		}
		sorted := func(l []dora.LockReq) []dora.LockReq {
			l = slices.Clone(l)
			slices.SortFunc(l, func(a, b dora.LockReq) int { return cmp.Compare(a.Key, b.Key) })
			return l
		}
		for i, w := range c.want {
			a := got[i]
			gotLocks, wantLocks := sorted(a.locks), sorted(w.locks)
			parks := a.depend && !a.head // Dependent, as runDora submits it
			if a.route != w.route || a.head != w.head || parks != w.depend || !slices.Equal(gotLocks, wantLocks) {
				t.Errorf("%s: action %d routes by %d (head %v, parks %v) with %v, want %d (%v, %v) with %v",
					c.name, i, a.route, a.head, parks, gotLocks, w.route, w.head, w.depend, wantLocks)
			}
		}
	}
}
