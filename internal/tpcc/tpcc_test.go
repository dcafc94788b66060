package tpcc

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/tx"
	"repro/internal/wal"
)

func newDB(t testing.TB, scale Scale) *DB {
	t.Helper()
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 2048
	e, err := core.Open(vol, logStore, cfg)
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

// key returns r's B-tree key.
func (r row) key() []byte { return r.appendKey(make([]byte, 0, maxKey)) }

// readRow reads row r in tx under an S lock and decodes it.
func readRow[T any](t testing.TB, db *DB, tx *tx.Tx, r row, decode func([]byte) (T, error)) T {
	t.Helper()
	got, err := (&txWriter{db: db, ctx: context.Background(), t: tx}).fetch(read{row: r, mode: lock.S})
	if err != nil {
		t.Fatal(err)
	}
	// The value is in tx's arena, and the row's strings would alias it.
	v, err := decode(bytes.Clone(got[0].value))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCodecRoundTrips(t *testing.T) {
	w := Warehouse{ID: 3, Name: "W3", Street: "s", City: "c", State: "ST", Zip: "123456789", Tax: 0.1, YTD: 5.5}
	got, err := decodeWarehouse(w.encode(nil))
	if err != nil || got != w {
		t.Fatalf("warehouse: %+v, %v", got, err)
	}
	d := District{WID: 1, ID: 2, Name: "D", Tax: 0.05, YTD: 1, NextOID: 42}
	gd, err := decodeDistrict(d.encode(nil))
	if err != nil || gd != d {
		t.Fatalf("district: %+v, %v", gd, err)
	}
	c := Customer{WID: 1, DID: 2, ID: 3, First: "a", Middle: "OE", Last: "BARBARBAR", Credit: "GC", Balance: -10}
	gc, err := decodeCustomer(c.encode(nil))
	if err != nil || gc != c {
		t.Fatalf("customer: %+v, %v", gc, err)
	}
	h := History{CID: 1, CDID: 2, CWID: 3, DID: 4, WID: 5, Date: 99, Amount: 7.5, Data: "x"}
	gh, err := decodeHistory(h.encode(nil))
	if err != nil || gh != h {
		t.Fatalf("history: %+v, %v", gh, err)
	}
	o := Order{WID: 1, DID: 2, ID: 3, CID: 4, EntryDate: 5, OLCount: 6, AllLocal: true}
	gon, err := decodeOrder(o.encode(nil))
	if err != nil || gon != o {
		t.Fatalf("order: %+v, %v", gon, err)
	}
	n := NewOrderRow{WID: 1, DID: 2, OID: 3}
	gn, err := decodeNewOrderRow(n.encode(nil))
	if err != nil || gn != n {
		t.Fatalf("neworder: %+v, %v", gn, err)
	}
	ol := OrderLine{WID: 1, DID: 2, OID: 3, Number: 4, ItemID: 5, SupplyWID: 6, Quantity: 7, Amount: 8.5, DistInfo: "d"}
	gol, err := decodeOrderLine(ol.encode(nil))
	if err != nil || gol != ol {
		t.Fatalf("orderline: %+v, %v", gol, err)
	}
	it := Item{ID: 1, ImID: 2, Name: "n", Price: 3.5, Data: "d"}
	git, err := decodeItem(it.encode(nil))
	if err != nil || git != it {
		t.Fatalf("item: %+v, %v", git, err)
	}
	s := Stock{WID: 1, ItemID: 2, Quantity: -3, YTD: 4.5, OrderCnt: 5, RemoteCnt: 6, DistInfo: "di", Data: "da"}
	gs, err := decodeStock(s.encode(nil))
	if err != nil || gs != s {
		t.Fatalf("stock: %+v, %v", gs, err)
	}
	// Truncated rows error.
	if _, err := decodeCustomer(c.encode(nil)[:5]); err == nil {
		t.Error("truncated customer decoded")
	}
}

func TestKeyOrdering(t *testing.T) {
	// Order keys must sort by (w, d, o).
	a := oRow(1, 2, 3).key()
	b := oRow(1, 2, 4).key()
	c := oRow(1, 3, 1).key()
	d := oRow(2, 1, 1).key()
	if !(string(a) < string(b) && string(b) < string(c) && string(c) < string(d)) {
		t.Fatal("order keys do not sort correctly")
	}
	// Every table's key: its ids big-endian in primary-key order.
	for _, k := range []struct {
		r    row
		want string
	}{
		{wRow(1), "00000001"},
		{dRow(1, 2), "0000000102"},
		{cRow(1, 2, 3), "000000010200000003"},
		{oRow(1, 2, 3), "000000010200000003"},
		{row{t: tNewOrder, w: 1, d: 2, id: 3}, "000000010200000003"},
		{row{t: tOrderLine, w: 1, d: 2, id: 3, n: 4}, "00000001020000000304"},
		{iRow(5), "00000005"},
		{sRow(1, 5), "0000000100000005"},
	} {
		if got := hex.EncodeToString(k.r.key()); got != k.want {
			t.Errorf("%+v: key %s, want %s", k.r, got, k.want)
		}
	}
}

func TestRandPrimitives(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		if v := r.Int(5, 10); v < 5 || v > 10 {
			t.Fatalf("Int out of range: %d", v)
		}
		if v := r.NURand(255, 1, 100, 7); v < 1 || v > 100 {
			t.Fatalf("NURand out of range: %d", v)
		}
		if v := r.CustomerID(3000); v < 1 || v > 3000 {
			t.Fatalf("CustomerID out of range: %d", v)
		}
		if v := r.ItemID(100000); v < 1 || v > 100000 {
			t.Fatalf("ItemID out of range: %d", v)
		}
		if v := r.CustomerID(10); v < 1 || v > 10 {
			t.Fatalf("small CustomerID out of range: %d", v)
		}
	}
	if LastName(0) != "BARBARBAR" {
		t.Errorf("LastName(0) = %q", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" { // 3-7-1 → PRI CALLY OUGHT
		t.Errorf("LastName(371) = %q", LastName(371))
	}
	if s := r.AString(5, 5); len(s) != 5 {
		t.Errorf("AString length %d", len(s))
	}
	if s := r.NString(9, 9); len(s) != 9 {
		t.Errorf("NString length %d", len(s))
	}
	// NURand skew: customer ids should be non-uniform.
	counts := make(map[int]int)
	for i := 0; i < 30000; i++ {
		counts[r.CustomerID(3000)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3 {
		t.Error("NURand produced a suspiciously uniform distribution")
	}
}

func TestLoadPopulatesAllTables(t *testing.T) {
	db := newDB(t, TinyScale())
	tx1, err := db.Engine.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for w := uint32(1); w <= 2; w++ {
		wh := readRow(t, db, tx1, wRow(w), decodeWarehouse)
		if wh.ID != w {
			t.Fatalf("warehouse %d decoded id %d", w, wh.ID)
		}
		for d := uint8(1); d <= 2; d++ {
			dist := readRow(t, db, tx1, dRow(w, d), decodeDistrict)
			if dist.NextOID != 1 {
				t.Fatalf("district NextOID = %d", dist.NextOID)
			}
			for c := uint32(1); c <= 10; c++ {
				readRow(t, db, tx1, cRow(w, d, c), decodeCustomer)
			}
		}
		for i := uint32(1); i <= 50; i++ {
			readRow(t, db, tx1, sRow(w, i), decodeStock)
		}
	}
	for i := uint32(1); i <= 50; i++ {
		readRow(t, db, tx1, iRow(i), decodeItem)
	}
	if err := db.Engine.Commit(tx1); err != nil {
		t.Fatal(err)
	}
}

func TestPaymentUpdatesBalances(t *testing.T) {
	db := newDB(t, TinyScale())
	in := PaymentInput{WID: 1, DID: 1, CWID: 1, CDID: 1, CID: 3, Amount: 100}
	if err := db.PaymentCtx(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	tx1, _ := db.Engine.Begin()
	wh := readRow(t, db, tx1, wRow(1), decodeWarehouse)
	if wh.YTD != 100 {
		t.Errorf("warehouse YTD = %v, want 100", wh.YTD)
	}
	dist := readRow(t, db, tx1, dRow(1, 1), decodeDistrict)
	if dist.YTD != 100 {
		t.Errorf("district YTD = %v", dist.YTD)
	}
	cust := readRow(t, db, tx1, cRow(1, 1, 3), decodeCustomer)
	if cust.Balance != -110 {
		t.Errorf("customer balance = %v, want -110", cust.Balance)
	}
	if cust.PaymentCnt != 1 || cust.YTDPayment != 110 {
		t.Errorf("customer stats: %+v", cust)
	}
	// Exactly one history row exists and decodes to the payment.
	count := 0
	if err := db.Engine.HeapScan(tx1, db.History, func(_ page.RID, rec []byte) bool {
		h, err := decodeHistory(rec)
		if err != nil {
			t.Errorf("history decode: %v", err)
			return false
		}
		if h.Amount != 100 || h.CID != 3 {
			t.Errorf("history row: %+v", h)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("history rows = %d, want 1", count)
	}
	if err := db.Engine.Commit(tx1); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderCreatesRows(t *testing.T) {
	db := newDB(t, TinyScale())
	in := NewOrderInput{
		WID: 1, DID: 1, CID: 2,
		Lines: []NewOrderLine{
			{ItemID: 1, SupplyWID: 1, Quantity: 5},
			{ItemID: 2, SupplyWID: 1, Quantity: 3},
		},
	}
	if err := db.NewOrderCtx(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	tx1, _ := db.Engine.Begin()
	dist := readRow(t, db, tx1, dRow(1, 1), decodeDistrict)
	if dist.NextOID != 2 {
		t.Fatalf("NextOID = %d, want 2", dist.NextOID)
	}
	// The order and its lines are queryable.
	b, ok, err := db.Engine.IndexLookup(tx1, db.Orders, oRow(1, 1, 1).key())
	if err != nil || !ok {
		t.Fatalf("order row: %v %v", ok, err)
	}
	ord, err := decodeOrder(b)
	if err != nil || ord.OLCount != 2 || ord.CID != 2 {
		t.Fatalf("order: %+v, %v", ord, err)
	}
	for n := uint8(1); n <= 2; n++ {
		b, ok, err := db.Engine.IndexLookup(tx1, db.OrderLine, row{t: tOrderLine, w: 1, d: 1, id: 1, n: n}.key())
		if err != nil || !ok {
			t.Fatalf("order line %d: %v %v", n, ok, err)
		}
		ol, err := decodeOrderLine(b)
		if err != nil || ol.OID != 1 || ol.Number != n {
			t.Fatalf("order line: %+v, %v", ol, err)
		}
	}
	// Stock was decremented.
	st := readRow(t, db, tx1, sRow(1, 1), decodeStock)
	if st.OrderCnt != 1 || st.YTD != 5 {
		t.Fatalf("stock after order: %+v", st)
	}
	if err := db.Engine.Commit(tx1); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderRollbackLeavesNoTrace(t *testing.T) {
	db := newDB(t, TinyScale())
	in := NewOrderInput{
		WID: 1, DID: 1, CID: 1,
		Lines:    []NewOrderLine{{ItemID: 1, SupplyWID: 1, Quantity: 1}, {ItemID: 2, SupplyWID: 1, Quantity: 1}},
		Rollback: true,
	}
	err := db.NewOrderCtx(context.Background(), in)
	if !errors.Is(err, ErrUserAbort) {
		t.Fatalf("rollback order err = %v", err)
	}
	tx1, _ := db.Engine.Begin()
	dist := readRow(t, db, tx1, dRow(1, 1), decodeDistrict)
	if dist.NextOID != 1 {
		t.Fatalf("NextOID = %d after rollback, want 1", dist.NextOID)
	}
	if _, ok, _ := db.Engine.IndexLookup(tx1, db.Orders, oRow(1, 1, 1).key()); ok {
		t.Fatal("rolled-back order row visible")
	}
	st := readRow(t, db, tx1, sRow(1, 1), decodeStock)
	if st.OrderCnt != 0 {
		t.Fatalf("stock touched by rolled-back order: %+v", st)
	}
	if err := db.Engine.Commit(tx1); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsRespectScale(t *testing.T) {
	r := NewRand(3)
	scale := TinyScale()
	for i := 0; i < 500; i++ {
		p := GenPayment(r, scale, 1)
		if p.WID != 1 || p.DID < 1 || p.DID > uint8(scale.Districts) {
			t.Fatalf("payment input out of range: %+v", p)
		}
		if p.CID < 1 || p.CID > uint32(scale.Customers) {
			t.Fatalf("payment customer out of range: %+v", p)
		}
		if p.CWID < 1 || p.CWID > uint32(scale.Warehouses) {
			t.Fatalf("payment cwid out of range: %+v", p)
		}
		no := GenNewOrder(r, scale, 2)
		if len(no.Lines) < 5 || len(no.Lines) > 15 {
			t.Fatalf("new order lines: %d", len(no.Lines))
		}
		for _, l := range no.Lines {
			if l.ItemID < 1 || l.ItemID > uint32(scale.Items) {
				t.Fatalf("item id out of range: %+v", l)
			}
		}
	}
}

// TestConcurrentMixedWorkload runs Payments and New Orders from four
// clients and audits the database: nothing failed, every index verifies,
// TPC-C's consistency conditions hold and the tables grew by what was
// acknowledged.
func TestConcurrentMixedWorkload(t *testing.T) {
	db := newDB(t, Scale{Warehouses: 2, Districts: 2, Customers: 20, Items: 100, StockPerItem: true})
	base, err := db.Baseline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tally := NewTally(db.Scale)
	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan struct{})
	go func() { Drive(ctx, db.Executor, Mix{Payment: 50, NewOrder: 50}, 4, 100, tally); close(drained) }()
	awaitAcks(t.Fatalf, tally, 80, nil)
	cancel()
	<-drained
	if n := tally.Failed.Sum(); n != 0 {
		t.Fatalf("%d transactions failed: %v", n, tally.Errors)
	}
	if err := db.Audit(context.Background(), base, tally); err != nil {
		t.Fatal(err)
	}
}
