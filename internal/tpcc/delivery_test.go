package tpcc

import (
	"context"
	"errors"
	"testing"
)

// placeOrder is a test helper that runs a successful New Order.
func placeOrder(t *testing.T, db *DB, w uint32, d uint8, c uint32, items ...uint32) {
	t.Helper()
	var lines []NewOrderLine
	for _, i := range items {
		lines = append(lines, NewOrderLine{ItemID: i, SupplyWID: w, Quantity: 5})
	}
	if err := db.NewOrderCtx(context.Background(), NewOrderInput{WID: w, DID: d, CID: c, Lines: lines}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryProcessesOldestOrder(t *testing.T) {
	db := newDB(t, TinyScale())
	// Two orders in district 1, one in district 2.
	placeOrder(t, db, 1, 1, 2, 1, 2)
	placeOrder(t, db, 1, 1, 3, 3)
	placeOrder(t, db, 1, 2, 4, 4)

	delivered, err := db.DeliveryCtx(context.Background(), DeliveryInput{WID: 1, CarrierID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d orders, want 2 (one per district with orders)", delivered)
	}
	// District 1's OLDEST order (oid 1, customer 2) was delivered.
	tx1, _ := db.Engine.Begin()
	defer db.Engine.Commit(tx1)
	if _, ok, _ := db.Engine.IndexLookupCtx(context.Background(), tx1, db.NewOrderTab, oRow(1, 1, 1).key()); ok {
		t.Fatal("delivered NEW_ORDER row still present")
	}
	if _, ok, _ := db.Engine.IndexLookupCtx(context.Background(), tx1, db.NewOrderTab, oRow(1, 1, 2).key()); !ok {
		t.Fatal("newer order's NEW_ORDER row missing")
	}
	ob, ok, err := db.Engine.IndexLookupCtx(context.Background(), tx1, db.Orders, oRow(1, 1, 1).key())
	if err != nil || !ok {
		t.Fatal(err)
	}
	ord, _ := decodeOrder(ob)
	if ord.CarrierID != 7 {
		t.Fatalf("carrier = %d, want 7", ord.CarrierID)
	}
	// Customer 2's balance was credited with the order total.
	cust := readRow(t, db, tx1, cRow(1, 1, 2), decodeCustomer)
	if cust.Balance <= -10 || cust.DeliveryCt != 1 {
		t.Fatalf("customer not credited: %+v", cust)
	}
}

func TestDeliveryNothingToDeliver(t *testing.T) {
	db := newDB(t, TinyScale())
	if _, err := db.DeliveryCtx(context.Background(), DeliveryInput{WID: 1, CarrierID: 1}); !errors.Is(err, ErrNothingToDeliver) {
		t.Fatalf("empty delivery = %v", err)
	}
}

func TestOrderStatus(t *testing.T) {
	db := newDB(t, TinyScale())
	placeOrder(t, db, 1, 1, 5, 1, 2, 3)
	placeOrder(t, db, 1, 1, 5, 4) // more recent order for the same customer
	placeOrder(t, db, 1, 1, 6, 5) // different customer

	res, err := db.OrderStatusCtx(context.Background(), OrderStatusInput{WID: 1, DID: 1, CID: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasOrder {
		t.Fatal("no order found for customer 5")
	}
	if res.Order.ID != 2 || res.Order.CID != 5 {
		t.Fatalf("most recent order = %+v, want oid 2", res.Order)
	}
	if len(res.Lines) != 1 || res.Lines[0].ItemID != 4 {
		t.Fatalf("lines = %+v", res.Lines)
	}
	if res.Customer.ID != 5 {
		t.Fatalf("customer = %+v", res.Customer)
	}
	// Customer with no orders.
	res2, err := db.OrderStatusCtx(context.Background(), OrderStatusInput{WID: 1, DID: 2, CID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.HasOrder {
		t.Fatal("phantom order for orderless customer")
	}
}

func TestStockLevel(t *testing.T) {
	db := newDB(t, TinyScale())
	placeOrder(t, db, 1, 1, 1, 1, 2, 3)
	// Threshold above every stock level: all three items count.
	low, err := db.StockLevelCtx(context.Background(), StockLevelInput{WID: 1, DID: 1, Threshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if low != 3 {
		t.Fatalf("low-stock items = %d, want 3", low)
	}
	// Threshold below every stock level: none count.
	low, err = db.StockLevelCtx(context.Background(), StockLevelInput{WID: 1, DID: 1, Threshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if low != 0 {
		t.Fatalf("low-stock items = %d, want 0", low)
	}
	// Distinctness: ordering the same item twice counts once.
	placeOrder(t, db, 1, 2, 1, 7)
	placeOrder(t, db, 1, 2, 2, 7)
	low, err = db.StockLevelCtx(context.Background(), StockLevelInput{WID: 1, DID: 2, Threshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if low != 1 {
		t.Fatalf("distinct low-stock items = %d, want 1", low)
	}
}

func TestGenExtendedInputs(t *testing.T) {
	r := NewRand(5)
	scale := TinyScale()
	for i := 0; i < 200; i++ {
		d := GenDelivery(r, scale, 2)
		if d.WID != 2 || d.CarrierID < 1 || d.CarrierID > 10 {
			t.Fatalf("delivery input %+v", d)
		}
		os := GenOrderStatus(r, scale, 1)
		if os.DID < 1 || os.DID > uint8(scale.Districts) || os.CID < 1 || os.CID > uint32(scale.Customers) {
			t.Fatalf("order-status input %+v", os)
		}
		sl := GenStockLevel(r, scale, 1)
		if sl.Threshold < 10 || sl.Threshold > 20 {
			t.Fatalf("stock-level input %+v", sl)
		}
	}
}

func TestFullMixConsistency(t *testing.T) {
	// Run the complete five-transaction mix and audit invariants.
	db := newDB(t, Scale{Warehouses: 1, Districts: 2, Customers: 10, Items: 50, StockPerItem: true})
	r := NewRand(11)
	newOrders := 0
	for i := 0; i < 60; i++ {
		switch i % 5 {
		case 0, 1:
			if err := db.PaymentCtx(context.Background(), GenPayment(r, db.Scale, 1)); err != nil {
				t.Fatal(err)
			}
		case 2, 3:
			err := db.NewOrderCtx(context.Background(), GenNewOrder(r, db.Scale, 1))
			if err == nil {
				newOrders++
			} else if !errors.Is(err, ErrUserAbort) {
				t.Fatal(err)
			}
		case 4:
			if _, err := db.DeliveryCtx(context.Background(), GenDelivery(r, db.Scale, 1)); err != nil && !errors.Is(err, ErrNothingToDeliver) {
				t.Fatal(err)
			}
			if _, err := db.OrderStatusCtx(context.Background(), GenOrderStatus(r, db.Scale, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.StockLevelCtx(context.Background(), GenStockLevel(r, db.Scale, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The district order counters add up to the committed New Orders.
	tx1, _ := db.Engine.Begin()
	defer db.Engine.Commit(tx1)
	sumNext := 0
	for d := 1; d <= db.Scale.Districts; d++ {
		dist := readRow(t, db, tx1, dRow(1, uint8(d)), decodeDistrict)
		sumNext += int(dist.NextOID) - 1
	}
	if sumNext != newOrders {
		t.Fatalf("sum of district order counters %d != %d", sumNext, newOrders)
	}
}

// TestMixNeverEscalates: under the engine's escalation threshold no TPC-C
// transaction locks enough rows of one store to try escalation, so none
// changes lock granularity. The footprints are largest with a full
// warehouse: Delivery reads up to 10 orders' lines, Stock-Level the
// stock rows of the last 20 orders' lines, 5-15 lines each.
func TestMixNeverEscalates(t *testing.T) {
	db := newDB(t, Scale{Warehouses: 1, Districts: 10, Customers: 30, Items: 1000, StockPerItem: true})
	ctx := context.Background()
	base := db.Engine.Stats().Lock // Load's batches escalate; the mix must not
	r := NewRand(3)
	for d := 1; d <= db.Scale.Districts; d++ {
		for placed := 0; placed < 30; {
			in := GenNewOrder(r, db.Scale, 1)
			in.DID = uint8(d)
			switch err := db.NewOrderCtx(ctx, in); {
			case err == nil:
				placed++
			case !errors.Is(err, ErrUserAbort):
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		if err := db.PaymentCtx(ctx, GenPayment(r, db.Scale, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.OrderStatusCtx(ctx, GenOrderStatus(r, db.Scale, 1)); err != nil {
			t.Fatal(err)
		}
		in := GenStockLevel(r, db.Scale, 1)
		in.DID = uint8(i%db.Scale.Districts + 1)
		if _, err := db.StockLevelCtx(ctx, in); err != nil {
			t.Fatal(err)
		}
		if _, err := db.DeliveryCtx(ctx, GenDelivery(r, db.Scale, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Engine.Stats().Lock
	if n, refused := st.Escalations-base.Escalations, st.EscalationsRefused-base.EscalationsRefused; n != 0 || refused != 0 {
		t.Errorf("the mix tried %d escalations (%d refused), want none", n+refused, refused)
	}
}
