//go:build !race

// Allocation counts are a property of the optimized build: the race
// detector's instrumentation moves objects to the heap.

package tpcc

import (
	"context"
	"testing"
)

// TestTxnAllocs guards the heap allocations of one Payment and one New
// Order (no rollback), averaged over a fixed seeded set of inputs on a
// warmed database, on both executors: embedded (PaymentCtx/NewOrderCtx)
// and PLP (DoraPayment/DoraNewOrder over partitioned forests). They took
// 50 and 201 embedded, 64 and 232 on PLP, while keys, rows, values, lock
// lists, plans and DORA's actions were garbage; with all of those in
// memory their owners reuse, 1 and 7 embedded and 1 and 3 on PLP: the
// tx.Tx header (one per sub-transaction on PLP) and New Order's share of
// B-tree splits.
func TestTxnAllocs(t *testing.T) {
	scale := Scale{Warehouses: 2, Districts: 10, Customers: 100, Items: 1000, StockPerItem: true}
	for _, c := range []struct {
		name          string
		plp           bool
		maxPay, maxNO float64
	}{
		{name: "Embedded", maxPay: 1, maxNO: 7},
		{name: "Dora", plp: true, maxPay: 1, maxNO: 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, payment, newOrder := newDB(t, scale), (*DB).PaymentCtx, (*DB).NewOrderCtx
			if c.plp {
				db, payment, newOrder = newPlpDB(t, scale, 2), (*DB).DoraPayment, (*DB).DoraNewOrder
			}
			pay, order := txnAllocs(t, scale, func(in PaymentInput) error { return payment(db, context.Background(), in) },
				func(in NewOrderInput) error { return newOrder(db, context.Background(), in) })
			t.Logf("%s: %.1f allocations per Payment, %.1f per New Order", c.name, pay, order)
			if pay > c.maxPay {
				t.Errorf("Payment allocates %.1f objects, want at most %.0f", pay, c.maxPay)
			}
			if order > c.maxNO {
				t.Errorf("New Order allocates %.1f objects, want at most %.0f", order, c.maxNO)
			}
		})
	}
}

// txnAllocs warms the database with 300 Payments and New Orders, then returns the
// average allocations of 200 more of each.
func txnAllocs(t *testing.T, scale Scale, payment func(PaymentInput) error, newOrder func(NewOrderInput) error) (pay, order float64) {
	r := NewRand(3)
	const warm, runs = 300, 200
	pays := make([]PaymentInput, warm+runs+1)
	orders := make([]NewOrderInput, len(pays))
	for i := range pays {
		home := uint32(i%scale.Warehouses + 1)
		pays[i] = GenPayment(r, scale, home)
		orders[i] = GenNewOrder(r, scale, home)
		orders[i].Rollback = false
	}
	for i := 0; i < warm; i++ {
		if err := payment(pays[i]); err != nil {
			t.Fatal(err)
		}
		if err := newOrder(orders[i]); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	pay = testing.AllocsPerRun(runs, func() {
		if err := payment(pays[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	next = warm
	order = testing.AllocsPerRun(runs, func() {
		if err := newOrder(orders[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	return pay, order
}
