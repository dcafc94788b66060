//go:build !race

// Allocation counts are a property of the optimized build: the race
// detector's instrumentation moves objects to the heap.

package tpcc

import (
	"context"
	"testing"
)

// TestTxnAllocs guards the heap allocations of one embedded Payment and
// one New Order (no rollback), averaged over a fixed seeded set of inputs
// on a warmed database. The bounds are the counts before the transactions
// became plans: 60 per Payment and 257 per New Order (9.7 lines on
// average). As plans they take 50 and 201: every row encoding now
// allocates once and a key once, which pays for the plan's closures.
func TestTxnAllocs(t *testing.T) {
	scale := Scale{Warehouses: 2, Districts: 10, Customers: 100, Items: 1000, StockPerItem: true}
	db := newDB(t, scale)
	ctx := context.Background()
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
		if err := db.PaymentCtx(ctx, pays[i]); err != nil {
			t.Fatal(err)
		}
		if err := db.NewOrderCtx(ctx, orders[i]); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	pay := testing.AllocsPerRun(runs, func() {
		if err := db.PaymentCtx(ctx, pays[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	next = warm
	newOrder := testing.AllocsPerRun(runs, func() {
		if err := db.NewOrderCtx(ctx, orders[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if pay > 60 {
		t.Errorf("Payment allocates %.1f objects, want at most 60", pay)
	}
	if newOrder > 257 {
		t.Errorf("New Order allocates %.1f objects, want at most 257", newOrder)
	}
}
