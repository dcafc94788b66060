package tpcc

import (
	"context"
	"sync"
	"testing"
)

// TestHotRowNoUpgradeDeadlock runs Payments and New Orders from four
// goroutines against one warehouse with one district, so every
// transaction writes the same warehouse or district row. A plan reads a
// row it writes back under X from the start; reading it under S and
// upgrading at the write made two such transactions deadlock on each
// other (about 200 deadlocks per 8 000 Payments and 2 350 per 8 000 New
// Orders, some of them past the retry budget).
func TestHotRowNoUpgradeDeadlock(t *testing.T) {
	scale := Scale{Warehouses: 1, Districts: 1, Customers: 10, Items: 50, StockPerItem: true}
	db := newDB(t, scale)
	before := db.Engine.Locks().Stats().Deadlocks
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			r := NewRand(int64(600 + w))
			for i := 0; i < 300; i++ {
				if err := db.PaymentCtx(ctx, GenPayment(r, scale, 1)); err != nil {
					t.Errorf("payment: %v", err)
					return
				}
				in := GenNewOrder(r, scale, 1)
				in.Rollback = false
				if err := db.NewOrderCtx(ctx, in); err != nil {
					t.Errorf("new order: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d := db.Engine.Locks().Stats().Deadlocks - before; d != 0 {
		t.Errorf("%d deadlocks, want 0", d)
	}
}
