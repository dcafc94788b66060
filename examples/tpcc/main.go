// TPC-C: load the paper's benchmark schema and run a Payment / New Order
// mix (88% of the TPC-C transaction mix, per §3.2 of the paper),
// demonstrating the workloads of Figure 5 on the context-aware API: the
// run is bounded by a context deadline, each transaction runs under the
// engine's managed retry (no hand-rolled deadlock loops), and cancellation
// drains the workers mid-wait instead of at the next iteration boundary.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/tpcc"
	"repro/internal/wal"
)

func main() {
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 4096
	engine, err := core.Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	scale := tpcc.Scale{
		Warehouses: 2, Districts: 4, Customers: 50, Items: 200, StockPerItem: true,
	}
	fmt.Println("loading TPC-C data...")
	db, err := tpcc.Load(engine, scale, 7)
	if err != nil {
		log.Fatal(err)
	}

	const clients = 4
	const duration = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()

	var payments, orders, rollbacks atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := tpcc.NewRand(int64(c))
			home := uint32(c%scale.Warehouses + 1)
			for ctx.Err() == nil {
				// The §3.2 mix: Payment and New Order alternating, each a
				// managed transaction — deadlock victims retry inside the
				// engine, and the context deadline unblocks any lock wait.
				err := db.PaymentCtx(ctx, tpcc.GenPayment(r, scale, home))
				switch {
				case err == nil:
					payments.Add(1)
				case errors.Is(err, lock.ErrCanceled):
					return // deadline: drain
				default:
					log.Fatal("payment: ", err)
				}
				err = db.NewOrderCtx(ctx, tpcc.GenNewOrder(r, scale, home))
				switch {
				case err == nil:
					orders.Add(1)
				case errors.Is(err, tpcc.ErrUserAbort):
					rollbacks.Add(1) // the spec's 1% intentional aborts
				case errors.Is(err, lock.ErrCanceled):
					return // deadline: drain
				default:
					log.Fatal("new order: ", err)
				}
			}
		}(c)
	}
	wg.Wait()

	secs := duration.Seconds()
	fmt.Printf("payments:   %6d (%7.1f tps)\n", payments.Load(), float64(payments.Load())/secs)
	fmt.Printf("new orders: %6d (%7.1f tps)\n", orders.Load(), float64(orders.Load())/secs)
	fmt.Printf("rollbacks:  %6d (intentional)\n", rollbacks.Load())

	// Consistency audit: district order counters vs ORDERS rows.
	t, _ := engine.Begin()
	totalOrders := 0
	if err := engine.IndexScan(t, db.Orders, nil, nil, func(k, v []byte) bool {
		totalOrders++
		return true
	}); err != nil {
		log.Fatal(err)
	}
	if err := engine.Commit(t); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ORDERS rows: %d (== committed new orders: %v)\n",
		totalOrders, uint64(totalOrders) == orders.Load())
	st := engine.Stats()
	fmt.Printf("engine: %d lock acquires, %d waits, %d deadlocks, %d canceled waits, %d log inserts\n",
		st.Lock.Acquires, st.Lock.Waits, st.Lock.Deadlocks, st.Lock.Cancels, st.Log.Inserts)
}
