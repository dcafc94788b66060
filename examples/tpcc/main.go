// TPC-C: load the paper's benchmark schema and run a Payment / New Order
// mix (88% of the TPC-C transaction mix, per §3.2 of the paper),
// demonstrating the workloads of Figure 5 on the context-aware API: the
// run is bounded by a context deadline, each transaction runs under the
// engine's managed retry (no hand-rolled deadlock loops), and the deadline
// drains the clients mid-wait instead of at the next iteration boundary.
// The run ends with an audit of the database against what the clients
// were told, and exits 1 if it fails or a transaction did.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
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
	base, err := db.Baseline(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// Four clients, each homed on a warehouse, draw Payment and New Order
	// half and half until the deadline. A transaction the deadline cuts
	// off gets no answer; it may still commit.
	const duration = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	tally := tpcc.NewTally(scale)
	tpcc.Drive(ctx, db.Executor, tpcc.Mix{tpcc.Payment: 50, tpcc.NewOrder: 50}, 4, 0, tally)

	secs := duration.Seconds()
	pay, no := tally.Acked[tpcc.Payment].Load(), tally.Acked[tpcc.NewOrder].Load()
	fmt.Printf("payments:   %6d (%7.1f tps)\nnew orders: %6d (%7.1f tps)\n", pay, float64(pay)/secs, no, float64(no)/secs)
	fmt.Printf("rollbacks:  %6d (intentional); %d failed, %d cut off by the deadline\n",
		tally.Aborted[tpcc.NewOrder].Load(), tally.Failed.Sum(), tally.Cut.Sum())
	st := engine.Stats()
	fmt.Printf("engine: %d lock acquires, %d waits, %d deadlocks, %d canceled waits, %d log inserts\n",
		st.Lock.Acquires, st.Lock.Waits, st.Lock.Deadlocks, st.Lock.Cancels, st.Log.Inserts)

	// Audit: every index verifies, TPC-C's consistency conditions hold,
	// and ORDERS, NEW-ORDER, ORDER-LINE and HISTORY grew by at least what
	// was acknowledged and at most that plus what got no answer.
	err = db.Audit(context.Background(), base, tally)
	if n := tally.Failed.Sum(); err == nil && n > 0 {
		err = fmt.Errorf("%d transactions failed: %v", n, tally.Errors)
	}
	if err != nil {
		fmt.Println("audit: FAILED:", err)
		engine.Close()
		os.Exit(1)
	}
	fmt.Println("audit: ok")
}
