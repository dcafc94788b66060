package tpcc

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestMixDrawsPerfInputs pins what Mix{Payment: 50, NewOrder: 50} draws
// to what the benchmark's TPC-C generator (perf/wl_tpcc.go, tpccGen.one)
// draws from the same seed: one r.Int(1, 100) per transaction, Payment on
// 1–50, then the transaction's inputs from the same source. The hashes of
// the first 10 000 inputs of seeds 1–3 were taken from that generator; a
// change to the draw order, to the mix walk or to a Gen* function changes
// them, and would change the benchmark's inputs once it runs on Drive.
func TestMixDrawsPerfInputs(t *testing.T) {
	scale := Scale{Warehouses: 4, Districts: 10, Customers: 3000, Items: 20000, StockPerItem: true}
	for seed, want := range map[int64]uint64{1: 0x7355f98dfed1d0ab, 2: 0xfcf7e9f3ebe63b0f, 3: 0x43f7fdced7d3be94} {
		h, n := fnv.New64a(), 0
		ctx, cancel := context.WithCancel(context.Background())
		record := func(typ Type, in any) {
			fmt.Fprintf(h, "%d %+v\n", typ, in)
			if n++; n == 10000 {
				cancel()
			}
		}
		ex := Executor{
			Payment:  func(_ context.Context, in PaymentInput) error { record(Payment, in); return nil },
			NewOrder: func(_ context.Context, in NewOrderInput) error { record(NewOrder, in); return nil },
		}
		Drive(ctx, func() Executor { return ex }, Mix{Payment: 50, NewOrder: 50}, 1, seed, NewTally(scale))
		if got := h.Sum64(); n != 10000 || got != want {
			t.Errorf("seed %d: %d inputs hash to %#x, want 10000 to %#x", seed, n, got, want)
		}
	}
}
