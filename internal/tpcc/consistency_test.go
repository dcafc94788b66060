package tpcc

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestCheckConsistencyCatchesBrokenRows breaks one row of a consistent
// database per condition and wants the checker to name that condition.
func TestCheckConsistencyCatchesBrokenRows(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name, condition string
		brk             func(t *testing.T, w *txWriter)
	}{
		{"condition 1", "condition 1", func(t *testing.T, w *txWriter) {
			wh := readRow(t, w.db, w.t, wRow(1), decodeWarehouse)
			wh.YTD++
			w.update(wRow(1), wh.encode())
		}},
		{"condition 2", "condition 2", func(t *testing.T, w *txWriter) {
			dist := readRow(t, w.db, w.t, dRow(1, 1), decodeDistrict)
			dist.NextOID++
			w.update(dRow(1, 1), dist.encode())
		}},
		{"missing order", "condition 2", func(t *testing.T, w *txWriter) { w.delete(oRow(1, 1, 2)) }},
		{"condition 3", "condition 3", func(t *testing.T, w *txWriter) { w.delete(row{t: tNewOrder, w: 1, d: 1, id: 3}) }},
		{"condition 4", "condition 4", func(t *testing.T, w *txWriter) { w.delete(row{t: tOrderLine, w: 1, d: 2, id: 1, n: 1}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := newDB(t, TinyScale())
			for i := uint32(1); i <= 4; i++ {
				placeOrder(t, db, 1, 1, i, 1, 2)
				placeOrder(t, db, 1, 2, i, 3)
			}
			if err := db.PaymentCtx(ctx, PaymentInput{WID: 1, DID: 2, CWID: 2, CDID: 1, CID: 3, Amount: 12.5}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.DeliveryCtx(ctx, DeliveryInput{WID: 1, CarrierID: 4}); err != nil {
				t.Fatal(err)
			}
			if err := db.CheckConsistency(ctx); err != nil {
				t.Fatalf("before the break: %v", err)
			}
			if err := db.loadBatch(func(w *txWriter) { c.brk(t, w) }); err != nil {
				t.Fatal(err)
			}
			err := db.CheckConsistency(ctx)
			if !errors.Is(err, ErrInconsistent) || !strings.Contains(err.Error(), c.condition+":") {
				t.Fatalf("after the break: %v, want %s violated", err, c.condition)
			}
		})
	}
}
