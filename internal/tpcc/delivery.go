package tpcc

import (
	"context"
	"errors"

	"repro/internal/lock"
	"repro/internal/tx"
)

// The remaining three TPC-C transactions: not in the paper's benchmark
// (§3.2), they complete the mix and exercise range scans and read-only
// paths the two write-heavy transactions do not.

// ErrNothingToDeliver is returned when a district has no undelivered
// orders (the spec treats this as a skipped delivery, not a failure).
var ErrNothingToDeliver = errors.New("tpcc: no undelivered orders")

// DeliveryInput parameterizes one Delivery transaction.
type DeliveryInput struct {
	WID       uint32
	CarrierID uint8
}

// GenDelivery draws Delivery parameters per the spec.
func GenDelivery(r *Rand, scale Scale, homeW uint32) DeliveryInput {
	return DeliveryInput{WID: homeW, CarrierID: uint8(r.Int(1, 10))}
}

// DeliveryCtx processes the oldest undelivered order in every district of
// the warehouse — deletes its NEW_ORDER row, stamps the carrier on ORDERS,
// and credits the customer with the order's lines — as one managed
// transaction (runCtx).
func (db *DB) DeliveryCtx(ctx context.Context, in DeliveryInput) (int, error) {
	var delivered int
	err := db.Engine.RunCtx(ctx, retryPolicy, func(t *tx.Tx) (err error) {
		delivered, err = db.delivery(ctx, t, in)
		return err
	}, nil)
	return deliveredOrNone(delivered, err)
}

// deliveredOrNone is a Delivery's answer: ErrNothingToDeliver for none.
func deliveredOrNone(delivered int, err error) (int, error) {
	if err == nil && delivered == 0 {
		return 0, ErrNothingToDeliver
	}
	return delivered, err
}

// delivery is the transaction body, run inside a managed transaction.
// It writes back the order and customer rows it reads, so it reads them X.
func (db *DB) delivery(ctx context.Context, t *tx.Tx, in DeliveryInput) (delivered int, err error) {
	e := db.Engine
	for d := 1; d <= db.Scale.Districts; d++ {
		d := uint8(d)
		oid, ok, err := db.oldestNewOrder(ctx, t, in.WID, d)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue // district fully delivered
		}
		or := oRow(in.WID, d, oid)
		if _, err := e.IndexDeleteCtx(ctx, t, db.NewOrderTab, or.key()); err != nil {
			return 0, err
		}
		// Stamp the carrier on the order.
		ob, err := db.get(ctx, t, read{row: or, mode: lock.X})
		if err != nil {
			return 0, err
		}
		ord, err := decodeOrder(ob)
		if err != nil {
			return 0, err
		}
		ord.CarrierID = in.CarrierID
		if err := e.IndexUpdateCtx(ctx, t, db.Orders, or.key(), ord.encode()); err != nil {
			return 0, err
		}
		// Sum the order lines.
		var total float64
		for l := uint8(1); l <= ord.OLCount; l++ {
			lb, err := db.get(ctx, t, read{row: row{t: tOrderLine, w: in.WID, d: d, id: oid, n: l}, mode: lock.S})
			if err != nil {
				return 0, err
			}
			if lb == nil {
				continue // rolled-back line counts were conservative
			}
			ol, err := decodeOrderLine(lb)
			if err != nil {
				return 0, err
			}
			total += ol.Amount
		}
		// Credit the customer.
		cr := cRow(in.WID, d, ord.CID)
		cb, err := db.get(ctx, t, read{row: cr, mode: lock.X})
		if err != nil {
			return 0, err
		}
		cust, err := decodeCustomer(cb)
		if err != nil {
			return 0, err
		}
		cust.Balance += total
		cust.DeliveryCt++
		if err := e.IndexUpdateCtx(ctx, t, db.Customer, cr.key(), cust.encode()); err != nil {
			return 0, err
		}
		delivered++
	}
	return delivered, nil
}

// oldestNewOrder returns the smallest order id with a NEW_ORDER row in (w, d).
func (db *DB) oldestNewOrder(ctx context.Context, t *tx.Tx, w uint32, d uint8) (uint32, bool, error) {
	var oid uint32
	found := false
	r := row{t: tNewOrder, w: w, d: d}
	err := db.Engine.IndexScanCtx(ctx, t, db.NewOrderTab, r.key(), r.end(), func(k, v []byte) bool {
		no, err := decodeNewOrderRow(v)
		if err != nil {
			return false
		}
		oid = no.OID
		found = true
		return false // first key in range = oldest
	})
	return oid, found, err
}

// OrderStatusInput parameterizes one Order-Status transaction.
type OrderStatusInput struct {
	WID uint32
	DID uint8
	CID uint32
}

// GenOrderStatus draws Order-Status parameters.
func GenOrderStatus(r *Rand, scale Scale, homeW uint32) OrderStatusInput {
	return OrderStatusInput{WID: homeW, DID: uint8(r.Int(1, scale.Districts)), CID: uint32(r.CustomerID(scale.Customers))}
}

// OrderStatusResult is the read-only answer.
type OrderStatusResult struct {
	Customer Customer
	Order    Order
	Lines    []OrderLine
	HasOrder bool
}

// OrderStatusCtx reports a customer's balance and their most recent order
// with its lines, in one managed read-only transaction (no durability
// wait).
func (db *DB) OrderStatusCtx(ctx context.Context, in OrderStatusInput) (res OrderStatusResult, err error) {
	err = db.Engine.RunViewCtx(ctx, retryPolicy, func(t *tx.Tx) error { return in.run(db.fetcher(ctx, t), &res) })
	return res, err
}

// run is Order-Status in two rounds, answered in *res: the customer and
// the district's orders, then the lines of the customer's latest order.
func (in OrderStatusInput) run(fetch fetcher, res *OrderStatusResult) error {
	*res = OrderStatusResult{}
	got, err := fetch(read{row: cRow(in.WID, in.DID, in.CID), mode: lock.S},
		read{row: oRow(in.WID, in.DID, 0), mode: lock.S, scan: true})
	if err != nil {
		return err
	}
	if res.Customer, err = decodeCustomer(got[0].value); err != nil {
		return err
	}
	// Order ids ascend with time: the last match is the latest.
	for _, v := range got[1].scan {
		ord, err := decodeOrder(v)
		if err != nil {
			return err
		}
		if ord.CID == in.CID {
			res.Order, res.HasOrder = ord, true
		}
	}
	if !res.HasOrder {
		return nil
	}
	lines := make([]read, res.Order.OLCount)
	for i := range lines {
		lines[i] = read{row: row{t: tOrderLine, w: in.WID, d: in.DID, id: res.Order.ID, n: uint8(i + 1)}, mode: lock.S}
	}
	if got, err = fetch(lines...); err != nil {
		return err
	}
	for _, f := range got {
		if f.value == nil {
			continue
		}
		ol, err := decodeOrderLine(f.value)
		if err != nil {
			return err
		}
		res.Lines = append(res.Lines, ol)
	}
	return nil
}

// StockLevelInput parameterizes one Stock-Level transaction.
type StockLevelInput struct {
	WID       uint32
	DID       uint8
	Threshold int32
}

// GenStockLevel draws Stock-Level parameters (threshold 10-20 per spec).
func GenStockLevel(r *Rand, scale Scale, homeW uint32) StockLevelInput {
	return StockLevelInput{WID: homeW, DID: uint8(r.Int(1, scale.Districts)), Threshold: int32(r.Int(10, 20))}
}

// StockLevelCtx counts distinct items from the district's last 20 orders
// whose stock is below the threshold, in one managed read-only
// transaction: the heaviest scanner of the mix.
func (db *DB) StockLevelCtx(ctx context.Context, in StockLevelInput) (low int, err error) {
	err = db.Engine.RunViewCtx(ctx, retryPolicy, func(t *tx.Tx) error { return in.run(db.fetcher(ctx, t), &low) })
	return low, err
}

// run is Stock-Level in three rounds, answered in *low: the district's
// order counter, the lines of its last 20 orders, the stock rows of
// their distinct items.
func (in StockLevelInput) run(fetch fetcher, low *int) error {
	*low = 0
	got, err := fetch(read{row: dRow(in.WID, in.DID), mode: lock.S})
	if err != nil {
		return err
	}
	dist, err := decodeDistrict(got[0].value)
	if err != nil {
		return err
	}
	first := uint32(1)
	if dist.NextOID > 20 {
		first = dist.NextOID - 20
	}
	if got, err = fetch(read{row: row{t: tOrderLine, w: in.WID, d: in.DID, id: first}, mode: lock.S, scan: true}); err != nil {
		return err
	}
	var stocks []read
	seen := map[uint32]bool{}
	for _, v := range got[0].scan {
		ol, err := decodeOrderLine(v)
		if err != nil {
			return err
		}
		if !seen[ol.ItemID] {
			seen[ol.ItemID] = true
			stocks = append(stocks, read{row: sRow(in.WID, ol.ItemID), mode: lock.S})
		}
	}
	if got, err = fetch(stocks...); err != nil {
		return err
	}
	for _, f := range got {
		st, err := decodeStock(f.value)
		if err != nil {
			return err
		}
		if st.Quantity < in.Threshold {
			*low++
		}
	}
	return nil
}
