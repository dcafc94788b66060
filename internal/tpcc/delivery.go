package tpcc

import (
	"context"
	"errors"
	"strings"

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
// the warehouse as one managed transaction (runCtx) and answers how many
// it delivered.
func (db *DB) DeliveryCtx(ctx context.Context, in DeliveryInput) (int, error) {
	delivered, err := db.runCtx(ctx, newPlan().delivery(in, db.Scale.Districts))
	return deliveredOrNone(int(delivered), err)
}

// deliveredOrNone is a Delivery's answer: ErrNothingToDeliver for none.
func deliveredOrNone(delivered int, err error) (int, error) {
	if err == nil && delivered == 0 {
		return 0, ErrNothingToDeliver
	}
	return delivered, err
}

// delivery plans Delivery in p, as one step per district, each counting
// in the value in force the order it delivers: the district's oldest
// NEW_ORDER row (none when all are delivered), which it deletes. The row
// names the order, whose carrier it stamps; the order names the customer
// and lines, and it credits the customer with their sum. It reads what it
// writes X.
func (p *plan) delivery(in DeliveryInput, districts int) *plan {
	p.del = in
	for d := 1; d <= districts; d++ {
		p.add(step{n: uint8(d), apply: deliverOne},
			read{row: row{t: tNewOrder, w: in.WID, d: uint8(d)}, mode: lock.X, scan: true, first: true})
	}
	return p
}

// deliverOne delivers district s.n's oldest order.
func deliverOne(p *plan, s *step, got []found, delivered uint32, w *txWriter) (uint32, error) {
	wid, d := p.del.WID, s.n
	if got[0].value == nil {
		return delivered, nil
	}
	no, err := decodeNewOrderRow(got[0].value)
	if err != nil {
		return delivered, err
	}
	w.delete(row{t: tNewOrder, w: wid, d: d, id: no.OID})
	or := oRow(wid, d, no.OID)
	if got, err = w.fetch(read{row: or, mode: lock.X}); err != nil {
		return delivered, err
	}
	ord, err := decodeOrder(got[0].value)
	if err != nil {
		return delivered, err
	}
	ord.CarrierID = p.del.CarrierID
	w.update(or, ord.encode(w.buf(0)))
	cr := cRow(wid, d, ord.CID)
	var buf [16]read // an order has at most 15 lines
	reads := buf[:0]
	for l := uint8(1); l <= ord.OLCount; l++ {
		reads = append(reads, read{row: row{t: tOrderLine, w: wid, d: d, id: no.OID, n: l}, mode: lock.S})
	}
	if got, err = w.fetch(append(reads, read{row: cr, mode: lock.X})...); err != nil {
		return delivered, err
	}
	var total float64
	for _, f := range got[:ord.OLCount] {
		ol, err := decodeOrderLine(f.value)
		if err != nil {
			return delivered, err
		}
		total += ol.Amount
	}
	cust, err := decodeCustomer(got[ord.OLCount].value)
	if err != nil {
		return delivered, err
	}
	cust.Balance += total
	cust.DeliveryCt++
	w.update(cr, cust.encode(w.buf(len(cust.Data))))
	return delivered + 1, nil
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

// own gives res's strings memory of their own: rows are decoded as views
// of what their transaction read, which it reuses once it ends.
func (res *OrderStatusResult) own() {
	c := &res.Customer
	for _, s := range []*string{&c.First, &c.Middle, &c.Last, &c.Credit, &c.Data} {
		*s = strings.Clone(*s)
	}
	for i := range res.Lines {
		res.Lines[i].DistInfo = strings.Clone(res.Lines[i].DistInfo)
	}
}

// OrderStatusCtx reports a customer's balance and their most recent order
// with its lines, in one managed read-only transaction (no durability
// wait).
func (db *DB) OrderStatusCtx(ctx context.Context, in OrderStatusInput) (res OrderStatusResult, err error) {
	err = db.runView(ctx, func(w *txWriter) error {
		if err := in.run(w, &res); err != nil {
			return err
		}
		res.own() // before the transaction ends
		return nil
	})
	return res, err
}

// runView runs read-only plan run as one managed read-only transaction.
func (db *DB) runView(ctx context.Context, run func(w *txWriter) error) error {
	p := newPlan()
	err := db.Engine.RunViewCtx(ctx, retryPolicy, func(t *tx.Tx) error {
		p.w.begin(db, ctx, t)
		return run(&p.w)
	})
	p.release()
	return err
}

// run is Order-Status in two rounds, answered in *res: the customer and
// the district's orders, then the lines of the customer's latest order.
func (in OrderStatusInput) run(w *txWriter, res *OrderStatusResult) error {
	*res = OrderStatusResult{}
	got, err := w.fetch(read{row: cRow(in.WID, in.DID, in.CID), mode: lock.S},
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
	var buf [15]read // an order has at most 15 lines
	lines := buf[:0]
	for l := uint8(1); l <= res.Order.OLCount; l++ {
		lines = append(lines, read{row: row{t: tOrderLine, w: in.WID, d: in.DID, id: res.Order.ID, n: l}, mode: lock.S})
	}
	if got, err = w.fetch(lines...); err != nil {
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
	err = db.runView(ctx, func(w *txWriter) error { return in.run(w, &low) })
	return low, err
}

// run is Stock-Level in three rounds, answered in *low: the district's
// order counter, the lines of its last 20 orders, the stock rows of
// their distinct items.
func (in StockLevelInput) run(w *txWriter, low *int) error {
	*low = 0
	got, err := w.fetch(read{row: dRow(in.WID, in.DID), mode: lock.S})
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
	if got, err = w.fetch(read{row: row{t: tOrderLine, w: in.WID, d: in.DID, id: first}, mode: lock.S, scan: true}); err != nil {
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
	if got, err = w.fetch(stocks...); err != nil {
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
