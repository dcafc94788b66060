package tpcc

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
)

// ErrUserAbort marks New Order's intentional 1% rollback. It wraps
// core.ErrRollback, so a server that runs New Order as a program answers
// it with wire.StatusRolledBack, which Remote turns back into ErrUserAbort.
var ErrUserAbort = fmt.Errorf("tpcc: user-initiated rollback: %w", core.ErrRollback)

// retryPolicy is the managed-retry policy for the *Ctx transaction
// entrypoints: the engine aborts deadlock/timeout victims and re-runs
// the body with capped exponential backoff. TPC-C transactions are
// short (tens of µs of work), so the cap is kept tight — the default
// 50ms cap would oversleep hot-row victims by two orders of magnitude.
var retryPolicy = core.RetryPolicy{BaseBackoff: 500 * time.Microsecond, MaxBackoff: 16 * time.Millisecond}

// PaymentInput parameterizes one Payment transaction.
type PaymentInput struct {
	WID    uint32
	DID    uint8
	CWID   uint32 // customer's warehouse (== WID for local payments)
	CDID   uint8
	CID    uint32
	Amount float64
}

// GenPayment draws Payment parameters per the spec: 85% local customers,
// amount in [1, 5000].
func GenPayment(r *Rand, scale Scale, homeW uint32) PaymentInput {
	in := PaymentInput{
		WID:    homeW,
		DID:    uint8(r.Int(1, scale.Districts)),
		CWID:   homeW,
		Amount: r.Float(1, 5000),
	}
	if scale.Warehouses > 1 && r.Int(1, 100) > 85 {
		in.CWID = r.otherWarehouse(scale, homeW) // remote customer
	}
	in.CDID = uint8(r.Int(1, scale.Districts))
	in.CID = uint32(r.CustomerID(scale.Customers))
	return in
}

// PaymentCtx executes one TPC-C Payment transaction (§3.2: "updates the
// customer's balance and corresponding district and warehouse sales
// statistics ... One of the updates made by Payment is to a contended
// table, WAREHOUSE") as one managed transaction (runCtx).
func (db *DB) PaymentCtx(ctx context.Context, in PaymentInput) error {
	_, err := db.runCtx(ctx, newPlan().payment(in))
	return err
}

// payment plans Payment in p, in two steps, each writing back every row
// it reads. The home step adds the amount to the warehouse's YTD (the hot
// row) and the district's and appends the history row, which needs both
// names; the customer step pays on the (possibly remote) customer's
// warehouse.
func (p *plan) payment(in PaymentInput) *plan {
	p.pay = in
	p.add(step{apply: payHome}, read{row: wRow(in.WID), mode: lock.X}, read{row: dRow(in.WID, in.DID), mode: lock.X})
	p.add(step{apply: payCustomer}, read{row: cRow(in.CWID, in.CDID, in.CID), mode: lock.X})
	return p
}

func payHome(p *plan, s *step, got []found, _ uint32, w *txWriter) (uint32, error) {
	wh, werr := decodeWarehouse(got[0].value)
	dist, derr := decodeDistrict(got[1].value)
	if err := cmp.Or(werr, derr); err != nil {
		return 0, err
	}
	wh.YTD += p.pay.Amount
	dist.YTD += p.pay.Amount
	h := newHistory(p.pay, &wh, &dist, w.buf(0))
	w.update(s.rs[0].row, wh.encode(w.buf(0)))
	w.update(s.rs[1].row, dist.encode(w.buf(0)))
	w.insert(row{t: tHistory}, h.encode(w.buf(len(h.Data))))
	return 0, nil
}

func payCustomer(p *plan, s *step, got []found, _ uint32, w *txWriter) (uint32, error) {
	cust, err := decodeCustomer(got[0].value)
	if err != nil {
		return 0, err
	}
	cust.pay(p.pay, w.buf(len(cust.Data)))
	w.update(s.rs[0].row, cust.encode(w.buf(len(cust.Data))))
	return 0, nil
}
