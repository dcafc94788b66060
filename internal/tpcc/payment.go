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
	_, err := db.runCtx(ctx, in.plan())
	return err
}

// plan is Payment in two steps, each writing back every row it reads.
// The home step adds the amount to the warehouse's YTD (the hot row) and
// the district's and appends the history row, which needs both names;
// the customer step pays on the (possibly remote) customer's warehouse.
func (in PaymentInput) plan() []step {
	wr, dr, cr := wRow(in.WID), dRow(in.WID, in.DID), cRow(in.CWID, in.CDID, in.CID)
	return []step{{
		reads: []read{{row: wr, mode: lock.X}, {row: dr, mode: lock.X}},
		apply: func(got []found, _ uint32, w *txWriter) (uint32, error) {
			wh, werr := decodeWarehouse(got[0].value)
			dist, derr := decodeDistrict(got[1].value)
			if err := cmp.Or(werr, derr); err != nil {
				return 0, err
			}
			wh.YTD += in.Amount
			dist.YTD += in.Amount
			h := newHistory(in, &wh, &dist)
			w.update(wr, wh.encode())
			w.update(dr, dist.encode())
			w.insert(row{t: tHistory}, h.encode())
			return 0, nil
		},
	}, {
		reads: []read{{row: cr, mode: lock.X}},
		apply: func(got []found, _ uint32, w *txWriter) (uint32, error) {
			cust, err := decodeCustomer(got[0].value)
			if err != nil {
				return 0, err
			}
			cust.pay(in)
			w.update(cr, cust.encode())
			return 0, nil
		},
	}}
}
