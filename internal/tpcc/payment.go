package tpcc

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/tx"
)

// ErrUserAbort marks New Order's intentional 1% rollback.
var ErrUserAbort = errors.New("tpcc: user-initiated rollback")

// retryPolicy is the managed-retry policy for the *Ctx transaction
// entrypoints: the engine aborts deadlock/timeout victims and re-runs
// the body with capped exponential backoff. TPC-C transactions are
// short (tens of µs of work), so the cap is kept tight — the default
// 50ms cap would oversleep hot-row victims by two orders of magnitude.
var retryPolicy = core.RetryPolicy{BaseBackoff: 500 * time.Microsecond, MaxBackoff: 16 * time.Millisecond}

// onceOnly runs a managed transaction exactly once — the plain
// entrypoints surface deadlock victims to the caller.
var onceOnly = core.RetryPolicy{MaxAttempts: 1}

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
		Amount: r.Float(1, 5000),
	}
	if scale.Warehouses > 1 && r.Int(1, 100) > 85 {
		// Remote customer.
		for {
			w := uint32(r.Int(1, scale.Warehouses))
			if w != homeW {
				in.CWID = w
				break
			}
		}
	} else {
		in.CWID = homeW
	}
	in.CDID = uint8(r.Int(1, scale.Districts))
	in.CID = uint32(r.CustomerID(scale.Customers))
	return in
}

// Payment executes one TPC-C Payment transaction (§3.2: "updates the
// customer's balance and corresponding district and warehouse sales
// statistics ... One of the updates made by Payment is to a contended
// table, WAREHOUSE"). It commits on success and aborts on error; a
// deadlock victim is surfaced, not retried — use PaymentCtx.
func (db *DB) Payment(in PaymentInput) error {
	return db.Engine.RunCtx(context.Background(), onceOnly, func(t *tx.Tx) error {
		return db.payment(context.Background(), t, in)
	}, nil)
}

// PaymentCtx runs Payment under the engine's managed-transaction runner:
// deadlock victims and lock timeouts are aborted and retried with capped
// exponential backoff, and every lock wait observes ctx.
func (db *DB) PaymentCtx(ctx context.Context, in PaymentInput) error {
	return db.Engine.RunCtx(ctx, retryPolicy, func(t *tx.Tx) error {
		return db.payment(ctx, t, in)
	}, nil)
}

// payment is the transaction body, run inside a managed transaction
// (begin/abort/commit and deadlock retry belong to the runner): the two
// halves the partitioned executor runs as separate actions, back to back.
func (db *DB) payment(ctx context.Context, t *tx.Tx, in PaymentInput) error {
	if err := db.paymentHome(ctx, t, in); err != nil {
		return err
	}
	return db.paymentCustomer(ctx, t, in)
}

// paymentHome is Payment's home-warehouse half: warehouse (the hot row)
// and district YTD plus the history append, which needs both names.
func (db *DB) paymentHome(ctx context.Context, t *tx.Tx, in PaymentInput) error {
	e := db.Engine
	wh, err := db.readWarehouse(ctx, t, in.WID)
	if err != nil {
		return err
	}
	wh.YTD += in.Amount
	if err := e.IndexUpdateCtx(ctx, t, db.Warehouse, wKey(in.WID), wh.encode()); err != nil {
		return err
	}
	dist, err := db.readDistrict(ctx, t, in.WID, in.DID)
	if err != nil {
		return err
	}
	dist.YTD += in.Amount
	if err := e.IndexUpdateCtx(ctx, t, db.District, dKey(in.WID, in.DID), dist.encode()); err != nil {
		return err
	}
	h := newHistory(in, &wh, &dist)
	_, err = e.HeapInsertCtx(ctx, t, db.History, h.encode())
	return err
}

// paymentCustomer is Payment's customer half: balance and payment stats
// on the (possibly remote) customer warehouse.
func (db *DB) paymentCustomer(ctx context.Context, t *tx.Tx, in PaymentInput) error {
	cust, err := db.readCustomer(ctx, t, in.CWID, in.CDID, in.CID)
	if err != nil {
		return err
	}
	cust.pay(in)
	return db.Engine.IndexUpdateCtx(ctx, t, db.Customer, cKey(in.CWID, in.CDID, in.CID), cust.encode())
}
