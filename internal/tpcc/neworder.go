package tpcc

import (
	"context"

	"repro/internal/tx"
)

// NewOrderInput parameterizes one New Order transaction.
type NewOrderInput struct {
	WID   uint32
	DID   uint8
	CID   uint32
	Lines []NewOrderLine
	// Rollback triggers the spec's 1% intentional abort (unused item id).
	Rollback bool
}

// NewOrderLine is one requested order line.
type NewOrderLine struct {
	ItemID    uint32
	SupplyWID uint32
	Quantity  uint8
}

// GenNewOrder draws New Order parameters per the spec: 5–15 lines, NURand
// item ids, 1% remote supply warehouses, 1% rollbacks.
func GenNewOrder(r *Rand, scale Scale, homeW uint32) NewOrderInput {
	in := NewOrderInput{
		WID:      homeW,
		DID:      uint8(r.Int(1, scale.Districts)),
		CID:      uint32(r.CustomerID(scale.Customers)),
		Rollback: r.Rollback1Percent(),
	}
	n := r.Int(5, 15)
	for i := 0; i < n; i++ {
		l := NewOrderLine{
			ItemID:    uint32(r.ItemID(scale.Items)),
			SupplyWID: homeW,
			Quantity:  uint8(r.Int(1, 10)),
		}
		if scale.Warehouses > 1 && r.Int(1, 100) == 1 {
			for {
				w := uint32(r.Int(1, scale.Warehouses))
				if w != homeW {
					l.SupplyWID = w
					break
				}
			}
		}
		in.Lines = append(in.Lines, l)
	}
	return in
}

// NewOrder executes one TPC-C New Order transaction (§3.2: "enters an
// order and its line items into the system, as well as updating customer
// and stock information ... stresses B-Tree indexes (probes and
// insertions) and the lock manager"). It commits on success; the 1%
// intentional rollback returns ErrUserAbort after aborting.
func (db *DB) NewOrder(in NewOrderInput) error {
	return db.Engine.RunCtx(context.Background(), onceOnly, func(t *tx.Tx) error {
		return db.newOrder(context.Background(), t, in)
	}, nil)
}

// NewOrderCtx runs NewOrder under the engine's managed-transaction
// runner: deadlock victims and lock timeouts are aborted and retried
// with capped exponential backoff, every lock wait observes ctx, and
// ErrUserAbort (not retryable) passes through as-is.
func (db *DB) NewOrderCtx(ctx context.Context, in NewOrderInput) error {
	return db.Engine.RunCtx(ctx, retryPolicy, func(t *tx.Tx) error {
		return db.newOrder(ctx, t, in)
	}, nil)
}

// newOrder is the transaction body, run inside a managed transaction
// (begin/abort/commit and deadlock retry belong to the runner; returning
// ErrUserAbort makes the runner abort without retrying).
func (db *DB) newOrder(ctx context.Context, t *tx.Tx, in NewOrderInput) error {
	oid, err := db.newOrderHead(ctx, t, in)
	if err != nil {
		return err
	}
	for i := range in.Lines {
		if in.Rollback && i == len(in.Lines)-1 {
			// Unused item id: the spec's intentional rollback.
			return ErrUserAbort
		}
		if err := db.newOrderLine(ctx, t, in, oid, i); err != nil {
			return err
		}
	}
	return nil
}

// newOrderHead is New Order's home-district step: warehouse tax and
// customer discount (read-only), the order id allocated from the
// district's hot counter, and the ORDERS and NEW_ORDER rows.
func (db *DB) newOrderHead(ctx context.Context, t *tx.Tx, in NewOrderInput) (oid uint32, err error) {
	e := db.Engine
	if _, err := db.readWarehouse(ctx, t, in.WID); err != nil {
		return 0, err
	}
	if _, err := db.readCustomer(ctx, t, in.WID, in.DID, in.CID); err != nil {
		return 0, err
	}
	dist, err := db.readDistrict(ctx, t, in.WID, in.DID)
	if err != nil {
		return 0, err
	}
	oid = dist.NextOID
	dist.NextOID++
	if err := e.IndexUpdateCtx(ctx, t, db.District, dKey(in.WID, in.DID), dist.encode()); err != nil {
		return 0, err
	}
	ord, no := newOrderRows(in, oid)
	if err := e.IndexInsertCtx(ctx, t, db.Orders, oKey(in.WID, in.DID, oid), ord.encode()); err != nil {
		return 0, err
	}
	return oid, e.IndexInsertCtx(ctx, t, db.NewOrderTab, oKey(in.WID, in.DID, oid), no.encode())
}

// newOrderLine processes order line idx — item probe (ITEM contention),
// stock update (STOCK contention), ORDER_LINE insert — inside t.
func (db *DB) newOrderLine(ctx context.Context, t *tx.Tx, in NewOrderInput, oid uint32, idx int) error {
	e := db.Engine
	l := in.Lines[idx]
	item, ok, err := db.readItem(ctx, t, l.ItemID)
	if err != nil {
		return err
	}
	if !ok {
		return ErrUserAbort
	}
	st, err := db.readStock(ctx, t, l.SupplyWID, l.ItemID)
	if err != nil {
		return err
	}
	st.order(l, in.WID)
	if err := e.IndexUpdateCtx(ctx, t, db.Stock, sKey(l.SupplyWID, l.ItemID), st.encode()); err != nil {
		return err
	}
	ol := newOrderLineRow(in, oid, idx, &item, &st)
	return e.IndexInsertCtx(ctx, t, db.OrderLine, olKey(in.WID, in.DID, oid, ol.Number), ol.encode())
}
