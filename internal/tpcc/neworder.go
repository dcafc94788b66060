package tpcc

import (
	"cmp"
	"context"

	"repro/internal/lock"
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
			l.SupplyWID = r.otherWarehouse(scale, homeW)
		}
		in.Lines = append(in.Lines, l)
	}
	return in
}

// NewOrderCtx executes one TPC-C New Order transaction (§3.2: "enters an
// order and its line items into the system, as well as updating customer
// and stock information ... stresses B-Tree indexes (probes and
// insertions) and the lock manager") as one managed transaction (runCtx);
// the 1% intentional rollback returns ErrUserAbort after aborting.
func (db *DB) NewOrderCtx(ctx context.Context, in NewOrderInput) error {
	_, err := db.runCtx(ctx, in.plan())
	return err
}

// plan is New Order as a head step and one step per line. The head reads
// the warehouse (tax) and the customer (discount) and, to write it back,
// the district, whose counter gives the order id; it inserts the ORDERS
// and NEW_ORDER rows. A line reads its item, and its stock row to write
// back, and inserts its ORDER_LINE row under the head's order id. A
// rollback input orders an unused item last, as the spec has it.
func (in NewOrderInput) plan() []step {
	dr := dRow(in.WID, in.DID)
	p := append(make([]step, 0, 1+len(in.Lines)), step{
		head: true,
		reads: []read{
			{row: wRow(in.WID), mode: lock.S},
			{row: cRow(in.WID, in.DID, in.CID), mode: lock.S},
			{row: dr, mode: lock.X},
		},
		apply: func(got []found, _ uint32, w *txWriter) (uint32, error) {
			dist, err := decodeDistrict(got[2].value)
			if err != nil {
				return 0, err
			}
			oid := dist.NextOID
			dist.NextOID++
			ord, no := newOrderRows(in, oid)
			w.update(dr, dist.encode())
			w.insert(oRow(in.WID, in.DID, oid), ord.encode())
			w.insert(row{t: tNewOrder, w: in.WID, d: in.DID, id: oid}, no.encode())
			return oid, nil
		},
	})
	for i, l := range in.Lines {
		if in.Rollback && i == len(in.Lines)-1 {
			l.ItemID = 0 // unused: item ids start at 1
		}
		sr := sRow(l.SupplyWID, l.ItemID)
		p = append(p, step{
			dependent: true,
			reads:     []read{{row: iRow(l.ItemID), mode: lock.S}, {row: sr, mode: lock.X}},
			apply: func(got []found, oid uint32, w *txWriter) (uint32, error) {
				item, ierr := decodeItem(got[0].value)
				st, serr := decodeStock(got[1].value)
				if err := cmp.Or(ierr, serr); err != nil {
					return oid, err
				}
				st.order(l, in.WID)
				ol := newOrderLineRow(in, oid, i, &item, &st)
				w.update(sr, st.encode())
				w.insert(row{t: tOrderLine, w: in.WID, d: in.DID, id: oid, n: ol.Number}, ol.encode())
				return oid, nil
			},
		})
	}
	return p
}
