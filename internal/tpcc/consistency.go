package tpcc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/tx"
)

// ErrInconsistent reports a violated TPC-C consistency condition.
var ErrInconsistent = errors.New("tpcc: database inconsistent")

// CheckConsistency checks TPC-C's consistency conditions 1–4 (clause
// 3.3.2) over the whole database in one read transaction:
//
//  1. a warehouse's W_YTD is the sum of its districts' D_YTD, to a
//     relative 1e-9, since the two add the same amounts in other orders;
//  2. a district's D_NEXT_O_ID − 1 is its largest O_ID and, when it has
//     NEW-ORDER rows, their largest NO_O_ID; and, as New Order takes the
//     ids one by one from 1, its ORDERS rows number that many (no order
//     is missing);
//  3. a district's NEW-ORDER rows number max(NO_O_ID) − min(NO_O_ID) + 1;
//  4. a district's O_OL_CNT add up to its ORDER-LINE rows.
//
// It returns the first violation, wrapping ErrInconsistent.
func (db *DB) CheckConsistency(ctx context.Context) error {
	return db.Engine.RunViewCtx(ctx, retryPolicy, func(t *tx.Tx) error {
		_, err := db.checkConsistency(ctx, t)
		return err
	})
}

// districtTally is what the tables hold for one district.
type districtTally struct {
	ytd                  float64
	nextOID, maxOID      uint32
	minNO, maxNO         uint32
	newOrders, olCnt, ol int
	orders               uint32
}

// checkConsistency checks conditions 1–4 in t and returns the tally of
// every district, in district order.
func (db *DB) checkConsistency(ctx context.Context, t *tx.Tx) ([]districtTally, error) {
	whYTD := make([]float64, db.Scale.Warehouses+1)
	ds := make([]districtTally, db.Scale.Warehouses*db.Scale.Districts)
	at := func(w uint32, d uint8) (*districtTally, error) {
		if w < 1 || int(w) > db.Scale.Warehouses || d < 1 || int(d) > db.Scale.Districts {
			return nil, fmt.Errorf("%w: a row names district %d/%d", ErrInconsistent, w, d)
		}
		return &ds[db.Scale.district(w, d)], nil
	}
	tally := [...]struct {
		t   table
		add func(v []byte) error
	}{
		{tWarehouse, func(v []byte) error {
			wh, err := decodeWarehouse(v)
			if err == nil && (wh.ID < 1 || int(wh.ID) > db.Scale.Warehouses) {
				err = fmt.Errorf("%w: warehouse %d", ErrInconsistent, wh.ID)
			}
			if err == nil {
				whYTD[wh.ID] = wh.YTD
			}
			return err
		}},
		{tDistrict, func(v []byte) error {
			dist, err := decodeDistrict(v)
			s, serr := at(dist.WID, dist.ID)
			if err = cmp.Or(err, serr); err == nil {
				s.ytd, s.nextOID = dist.YTD, dist.NextOID
			}
			return err
		}},
		{tOrders, func(v []byte) error {
			o, err := decodeOrder(v)
			s, serr := at(o.WID, o.DID)
			if err = cmp.Or(err, serr); err == nil {
				s.maxOID = max(s.maxOID, o.ID)
				s.orders++
				s.olCnt += int(o.OLCount)
			}
			return err
		}},
		{tNewOrder, func(v []byte) error {
			no, err := decodeNewOrderRow(v)
			s, serr := at(no.WID, no.DID)
			if err = cmp.Or(err, serr); err == nil {
				if s.newOrders == 0 || no.OID < s.minNO {
					s.minNO = no.OID
				}
				s.maxNO = max(s.maxNO, no.OID)
				s.newOrders++
			}
			return err
		}},
		{tOrderLine, func(v []byte) error {
			ol, err := decodeOrderLine(v)
			s, serr := at(ol.WID, ol.DID)
			if err = cmp.Or(err, serr); err == nil {
				s.ol++
			}
			return err
		}},
	}
	for _, tl := range tally {
		var addErr error
		err := db.Engine.IndexScanCtx(ctx, t, db.index(tl.t), nil, nil, func(_, v []byte) bool {
			addErr = tl.add(v)
			return addErr == nil
		})
		if err = cmp.Or(err, addErr); err != nil {
			return nil, err
		}
	}
	for w := uint32(1); int(w) <= db.Scale.Warehouses; w++ {
		var sum float64
		for d := uint8(1); int(d) <= db.Scale.Districts; d++ {
			s, _ := at(w, d)
			sum += s.ytd
			switch {
			case s.nextOID-1 != s.maxOID || s.orders != s.maxOID || s.newOrders > 0 && s.nextOID-1 != s.maxNO:
				return nil, fmt.Errorf("%w: condition 2: district %d/%d has D_NEXT_O_ID %d, %d ORDERS rows up to O_ID %d, max NO_O_ID %d (%d rows)",
					ErrInconsistent, w, d, s.nextOID, s.orders, s.maxOID, s.maxNO, s.newOrders)
			case s.newOrders > 0 && s.newOrders != int(s.maxNO-s.minNO)+1:
				return nil, fmt.Errorf("%w: condition 3: district %d/%d has %d NEW-ORDER rows from %d to %d",
					ErrInconsistent, w, d, s.newOrders, s.minNO, s.maxNO)
			case s.olCnt != s.ol:
				return nil, fmt.Errorf("%w: condition 4: district %d/%d's orders count %d lines, ORDER-LINE has %d",
					ErrInconsistent, w, d, s.olCnt, s.ol)
			}
		}
		if math.Abs(whYTD[w]-sum) > 1e-9*math.Max(math.Abs(whYTD[w]), math.Abs(sum)) {
			return nil, fmt.Errorf("%w: condition 1: warehouse %d has W_YTD %v, its districts' D_YTD add to %v", ErrInconsistent, w, whYTD[w], sum)
		}
	}
	return ds, nil
}
