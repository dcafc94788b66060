package tpcc

import (
	"context"
	"errors"

	"repro/internal/dora"
	"repro/internal/lock"
	"repro/internal/tx"
)

// Data-oriented decompositions of the five TPC-C transactions. The
// keyspace is partitioned by warehouse (Executor.Route), and each
// transaction becomes one action per partition it touches. Partition-
// local lock keys form a small hierarchy anchored on the warehouse:
// fine-grained actions take an intent mode on the warehouse anchor plus
// absolute modes on the rows they touch; coarse transactions (Delivery,
// Stock-Level) take an absolute mode on the anchor alone. The ITEM
// table is read-only after load and needs no lock at all.
//
// Cross-partition writes stay logically consistent without cross-
// partition lock names: a remote New Order action inserts ORDER_LINE
// rows keyed by the home district, but the same transaction's home
// action holds that district's X lock until the rendezvous releases
// both actions together, so no reader can observe a torn order.
// Physical safety is the B-tree latches', as everywhere else.
//
// Commit visibility across partitions follows the engine's early-lock-
// release precedent (StagePipeline): each partition commits its sub-
// transaction independently after the unanimous decision, so a reader
// on one partition can see a decided transaction's writes a moment
// before a sibling partition's commit record lands. A crash inside
// that window rolls the laggard back — the same contract CommitAsync
// already documents.

// ErrDoraDisabled is returned by the Dora* entrypoints when the engine
// was opened without Config.DORA.
var ErrDoraDisabled = errors.New("tpcc: engine has no DORA executor")

// Partition-local lock key encoding: kind in the top byte, warehouse /
// district / row ids packed below (districts < 2^8, customers < 2^24,
// items and warehouses < 2^32).
const (
	dkWarehouse = uint64(iota+1) << 56 // per-warehouse hierarchy anchor
	dkWRow                             // the warehouse row itself
	dkDistrict
	dkCustomer
	dkStock
)

func kWh(w uint32) uint64            { return dkWarehouse | uint64(w) }
func kWRow(w uint32) uint64          { return dkWRow | uint64(w) }
func kDist(w uint32, d uint8) uint64 { return dkDistrict | uint64(w)<<8 | uint64(d) }
func kCust(w uint32, d uint8, c uint32) uint64 {
	return dkCustomer | uint64(w)<<32 | uint64(d)<<24 | uint64(c)
}
func kStock(w, i uint32) uint64 { return dkStock | uint64(w)<<32 | uint64(i) }

// lockList builds a deduplicated lock set (same key twice folds modes
// via Supremum, like the lock manager's conversion rule).
type lockList []dora.LockReq

func (l *lockList) add(key uint64, m lock.Mode) {
	for i := range *l {
		if (*l)[i].Key == key {
			(*l)[i].Mode = lock.Supremum((*l)[i].Mode, m)
			return
		}
	}
	*l = append(*l, dora.LockReq{Key: key, Mode: m})
}

// DoraPayment runs one Payment through the partition executor: a single
// home-partition action for local customers; for remote customers, the
// home (warehouse + district + history) and customer updates run as
// independent actions on their partitions and rendezvous at commit.
func (db *DB) DoraPayment(ctx context.Context, in PaymentInput) error {
	x := db.Engine.Dora()
	if x == nil {
		return ErrDoraDisabled
	}
	t := x.NewTxn(ctx)
	var home lockList
	home.add(kWh(in.WID), lock.IX)
	home.add(kWRow(in.WID), lock.X)
	home.add(kDist(in.WID, in.DID), lock.X)
	homeP := x.Route(in.WID)
	custP := x.Route(in.CWID)
	// With a static router, any customer warehouse that routes home can be
	// folded into the home action. Under PLP the router can change between
	// planning and Submit (a migration), so actions are merged only when
	// they name the same warehouse — every action's lock set must live in
	// the table of the partition that owns its route key at Submit time.
	merged := in.CWID == in.WID || (db.Engine.PlpMap() == nil && custP == homeP)
	if merged {
		// One partition owns both sides: a single action, no rendezvous.
		home.add(kWh(in.CWID), lock.IX)
		home.add(kCust(in.CWID, in.CDID, in.CID), lock.X)
		t.Add(dora.ActionSpec{
			Partition: homeP,
			RouteKey:  in.WID,
			Locks:     home,
			Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
				if err := db.paymentHome(ctx, sub, in); err != nil {
					return err
				}
				return db.paymentCustomer(ctx, sub, in)
			},
		})
	} else {
		t.Add(dora.ActionSpec{
			Partition: homeP,
			RouteKey:  in.WID,
			Locks:     home,
			Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
				return db.paymentHome(ctx, sub, in)
			},
		})
		var cust lockList
		cust.add(kWh(in.CWID), lock.IX)
		cust.add(kCust(in.CWID, in.CDID, in.CID), lock.X)
		t.Add(dora.ActionSpec{
			Partition: custP,
			RouteKey:  in.CWID,
			Locks:     cust,
			Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
				return db.paymentCustomer(ctx, sub, in)
			},
		})
	}
	return x.Submit(t)
}

// DoraNewOrder runs one New Order through the partition executor. The
// home action allocates the order id and inserts the ORDERS/NEW_ORDER
// rows, publishes the id as the rendezvous input, and processes every line
// whose supply warehouse routes to the home partition; lines for other
// partitions become dependent actions that park until the order id
// arrives. The spec's 1% rollback surfaces as ErrUserAbort with every
// partition rolled back.
func (db *DB) DoraNewOrder(ctx context.Context, in NewOrderInput) error {
	x := db.Engine.Dora()
	if x == nil {
		return ErrDoraDisabled
	}
	homeP := x.Route(in.WID)

	type lineRef struct {
		idx  int
		line NewOrderLine
	}
	// Lines are grouped into one action per partition. With a static
	// router the planning-time Route is authoritative; under PLP a
	// migration can re-route between planning and Submit, so lines are
	// grouped by supply warehouse instead — each group's lock set then
	// names only that warehouse's resources, and Submit places it on
	// whichever partition owns the warehouse at that instant.
	plp := db.Engine.PlpMap() != nil
	var homeLines []lineRef
	remote := make(map[uint32][]lineRef) // keyed by warehouse (PLP) or partition (static)
	for i, l := range in.Lines {
		ref := lineRef{idx: i, line: l}
		if plp {
			if l.SupplyWID == in.WID {
				homeLines = append(homeLines, ref)
			} else {
				remote[l.SupplyWID] = append(remote[l.SupplyWID], ref)
			}
		} else if p := x.Route(l.SupplyWID); p == homeP {
			homeLines = append(homeLines, ref)
		} else {
			remote[uint32(p)] = append(remote[uint32(p)], ref)
		}
	}

	t := x.NewTxn(ctx)
	var home lockList
	home.add(kWh(in.WID), lock.IX)
	home.add(kWRow(in.WID), lock.S)
	home.add(kDist(in.WID, in.DID), lock.X)
	home.add(kCust(in.WID, in.DID, in.CID), lock.S)
	for _, ref := range homeLines {
		home.add(kWh(ref.line.SupplyWID), lock.IX)
		home.add(kStock(ref.line.SupplyWID, ref.line.ItemID), lock.X)
	}
	t.Add(dora.ActionSpec{
		Partition: homeP,
		RouteKey:  in.WID,
		Locks:     home,
		Produces:  len(remote) > 0,
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			oid, err := db.newOrderHead(ctx, sub, in)
			if err != nil {
				return err
			}
			t.PublishInput(uint64(oid))
			for _, ref := range homeLines {
				if err := db.newOrderLine(ctx, sub, in, oid, ref.idx); err != nil {
					return err
				}
			}
			if in.Rollback {
				// The spec's intentional rollback: the decision flag
				// aborts every partition's sub-transaction.
				return ErrUserAbort
			}
			return nil
		},
	})
	for k, group := range remote {
		var locks lockList
		for _, ref := range group {
			locks.add(kWh(ref.line.SupplyWID), lock.IX)
			locks.add(kStock(ref.line.SupplyWID, ref.line.ItemID), lock.X)
		}
		spec := dora.ActionSpec{
			Locks:     locks,
			Dependent: true,
			Run: func(ctx context.Context, sub *tx.Tx, input uint64) error {
				oid := uint32(input)
				for _, ref := range group {
					if err := db.newOrderLine(ctx, sub, in, oid, ref.idx); err != nil {
						return err
					}
				}
				return nil
			},
		}
		if plp {
			spec.RouteKey = k
		} else {
			spec.Partition = int(k)
		}
		t.Add(spec)
	}
	return x.Submit(t)
}

// DoraDelivery runs one Delivery through the partition executor. It
// touches every district and unknown customers of its warehouse, so it
// takes the coarse warehouse X anchor — the partition-local analogue of
// lock escalation.
func (db *DB) DoraDelivery(ctx context.Context, in DeliveryInput) (int, error) {
	x := db.Engine.Dora()
	if x == nil {
		return 0, ErrDoraDisabled
	}
	t := x.NewTxn(ctx)
	var delivered int
	t.Add(dora.ActionSpec{
		Partition: x.Route(in.WID),
		RouteKey:  in.WID,
		Locks:     []dora.LockReq{{Key: kWh(in.WID), Mode: lock.X}},
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			n, err := db.delivery(ctx, sub, in)
			delivered = n
			return err
		},
	})
	if err := x.Submit(t); err != nil {
		return 0, err
	}
	if delivered == 0 {
		return 0, ErrNothingToDeliver
	}
	return delivered, nil
}

// DoraOrderStatus runs one Order-Status (read-only) through the
// partition executor: district S covers the order scan against New
// Order's district X, customer S against Payment's customer X.
func (db *DB) DoraOrderStatus(ctx context.Context, in OrderStatusInput) (OrderStatusResult, error) {
	x := db.Engine.Dora()
	if x == nil {
		return OrderStatusResult{}, ErrDoraDisabled
	}
	t := x.NewTxn(ctx)
	var locks lockList
	locks.add(kWh(in.WID), lock.IS)
	locks.add(kDist(in.WID, in.DID), lock.S)
	locks.add(kCust(in.WID, in.DID, in.CID), lock.S)
	var res OrderStatusResult
	t.Add(dora.ActionSpec{
		Partition: x.Route(in.WID),
		RouteKey:  in.WID,
		Locks:     locks,
		ReadOnly:  true,
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			var err error
			res, err = db.orderStatus(ctx, sub, in)
			return err
		},
	})
	if err := x.Submit(t); err != nil {
		return OrderStatusResult{}, err
	}
	return res, nil
}

// DoraStockLevel runs one Stock-Level (read-only) through the partition
// executor. Its stock read set is unknown until the order-line scan, so
// it takes the coarse warehouse S anchor against writers' IX.
func (db *DB) DoraStockLevel(ctx context.Context, in StockLevelInput) (int, error) {
	x := db.Engine.Dora()
	if x == nil {
		return 0, ErrDoraDisabled
	}
	t := x.NewTxn(ctx)
	var low int
	t.Add(dora.ActionSpec{
		Partition: x.Route(in.WID),
		RouteKey:  in.WID,
		Locks:     []dora.LockReq{{Key: kWh(in.WID), Mode: lock.S}},
		ReadOnly:  true,
		Run: func(ctx context.Context, sub *tx.Tx, _ uint64) error {
			var err error
			low, err = db.stockLevel(ctx, sub, in)
			return err
		},
	})
	if err := x.Submit(t); err != nil {
		return 0, err
	}
	return low, nil
}
