package tpcc

import (
	"context"
	"errors"

	"slices"

	"repro/internal/dora"
	"repro/internal/lock"
	"repro/internal/tx"
)

// The DORA executor. The keyspace is partitioned by warehouse
// (Executor.Route), and a transaction becomes one action per partition
// it touches. Partition-local lock keys form a small hierarchy anchored
// on the warehouse: fine-grained actions take an intent mode on the
// anchor plus absolute modes on the rows they read; an action that scans
// (Delivery, Stock-Level) takes an absolute mode on the anchor alone.
// ITEM is read-only after load and needs no lock at all.
//
// Cross-partition writes stay logically consistent without cross-
// partition lock names: a remote New Order action inserts ORDER_LINE
// rows keyed by the home district, but the home action holds that
// district's X lock until the rendezvous releases both actions together,
// so no reader can observe a torn order. After the unanimous decision
// one commit record commits every partition's sub-transaction
// (dora.Env.Precommit), so a crash cannot tear the order either.

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

// lockKey is the row's partition-local lock key. ITEM has none, and the
// rows a plan inserts are covered by their district's lock.
func (r row) lockKey() (uint64, bool) {
	switch r.t {
	case tWarehouse:
		return kWRow(r.w), true
	case tDistrict:
		return kDist(r.w, r.d), true
	case tCustomer:
		return kCust(r.w, r.d, r.id), true
	case tStock:
		return kStock(r.w, r.id), true
	}
	return 0, false
}

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

// action is one DORA action of a write plan: its steps, route and locks.
type action struct {
	group  int
	route  uint32
	steps  []step
	locks  lockList
	head   bool   // runs the step that allocates the order id
	depend bool   // runs a step that needs it
	v      uint32 // the value in force after its steps ran
}

// actions groups p's steps into DORA actions by the partition that owns
// each step's home warehouse (route), so steps on two warehouses of one
// partition share an action; ownership is fixed while the engine is
// open, so the planning-time answer holds at Submit. An action takes IX
// on the anchor of every row its steps read, the read's mode on the row
// itself. A scan cannot name the rows its step reads after it, so for a
// scan the action takes the scan's mode on the anchor instead.
func actions(p []step, route func(w uint32) int) []action {
	var acts []action
	for _, s := range p {
		w := s.home()
		g := route(w)
		i := slices.IndexFunc(acts, func(a action) bool { return a.group == g })
		if i < 0 {
			i, acts = len(acts), append(acts, action{group: g, route: w})
		}
		a := &acts[i]
		a.steps = append(a.steps, s)
		a.head = a.head || s.head
		a.depend = a.depend || s.dependent
		for _, r := range s.reads {
			switch k, ok := r.row.lockKey(); {
			case r.scan:
				a.locks.add(kWh(r.row.w), r.mode)
			case ok:
				a.locks.add(kWh(r.row.w), lock.IX)
				a.locks.add(k, r.mode)
			}
		}
	}
	return acts
}

// runDora runs a write plan through the partition executor: one action
// per group of steps, all rendezvousing at commit. The action that runs
// the head publishes the order id; the others park until it arrives. It
// returns the value in force after the first action, the plan's own when
// the plan is one action.
func (db *DB) runDora(ctx context.Context, p []step) (uint32, error) {
	x := db.Engine.Dora()
	if x == nil {
		return 0, ErrDoraDisabled
	}
	acts := actions(p, x.Route)
	t := x.NewTxn(ctx)
	for i := range acts {
		a := &acts[i]
		t.Add(dora.ActionSpec{
			RouteKey:  a.route,
			Locks:     a.locks,
			Produces:  a.head && len(acts) > 1,
			Dependent: a.depend && !a.head,
			Run: func(ctx context.Context, sub *tx.Tx, input uint64) (err error) {
				a.v, err = apply(a.steps, uint32(input), &txWriter{db: db, ctx: ctx, t: sub})
				if a.head {
					t.PublishInput(uint64(a.v))
				}
				return err
			},
		})
	}
	err := x.Submit(t)
	return acts[0].v, err
}

// DoraPayment runs one Payment through the partition executor: one
// action for a customer of the home partition, else a home and a
// customer action that rendezvous at commit.
func (db *DB) DoraPayment(ctx context.Context, in PaymentInput) error {
	_, err := db.runDora(ctx, in.plan())
	return err
}

// DoraNewOrder runs one New Order through the partition executor: the
// home action allocates the order id and runs the lines supplied from its
// partition; each other partition's lines are an action that parks until
// the id arrives. The spec's 1% rollback surfaces as ErrUserAbort with
// every partition rolled back.
func (db *DB) DoraNewOrder(ctx context.Context, in NewOrderInput) error {
	_, err := db.runDora(ctx, in.plan())
	return err
}

// doraSolo runs read-only plan run as a transaction's one action, on w's
// partition.
func (db *DB) doraSolo(ctx context.Context, w uint32, locks []dora.LockReq, run func(*txWriter) error) error {
	x := db.Engine.Dora()
	if x == nil {
		return ErrDoraDisabled
	}
	t := x.NewTxn(ctx)
	t.Add(dora.ActionSpec{
		RouteKey: w,
		Locks:    locks,
		ReadOnly: true,
		Run:      func(ctx context.Context, sub *tx.Tx, _ uint64) error { return run(&txWriter{db: db, ctx: ctx, t: sub}) },
	})
	return x.Submit(t)
}

// DoraDelivery runs one Delivery through the partition executor: one
// action, which holds its warehouse's X anchor because its steps scan.
func (db *DB) DoraDelivery(ctx context.Context, in DeliveryInput) (int, error) {
	delivered, err := db.runDora(ctx, in.plan(db.Scale.Districts))
	return deliveredOrNone(int(delivered), err)
}

// DoraOrderStatus runs one Order-Status (read-only) through the
// partition executor: district S covers the order scan against New
// Order's district X, customer S against Payment's customer X.
func (db *DB) DoraOrderStatus(ctx context.Context, in OrderStatusInput) (res OrderStatusResult, err error) {
	locks := []dora.LockReq{
		{Key: kWh(in.WID), Mode: lock.IS},
		{Key: kDist(in.WID, in.DID), Mode: lock.S},
		{Key: kCust(in.WID, in.DID, in.CID), Mode: lock.S},
	}
	err = db.doraSolo(ctx, in.WID, locks, func(w *txWriter) error { return in.run(w, &res) })
	return res, err
}

// DoraStockLevel runs one Stock-Level (read-only) through the partition
// executor. Its stock read set is unknown until the order-line scan, so
// it takes the coarse warehouse S anchor against writers' IX.
func (db *DB) DoraStockLevel(ctx context.Context, in StockLevelInput) (low int, err error) {
	locks := []dora.LockReq{{Key: kWh(in.WID), Mode: lock.S}}
	err = db.doraSolo(ctx, in.WID, locks, func(w *txWriter) error { return in.run(w, &low) })
	return low, err
}
