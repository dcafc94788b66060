package tpcc

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/tx"
)

// table names one TPC-C table.
type table uint8

const (
	tWarehouse table = iota
	tDistrict
	tCustomer
	tOrders
	tNewOrder
	tOrderLine
	tItem
	tStock
	tHistory // the heap; rows are only ever appended to it
	nTables
)

// row names one row: its table, and ids (id: customer, order or item).
type row struct {
	t  table
	w  uint32
	d  uint8
	id uint32
	n  uint8
}

func wRow(w uint32) row                    { return row{t: tWarehouse, w: w} }
func dRow(w uint32, d uint8) row           { return row{t: tDistrict, w: w, d: d} }
func cRow(w uint32, d uint8, c uint32) row { return row{t: tCustomer, w: w, d: d, id: c} }
func oRow(w uint32, d uint8, o uint32) row { return row{t: tOrders, w: w, d: d, id: o} }
func iRow(i uint32) row                    { return row{t: tItem, id: i} }
func sRow(w, i uint32) row                 { return row{t: tStock, w: w, id: i} }

// key is the row's B-tree key: its ids big-endian in primary-key order,
// so that B-tree order is key order. An item's key is its id alone.
func (r row) key() []byte {
	b := make([]byte, 0, 10)
	if r.t == tItem {
		return binary.BigEndian.AppendUint32(b, r.id)
	}
	b = binary.BigEndian.AppendUint32(b, r.w)
	switch r.t {
	case tWarehouse:
		return b
	case tStock:
		return binary.BigEndian.AppendUint32(b, r.id)
	}
	b = append(b, r.d)
	if r.t == tDistrict {
		return b
	}
	b = binary.BigEndian.AppendUint32(b, r.id)
	if r.t == tOrderLine {
		b = append(b, r.n)
	}
	return b
}

// end is where a scan from r stops: the next district's first key.
func (r row) end() []byte { return oRow(r.w, r.d+1, 0).key() }

// missing is what a read reports when r is absent. An order line's absence
// is an answer, and an item's New Order's rollback (an unused id, per spec).
func (r row) missing() error {
	switch r.t {
	case tWarehouse:
		return fmt.Errorf("tpcc: warehouse %d missing", r.w)
	case tDistrict:
		return fmt.Errorf("tpcc: district %d/%d missing", r.w, r.d)
	case tCustomer:
		return fmt.Errorf("tpcc: customer %d/%d/%d missing", r.w, r.d, r.id)
	case tOrders:
		return fmt.Errorf("tpcc: order %d/%d/%d missing", r.w, r.d, r.id)
	case tStock:
		return fmt.Errorf("tpcc: stock %d/%d missing", r.w, r.id)
	case tItem:
		return ErrUserAbort
	}
	return nil
}

// read is one row a plan reads: X when the plan writes the row back (S
// and an upgrade at the write deadlock two transactions doing the same),
// S otherwise. A scan reads from its row's key to its district's end.
type read struct {
	row  row
	mode lock.Mode
	scan bool
}

// found is what one read returned: a get's value (nil for an absent row
// whose absence is an answer), or a scan's values in key order.
type found struct {
	value []byte
	scan  [][]byte
}

// fetcher reads one round and returns what each read found; an absent
// row is its missing() error. A read-only plan is a function over a
// fetcher, one call per round: each round's keys come from the last's values.
type fetcher func(reads ...read) ([]found, error)

// step is one unit of a write plan: the rows it reads, every key known
// from the input alone, and apply, which turns what they hold into
// writes. New Order's head step allocates the order id that its
// dependent steps need: apply takes the id in force and returns it.
type step struct {
	reads           []read
	head, dependent bool
	apply           func(got []found, oid uint32, w writer) (uint32, error)
}

// home is the warehouse s's rows live in (ITEM's live in none).
func (s *step) home() uint32 {
	for _, r := range s.reads {
		if r.row.w != 0 {
			return r.row.w
		}
	}
	return 0
}

// writer takes a step's writes: the embedded executor runs each at once,
// the wire executor adds it to the commit batch. err is the first that
// failed; the writes after it are dropped.
type writer interface {
	update(r row, v []byte)
	insert(r row, v []byte)
	err() error
}

// apply runs a write plan's steps in order, each over what fetch reads
// for it, and returns the order id in force at the end.
func apply(p []step, oid uint32, fetch fetcher, w writer) (uint32, error) {
	for _, s := range p {
		got, err := fetch(s.reads...)
		if err == nil {
			oid, err = s.apply(got, oid, w)
		}
		if err = cmp.Or(err, w.err()); err != nil {
			return oid, err
		}
	}
	return oid, nil
}

// The embedded executor: core calls on one tx.Tx, each step's reads and
// then its writes. The …Ctx entry points and every DORA action run it.

// index is the B-tree that holds t's rows.
func (db *DB) index(t table) *core.Index { return *db.indexes()[t] }

func (db *DB) indexes() [tHistory]**core.Index {
	return [...]**core.Index{
		&db.Warehouse, &db.District, &db.Customer, &db.Orders,
		&db.NewOrderTab, &db.OrderLine, &db.Item, &db.Stock,
	}
}

// get reads r.row in t, under an X key lock when r.mode is X (SELECT FOR
// UPDATE) and S otherwise.
func (db *DB) get(ctx context.Context, t *tx.Tx, r read) ([]byte, error) {
	lookup := db.Engine.IndexLookupCtx
	if r.mode == lock.X {
		lookup = db.Engine.IndexLookupForUpdateCtx
	}
	b, ok, err := lookup(ctx, t, db.index(r.row.t), r.row.key())
	if err == nil && !ok {
		err = r.row.missing()
	}
	return b, err
}

// fetcher reads each read at once in t.
func (db *DB) fetcher(ctx context.Context, t *tx.Tx) fetcher {
	return func(reads ...read) ([]found, error) {
		got := make([]found, len(reads))
		for i, r := range reads {
			var err error
			if r.scan {
				err = db.Engine.IndexScanCtx(ctx, t, db.index(r.row.t), r.row.key(), r.row.end(), func(_, v []byte) bool {
					got[i].scan = append(got[i].scan, v)
					return true
				})
			} else {
				got[i].value, err = db.get(ctx, t, r)
			}
			if err != nil {
				return nil, err
			}
		}
		return got, nil
	}
}

// runCtx runs write plan p as one managed transaction: deadlock and
// timeout victims are retried with capped exponential backoff, lock
// waits observe ctx, and ErrUserAbort is not retried.
func (db *DB) runCtx(ctx context.Context, p []step) error {
	return db.Engine.RunCtx(ctx, retryPolicy, func(t *tx.Tx) error {
		_, err := apply(p, 0, db.fetcher(ctx, t), &txWriter{db: db, ctx: ctx, t: t})
		return err
	}, nil)
}

// txWriter runs each write in t as it comes.
type txWriter struct {
	db    *DB
	ctx   context.Context
	t     *tx.Tx
	first error
}

func (w *txWriter) err() error { return w.first }

func (w *txWriter) update(r row, v []byte) {
	if w.first == nil {
		w.first = w.db.Engine.IndexUpdateCtx(w.ctx, w.t, w.db.index(r.t), r.key(), v)
	}
}

func (w *txWriter) insert(r row, v []byte) {
	switch {
	case w.first != nil:
	case r.t == tHistory:
		_, w.first = w.db.Engine.HeapInsertCtx(w.ctx, w.t, w.db.History, v)
	default:
		w.first = w.db.Engine.IndexInsertCtx(w.ctx, w.t, w.db.index(r.t), r.key(), v)
	}
}
