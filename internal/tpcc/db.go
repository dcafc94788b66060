package tpcc

import (
	"context"

	"repro/internal/core"
)

// Scale configures database size. The TPC-C defaults (10 districts per
// warehouse, 3000 customers per district, 100k items) are far larger than
// unit tests need, so every axis is adjustable.
type Scale struct {
	Warehouses   int
	Districts    int // per warehouse
	Customers    int // per district
	Items        int
	StockPerItem bool // load stock for every (warehouse, item) pair
}

// DefaultScale returns a small-but-realistic scale for benchmarks.
func DefaultScale(warehouses int) Scale {
	return Scale{
		Warehouses:   warehouses,
		Districts:    10,
		Customers:    120,
		Items:        1000,
		StockPerItem: true,
	}
}

// TinyScale returns a minimal scale for unit tests.
func TinyScale() Scale {
	return Scale{Warehouses: 2, Districts: 2, Customers: 10, Items: 50, StockPerItem: true}
}

// DB holds the engine plus the store handles of the nine TPC-C tables.
type DB struct {
	Engine *core.Engine
	Scale  Scale

	Warehouse   *core.Index
	District    *core.Index
	Customer    *core.Index
	Orders      *core.Index
	NewOrderTab *core.Index
	OrderLine   *core.Index
	Item        *core.Index
	Stock       *core.Index
	History     uint32 // heap store (no primary key)

	programs [nPrograms]uint32 // the engine's ids of the transactions (plan.go)
}

// Load builds and populates a TPC-C database on engine at the given scale
// and registers its transactions as programs on engine, for a server to run.
func Load(engine *core.Engine, scale Scale, seed int64) (*DB, error) {
	db := &DB{Engine: engine, Scale: scale}
	r := NewRand(seed)

	t, err := engine.Begin()
	if err != nil {
		return nil, err
	}
	for tab, ix := range db.indexes() {
		// Warehouse-prefixed indexes become PLP forests when the engine runs
		// physiological partitioning: every key's first four bytes are the
		// warehouse id, which is exactly the DORA routing key. ITEM is shared
		// across warehouses and stays a single tree.
		if engine.PlpMap() != nil && table(tab) != tItem {
			*ix, err = engine.CreatePartitionedIndex(t)
		} else {
			*ix, err = engine.CreateIndex(t)
		}
		if err != nil {
			return nil, err
		}
	}
	if db.History, err = engine.CreateTable(t); err != nil {
		return nil, err
	}
	if err := engine.Commit(t); err != nil {
		return nil, err
	}

	// Items (shared across warehouses).
	if err := db.loadBatch(func(w *txWriter) {
		for i := 1; i <= scale.Items; i++ {
			item := Item{
				ID:    uint32(i),
				ImID:  uint32(r.Int(1, 10000)),
				Name:  r.AString(14, 24),
				Price: r.Float(1, 100),
				Data:  r.AString(26, 50),
			}
			w.insert(iRow(item.ID), item.encode())
		}
	}); err != nil {
		return nil, err
	}

	for w := 1; w <= scale.Warehouses; w++ {
		if err := db.loadWarehouse(r, uint32(w)); err != nil {
			return nil, err
		}
	}
	db.registerPrograms()
	return db, nil
}

// loadBatch runs fn's inserts inside one committed transaction.
func (db *DB) loadBatch(fn func(w *txWriter)) error {
	t, err := db.Engine.Begin()
	if err != nil {
		return err
	}
	w := &txWriter{db: db, ctx: context.Background(), t: t}
	if fn(w); w.first != nil {
		_ = db.Engine.Abort(t)
		return w.first
	}
	return db.Engine.Commit(t)
}

func (db *DB) loadWarehouse(r *Rand, w uint32) error {
	scale := db.Scale
	// Warehouse row + stock.
	if err := db.loadBatch(func(wr *txWriter) {
		wh := Warehouse{
			ID: w, Name: r.AString(6, 10), Street: r.AString(10, 20),
			City: r.AString(10, 20), State: r.AString(2, 2), Zip: r.NString(9, 9),
			Tax: r.Float(0, 0.2),
		}
		wr.insert(wRow(w), wh.encode())
		for i := 1; scale.StockPerItem && i <= scale.Items; i++ {
			s := Stock{
				WID: w, ItemID: uint32(i),
				Quantity: int32(r.Int(10, 100)),
				DistInfo: r.AString(24, 24),
				Data:     r.AString(26, 50),
			}
			wr.insert(sRow(w, uint32(i)), s.encode())
		}
	}); err != nil {
		return err
	}
	// Districts and customers.
	for d := 1; d <= scale.Districts; d++ {
		d := uint8(d)
		if err := db.loadBatch(func(wr *txWriter) {
			dist := District{
				WID: w, ID: d, Name: r.AString(6, 10), Street: r.AString(10, 20),
				City: r.AString(10, 20), Tax: r.Float(0, 0.2), NextOID: 1,
			}
			wr.insert(dRow(w, d), dist.encode())
			for c := 1; c <= scale.Customers; c++ {
				credit := "GC"
				if r.Int(1, 10) == 1 {
					credit = "BC"
				}
				cust := Customer{
					WID: w, DID: d, ID: uint32(c),
					First: r.AString(8, 16), Middle: "OE", Last: LastName(c - 1),
					Credit: credit, CreditLim: 50000, Discount: r.Float(0, 0.5),
					Balance: -10, YTDPayment: 10, Data: r.AString(100, 200),
				}
				wr.insert(cRow(w, d, uint32(c)), cust.encode())
			}
		}); err != nil {
			return err
		}
	}
	return nil
}
