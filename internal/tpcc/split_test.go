package tpcc

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/wal"
)

// TestNewOrderStreamsSplitAtTheirEnd: each New Order inserts one key into
// ORDERS and one into NEW-ORDER at the end of its district's range, so a
// district is an ascending stream of one-key transactions, ten of them
// interleaved per table. The leaf remembers where its inserts run, so once
// a stream has been cut at its insertion point it inserts at the end of
// its own leaf, and its splits move no entry. On one warehouse, the first
// 2 000 New Orders after Load and the 8 000 after them may each make at
// most two image splits (splits that move entries) per district in ORDERS
// and NEW-ORDER together. The per-transaction cursor, which never saw a
// run here, made 20 (12 + 8) and then 107: it cut every full leaf of
// these streams in the middle.
//
// The splits are counted per table from the log: a split that moves
// entries logs the new right node's image and then the left node's, whose
// header points right at it. Root splits, which always move entries, are
// not among them.
func TestNewOrderStreamsSplitAtTheirEnd(t *testing.T) {
	logStore := wal.NewMemSegmentStore(0)
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 2048
	e, err := core.Open(disk.NewMem(0), logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	scale := DefaultScale(1)
	db, err := Load(e, scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRand(7)
	for _, n := range []int{2000, 8000} {
		splits := imageSplits(t, e, logStore, func() {
			for i := 0; i < n; i++ {
				if err := db.NewOrderCtx(context.Background(), GenNewOrder(r, scale, 1)); err != nil && !errors.Is(err, ErrUserAbort) {
					t.Fatal(err)
				}
			}
		})
		orders, newOrders := splits[db.Orders.Store()], splits[db.NewOrderTab.Store()]
		t.Logf("image splits in %d New Orders: ORDERS %d, NEW-ORDER %d", n, orders, newOrders)
		if max := 2 * scale.Districts; orders+newOrders > max {
			t.Errorf("%d New Orders: ORDERS and NEW-ORDER made %d image splits, want at most %d: two per district", n, orders+newOrders, max)
		}
	}
}

// imageSplits runs fn and counts the image splits its records log, by
// store.
func imageSplits(t *testing.T, e *core.Engine, logStore wal.Store, fn func()) map[uint32]int {
	t.Helper()
	from := e.Log().CurLSN()
	fn()
	if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
		t.Fatal(err)
	}
	splits := map[uint32]int{}
	prev := map[uint64]page.ID{} // each transaction's last imaged page
	sc := wal.NewScanner(logStore, from)
	for {
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return splits
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type != wal.RecUpdate {
			continue
		}
		op, err := pageop.Decode(rec.Redo)
		if err != nil || op.Kind != pageop.KindPageImage {
			continue
		}
		p := page.New(rec.Page, page.TypeFree, 0)
		if err := pageop.Apply(p, op); err != nil {
			t.Fatal(err)
		}
		hdr, err := p.Record(0) // the node header: flags, level, right sibling, ...
		if err != nil || len(hdr) < 10 {
			t.Fatalf("image of %v has no node header: %v", rec.Page, err)
		}
		if right := page.ID(binary.LittleEndian.Uint64(hdr[2:])); right != 0 && right == prev[rec.TxID] {
			splits[p.Store()]++
		}
		prev[rec.TxID] = rec.Page
	}
}
