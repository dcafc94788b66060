package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

// TestHeapSlotHintReuse verifies the frame slot hint keeps tombstone
// reuse working: a delete lowers the hint, so the next insert lands in
// the freed slot instead of growing the directory (or worse, a new
// page).
func TestHeapSlotHintReuse(t *testing.T) {
	cfg := StageConfig(StageFinal)
	cfg.Frames = 128
	e, err := Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	store := createTable(t, e)

	tx1, _ := e.Begin()
	var rids []page.RID
	for i := 0; i < 40; i++ {
		rid, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("record-payload"))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}
	if rids[0].Page != rids[39].Page {
		t.Skip("records spread over multiple pages; hint reuse needs one page")
	}

	victim := rids[7]
	tx2, _ := e.Begin()
	if err := e.HeapDeleteCtx(context.Background(), tx2, store, victim); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx2); err != nil {
		t.Fatal(err)
	}

	tx3, _ := e.Begin()
	rid, err := e.HeapInsertCtx(context.Background(), tx3, store, []byte("reused-slot!!!"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx3); err != nil {
		t.Fatal(err)
	}
	if rid != victim {
		t.Fatalf("insert after delete got %v, want reuse of %v", rid, victim)
	}

	// And the hint advances: the next insert must not re-scan into
	// occupied territory (functionally: it simply lands on a fresh slot).
	tx4, _ := e.Begin()
	rid2, err := e.HeapInsertCtx(context.Background(), tx4, store, []byte("fresh-slot"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx4); err != nil {
		t.Fatal(err)
	}
	if rid2 == victim {
		t.Fatalf("second insert reused an occupied slot %v", rid2)
	}
}

// TestHeapSlotHintAbortReuse locks in the rollback path's hint
// maintenance: undoing an insert tombstones the slot AND lowers the
// hint, so the very next insert reuses it.
func TestHeapSlotHintAbortReuse(t *testing.T) {
	cfg := StageConfig(StageFinal)
	cfg.Frames = 128
	e, err := Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	store := createTable(t, e)

	tx1, _ := e.Begin()
	base, err := e.HeapInsertCtx(context.Background(), tx1, store, []byte("keeper"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}

	tx2, _ := e.Begin()
	doomed, err := e.HeapInsertCtx(context.Background(), tx2, store, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(tx2); err != nil {
		t.Fatal(err)
	}

	tx3, _ := e.Begin()
	rid, err := e.HeapInsertCtx(context.Background(), tx3, store, []byte("recycled"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx3); err != nil {
		t.Fatal(err)
	}
	if rid != doomed {
		t.Fatalf("insert after abort got %v, want reuse of %v", rid, doomed)
	}
	_ = base
}

// TestHeapInsertAllocRace hammers one heap store from many writers so
// page allocations constantly race the last-page hint. A reader that
// beats the allocator to the fix of a freshly claimed page sees its raw
// zeroed image — which looks writable (heapTop 0 reads as an empty
// page) — so without the page-type guard this corrupts the unformatted
// page, and without FixNew's takeover path the allocator errors with
// "page already cached". Every insert must succeed and every record
// must be readable afterwards.
func TestHeapInsertAllocRace(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)

	const writers = 8
	const perWriter = 300
	// Big enough records that pages fill after a handful of inserts,
	// keeping the allocation rate (and the race window) high.
	payload := make([]byte, 512)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				txn, err := e.Begin()
				if err != nil {
					errs <- err
					return
				}
				if _, err := e.HeapInsertCtx(context.Background(), txn, store, payload); err != nil {
					_ = e.Abort(txn)
					errs <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
				if err := e.Commit(txn); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	rd, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Abort(rd)
	n := 0
	if err := e.HeapScan(rd, store, func(rid page.RID, rec []byte) bool {
		if len(rec) != len(payload) {
			t.Errorf("record %v has %d bytes, want %d", rid, len(rec), len(payload))
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := writers * perWriter; n != want {
		t.Fatalf("scan found %d records, want %d", n, want)
	}
}
