package core

import (
	"fmt"
	"sync"
	"testing"
)

// fillTable inserts writers × txns × perTxn 100-byte records into one
// fresh table at StageFinal, each writer committing every perTxn inserts,
// and returns how many pages the table ended with.
func fillTable(t *testing.T, writers, txns, perTxn int) int {
	t.Helper()
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	payload := make([]byte, 100)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				txn, err := e.Begin()
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < perTxn; j++ {
					if _, err := e.HeapInsert(txn, store, payload); err != nil {
						_ = e.Abort(txn)
						errs <- fmt.Errorf("writer %d txn %d insert %d: %w", w, i, j, err)
						return
					}
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
	pids, err := e.Space().Pages(store)
	if err != nil {
		t.Fatal(err)
	}
	return len(pids)
}

// TestSharedHeapFill: inserters that share a table fill its pages about
// as well as one inserter does. Every inserter that finds the last page
// full must not get a page of its own — all but the last to publish would
// be left holding a record or two.
func TestSharedHeapFill(t *testing.T) {
	const txns, perTxn = 40, 50
	single := fillTable(t, 1, 4*txns, perTxn)
	shared := fillTable(t, 4, txns, perTxn)
	t.Logf("%d records: %d pages with one writer, %d with four", 4*txns*perTxn, single, shared)
	if float64(shared) > 1.15*float64(single) {
		t.Fatalf("four writers used %d pages, one writer %d: more than 1.15x", shared, single)
	}
}

// TestHeapInsertSpaceLockPerPage: with the last-page hint, an insert
// takes the space manager's mutex only to allocate a page, not per
// record; without it (StageBaseline) every insert still walks the extent
// list, the §7.6 exhibit.
func TestHeapInsertSpaceLockPerPage(t *testing.T) {
	for _, stage := range []Stage{StageFinal, StageBaseline} {
		t.Run(stage.String(), func(t *testing.T) {
			e, _, _ := newEngine(t, stage)
			store := createTable(t, e)
			before := e.Space().Stats()
			txn, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 100)
			for i := 0; i < 5000; i++ {
				if _, err := e.HeapInsert(txn, store, payload); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if err := e.Commit(txn); err != nil {
				t.Fatal(err)
			}
			after := e.Space().Stats()
			pages := after.Allocs - before.Allocs
			locks := after.Lock.Acquisitions - before.Lock.Acquisitions
			walks := after.LastPageWalks - before.LastPageWalks
			t.Logf("%d pages, %d space-mutex acquisitions, %d walks", pages, locks, walks)
			if stage == StageBaseline {
				if walks == 0 {
					t.Fatal("no last-page walks without the last-page cache")
				}
				return
			}
			if locks > pages+2 {
				t.Fatalf("%d space-mutex acquisitions for %d pages: more than one per page + 2", locks, pages)
			}
		})
	}
}
