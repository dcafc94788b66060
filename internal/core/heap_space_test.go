package core

import (
	"context"
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
					if _, err := e.HeapInsertCtx(context.Background(), txn, store, payload); err != nil {
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
				if _, err := e.HeapInsertCtx(context.Background(), txn, store, payload); err != nil {
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

// TestExtentCacheHitsFold: a transaction's extent cache counts its own
// hits, and they reach Stats().Space.CacheHits exactly once, when the
// transaction ends, whether it commits or aborts; under the commit
// pipeline the locks, and with them the hits, go at precommit. Every
// insert into a table that has a last page checks that page once, so the
// hits are the checks less the misses, which are counted at once.
func TestExtentCacheHitsFold(t *testing.T) {
	const inserts = 300
	for _, stage := range []Stage{StageFinal, StagePipeline} {
		for _, commit := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/commit=%v", stage, commit), func(t *testing.T) {
				e, _, _ := newEngine(t, stage)
				store := createTable(t, e)
				seed, _ := e.Begin()
				if _, err := e.HeapInsertCtx(context.Background(), seed, store, []byte("first page")); err != nil {
					t.Fatal(err)
				}
				if err := e.Commit(seed); err != nil {
					t.Fatal(err)
				}
				before := e.Stats().Space
				txn, _ := e.Begin()
				payload := make([]byte, 100)
				for i := 0; i < inserts; i++ {
					if _, err := e.HeapInsertCtx(context.Background(), txn, store, payload); err != nil {
						t.Fatal(err)
					}
				}
				if got := e.Stats().Space.CacheHits; got != before.CacheHits {
					t.Fatalf("cache hits %d -> %d before the transaction ended", before.CacheHits, got)
				}
				end := e.Commit
				if !commit {
					end = e.Abort
				}
				if err := end(txn); err != nil {
					t.Fatal(err)
				}
				after := e.Stats().Space
				misses := after.CacheMisses - before.CacheMisses
				if hits := after.CacheHits - before.CacheHits; hits != inserts-misses || hits == 0 {
					t.Fatalf("%d checks, %d misses: cache hits grew by %d, want %d", inserts, misses, hits, inserts-misses)
				}
			})
		}
	}
}
