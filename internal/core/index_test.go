package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/lock"
)

// TestEmptyIndexConcurrentInsert is the regression for the root-leaf
// race (ROADMAP defect 0(b)): writers racing the first root split of a
// freshly created index. A latched descent used to see the root as a
// leaf, queue for its EX latch behind the splitter, and insert a leaf
// entry into what had meanwhile become a branch. Each trial creates an
// empty index, lets the goroutines insert disjoint, interleaved keys
// with values large enough that the root splits within a few inserts,
// and then checks structure and key count.
func TestEmptyIndexConcurrentInsert(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 100
	}
	const (
		writers = 3
		perW    = 12
	)
	e, _, _ := newEngine(t, StageFinal)
	ctx := context.Background()
	value := make([]byte, 900) // eight entries fill the root leaf
	for trial := 0; trial < trials; trial++ {
		setup, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := e.CreateIndex(setup)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(setup); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				tx, err := e.Begin()
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < perW; i++ {
					key := []byte(fmt.Sprintf("key%04d", i*writers+w))
					if err := e.IndexInsertCtx(ctx, tx, ix, key, value); err != nil {
						_ = e.Abort(tx)
						errs <- fmt.Errorf("writer %d insert %s: %w", w, key, err)
						return
					}
				}
				if err := e.Commit(tx); err != nil {
					errs <- fmt.Errorf("writer %d commit: %w", w, err)
				}
			}(w)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("trial %d: %v", trial, err)
		}
		if n, err := ix.Verify(); err != nil || n != writers*perW {
			t.Fatalf("trial %d: Verify = %d keys, %v; want %d", trial, n, err, writers*perW)
		}
		if t.Failed() {
			return
		}
	}
}

// TestLatchedDescentsCounted: without OLC or PLP every index operation
// is either a latched descent or a hit of the transaction's cursor, and
// the engine-wide counters say which. One transaction working its way
// through one leaf descends once; transactions of one operation each
// have nothing to remember and descend every time.
func TestLatchedDescentsCounted(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := e.CreateIndex(tx)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50 // one leaf's worth
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
	for i := 0; i < n; i++ {
		if err := e.IndexInsert(tx, ix, key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok, err := e.IndexLookup(tx, ix, key(i)); err != nil || !ok {
			t.Fatalf("lookup %d: %v, %v", i, ok, err)
		}
	}
	if err := e.Commit(tx); err != nil {
		t.Fatal(err)
	}
	one := e.Stats().Btree
	if one.LatchedDescents != 1 || one.CursorHits != 2*n-1 || one.CursorMisses != 0 {
		t.Fatalf("one transaction, %d operations on one leaf: %d latched descents, %d cursor hits, %d misses; want 1, %d, 0",
			2*n, one.LatchedDescents, one.CursorHits, one.CursorMisses, 2*n-1)
	}
	for i := 0; i < n; i++ {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := e.IndexLookup(tx, ix, key(i)); err != nil || !ok {
			t.Fatalf("lookup %d: %v, %v", i, ok, err)
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats().Btree
	if s.LatchedDescents != one.LatchedDescents+n || s.CursorHits != one.CursorHits || s.CursorMisses != 0 {
		t.Fatalf("%d single-lookup transactions: %d latched descents, %d cursor hits, %d misses on top of %+v",
			n, s.LatchedDescents, s.CursorHits, s.CursorMisses, one)
	}
	if s.OptDescents+s.OptLeafReads+s.OwnerDescents+s.OwnerReads != 0 {
		t.Fatalf("speculative counters moved without OLC or PLP: %+v", s)
	}
}

// TestLookupReturnsOwnedCopies: what an exported lookup returns belongs to
// the caller. A transaction's arena is handed to the next one on the same
// goroutine when it ends (and, under the race detector, overwritten with
// garbage first), so a value that aliased it would change under a caller
// that kept it past its commit.
func TestLookupReturnsOwnedCopies(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	ctx := context.Background()
	tx0, _ := e.Begin()
	ix, err := e.CreateIndex(tx0)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%03d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 40) }
	for i := 0; i < 50; i++ {
		if err := e.IndexInsert(tx0, ix, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(tx0); err != nil {
		t.Fatal(err)
	}

	tx1, _ := e.Begin()
	got, _, err := e.IndexLookupCtx(ctx, tx1, ix, key(1))
	if err != nil {
		t.Fatal(err)
	}
	forUpdate, _, err := e.IndexLookupForUpdateCtx(ctx, tx1, ix, key(2))
	if err != nil {
		t.Fatal(err)
	}
	var scanned [][]byte
	if err := e.IndexScanCtx(ctx, tx1, ix, key(3), key(5), func(_, v []byte) bool {
		scanned = append(scanned, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	deleted, err := e.IndexDeleteCtx(ctx, tx1, ix, key(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx1); err != nil {
		t.Fatal(err)
	}

	// The next transaction on this goroutine fills its arena with other
	// values and rewrites the rows read.
	tx2, _ := e.Begin()
	for i := 6; i < 50; i++ {
		if _, err := e.IndexView(ctx, tx2, ix, key(i), lock.S, func(v []byte) { tx2.Arena().Copy(v) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{1, 2, 3, 4} {
		if err := e.IndexUpdateCtx(ctx, tx2, ix, key(i), val(i+13)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(tx2); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"IndexLookupCtx", got, val(1)}, {"IndexLookupForUpdateCtx", forUpdate, val(2)},
		{"IndexScanCtx", bytes.Join(scanned, nil), append(val(3), val(4)...)}, {"IndexDeleteCtx", deleted, val(5)},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s's value changed after its transaction ended: %q, want %q", c.name, c.got, c.want)
		}
	}
}
