//go:build !race

// Allocation counts are a property of the optimized build: the race
// detector's instrumentation moves two of the descent's stack objects to
// the heap, so the exact bound below holds without it only.

package core

import (
	"context"
	"fmt"
	"testing"
)

// TestLogPathAllocations guards the allocation count of the update path:
// one transaction that inserts a heap record and updates an index entry.
// logPhysical builds both records in the transaction's scratch space, so
// the per-record redo, undo and Record allocations are gone. Measured
// with this test: 23 objects per transaction before the scratch space,
// 12 with it on a one-leaf tree. The index here has two levels, so the
// B-tree descent is in the count too: it reads headers in place and keeps
// its path in a fixed array on the stack, where it used to copy the
// leaf's high key and grow a slice (14 objects). An index update logs a
// patch cut out of the caller's value and the page's entry, so the new
// entry is no longer built on the side (11).
func TestLogPathAllocations(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	setup, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := e.CreateIndex(setup)
	if err != nil {
		t.Fatal(err)
	}
	// Enough keys for a tree of two levels, and the measured key in the
	// middle of it: its leaf has a high key and a parent, which a descent
	// used to copy and to record in a heap-grown path.
	value, row := make([]byte, 100), make([]byte, 200)
	for i := 0; i < 1000; i++ {
		if err := e.IndexInsert(setup, ix, []byte(fmt.Sprintf("key-%04d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("key-0500")
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.HeapInsertCtx(context.Background(), tx, store, row); err != nil {
			t.Fatal(err)
		}
		value[50]++ // a real change: the patch is one byte, not empty
		if err := e.IndexUpdateCtx(context.Background(), tx, ix, key, value); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 11 {
		t.Fatalf("HeapInsert+IndexUpdate+Commit allocates %.0f objects, want at most 11 (12 while the update built its entry, 14 before the descent stopped allocating, 23 before the scratch space)", allocs)
	}
}
