package core

import "testing"

// TestLogPathAllocations guards the allocation count of the update path:
// one transaction that inserts a heap record and updates an index entry.
// logPhysical builds both records in the transaction's scratch space, so
// the per-record redo, undo and Record allocations are gone. Measured
// with this test: 23 objects per transaction before the scratch space,
// 12 with it.
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
	key, value, row := []byte("the-one-key"), make([]byte, 100), make([]byte, 200)
	if err := e.IndexInsert(setup, ix, key, value); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.HeapInsert(tx, store, row); err != nil {
			t.Fatal(err)
		}
		if err := e.IndexUpdate(tx, ix, key, value); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 23 {
		t.Fatalf("HeapInsert+IndexUpdate+Commit allocates %.0f objects, want fewer than the 23 before the scratch space", allocs)
	}
}
