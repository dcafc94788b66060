package tx

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/lock"
	"repro/internal/page"
)

func TestBeginCommitAbortLifecycle(t *testing.T) {
	m := NewManager(Options{})
	t1 := m.Begin()
	t2 := m.Begin()
	if t1.ID() == t2.ID() {
		t.Fatal("duplicate transaction ids")
	}
	if t1.State() != StateActive {
		t.Fatalf("state = %v", t1.State())
	}
	if m.ActiveCount() != 2 {
		t.Fatalf("active = %d", m.ActiveCount())
	}
	if err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if t1.State() != StateCommitted {
		t.Fatalf("state after commit = %v", t1.State())
	}
	if err := m.Abort(t2); err != nil {
		t.Fatal(err)
	}
	if t2.State() != StateAborted {
		t.Fatalf("state after abort = %v", t2.State())
	}
	if m.ActiveCount() != 0 {
		t.Fatalf("active = %d", m.ActiveCount())
	}
	// Finishing twice errors.
	if err := m.Commit(t1); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit = %v", err)
	}
	st := m.Stats()
	if st.Begins != 2 || st.Commits != 1 || st.Aborts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOldestVariants(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := "scan"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			m := NewManager(Options{CachedOldest: cached})
			if m.Oldest() != 0 {
				t.Fatalf("Oldest on empty = %d", m.Oldest())
			}
			t1 := m.Begin()
			t2 := m.Begin()
			t3 := m.Begin()
			if got := m.Oldest(); got != t1.ID() {
				t.Fatalf("Oldest = %d, want %d", got, t1.ID())
			}
			// Removing the middle does not change the oldest.
			if err := m.Commit(t2); err != nil {
				t.Fatal(err)
			}
			if got := m.Oldest(); got != t1.ID() {
				t.Fatalf("Oldest after middle commit = %d", got)
			}
			// Removing the oldest advances it.
			if err := m.Commit(t1); err != nil {
				t.Fatal(err)
			}
			if got := m.Oldest(); got != t3.ID() {
				t.Fatalf("Oldest after oldest commit = %d, want %d", got, t3.ID())
			}
			if err := m.Commit(t3); err != nil {
				t.Fatal(err)
			}
			if m.Oldest() != 0 {
				t.Fatalf("Oldest after all done = %d", m.Oldest())
			}
			st := m.Stats()
			if cached && st.OldestScans != 0 {
				t.Errorf("cached variant scanned the list %d times", st.OldestScans)
			}
			if !cached && st.OldestScans == 0 {
				t.Error("scan variant recorded no scans")
			}
		})
	}
}

func TestLogChain(t *testing.T) {
	m := NewManager(Options{})
	tx := m.Begin()
	if tx.LastLSN() != 0 || tx.UndoNext() != 0 {
		t.Fatal("fresh tx has log state")
	}
	tx.RecordLog(100)
	tx.RecordLog(200)
	if tx.LastLSN() != 200 || tx.UndoNext() != 200 {
		t.Fatalf("chain: last=%v undoNext=%v", tx.LastLSN(), tx.UndoNext())
	}
	tx.SetUndoNext(100)
	if tx.UndoNext() != 100 || tx.LastLSN() != 200 {
		t.Fatal("SetUndoNext changed lastLSN")
	}
	_ = m.Commit(tx)
}

func TestLockBookkeeping(t *testing.T) {
	m := NewManager(Options{})
	tx := m.Begin()
	n1 := lock.StoreName(1)
	n2 := lock.RowName(1, page.RID{Page: 2, Slot: 3})
	tx.AddLock(n1, lock.IX)
	tx.AddLock(n2, lock.X)
	locks := tx.Locks()
	if len(locks) != 2 || locks[0] != n1 || locks[1] != n2 {
		t.Fatalf("locks = %v", locks)
	}
	// Re-granting a held name must not duplicate the release entry; the
	// cached mode converges on the supremum of every grant.
	tx.AddLock(n1, lock.S)
	if got := tx.Locks(); len(got) != 2 {
		t.Fatalf("re-grant duplicated release entry: %v", got)
	}
	if m := tx.HeldMode(n1); m != lock.SIX {
		t.Fatalf("HeldMode(n1) = %v, want SIX (sup of IX and S)", m)
	}
	if m := tx.HeldMode(lock.StoreName(99)); m != lock.NL {
		t.Fatalf("HeldMode(unheld) = %v, want NL", m)
	}
	if tx.CountRowLock(1) != 1 || tx.CountRowLock(1) != 2 {
		t.Fatal("row lock counting wrong")
	}
	if tx.CountRowLock(2) != 1 {
		t.Fatal("per-store counting not isolated")
	}
	if _, ok := tx.Escalated(1); ok {
		t.Fatal("escalated before marking")
	}
	tx.MarkEscalated(1, lock.X)
	if mode, ok := tx.Escalated(1); !ok || mode != lock.X {
		t.Fatalf("escalated = %v, %v", mode, ok)
	}
	_ = m.Commit(tx)
}

func TestSnapshot(t *testing.T) {
	m := NewManager(Options{})
	t1 := m.Begin()
	t1.RecordLog(10)
	t2 := m.Begin()
	t2.RecordLog(20)
	t2.SetUndoNext(15)
	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	byID := map[uint64]struct {
		last, undo uint64
	}{}
	for _, s := range snap {
		byID[s.TxID] = struct{ last, undo uint64 }{uint64(s.LastLSN), uint64(s.UndoNext)}
	}
	if got := byID[t1.ID()]; got.last != 10 || got.undo != 10 {
		t.Fatalf("t1 snapshot = %+v", got)
	}
	if got := byID[t2.ID()]; got.last != 20 || got.undo != 15 {
		t.Fatalf("t2 snapshot = %+v", got)
	}
	_ = m.Commit(t1)
	_ = m.Commit(t2)
}

func TestLookupAndRestore(t *testing.T) {
	m := NewManager(Options{CachedOldest: true})
	t1 := m.Begin()
	if m.Lookup(t1.ID()) != t1 {
		t.Fatal("Lookup missed active tx")
	}
	if m.Lookup(9999) != nil {
		t.Fatal("Lookup found ghost")
	}
	// Restore (recovery path).
	loser := m.Restore(500, 77, 66)
	if loser.ID() != 500 || loser.LastLSN() != 77 || loser.UndoNext() != 66 {
		t.Fatalf("restored = %+v", loser)
	}
	if m.Lookup(500) != loser {
		t.Fatal("restored tx not in table")
	}
	// ID floor prevents reuse.
	m.NextIDFloor(500)
	t2 := m.Begin()
	if t2.ID() <= 500 {
		t.Fatalf("new id %d not above floor", t2.ID())
	}
	_ = m.Commit(t1)
	_ = m.Commit(t2)
	_ = m.Abort(loser)
}

func TestConcurrentBeginCommit(t *testing.T) {
	m := NewManager(Options{CachedOldest: true})
	var wg sync.WaitGroup
	ids := make(chan uint64, 8*200)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tx := m.Begin()
				ids <- tx.ID()
				_ = m.Oldest()
				if err := m.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[uint64]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if m.ActiveCount() != 0 {
		t.Fatalf("active = %d after all commits", m.ActiveCount())
	}
	if m.Oldest() != 0 {
		t.Fatalf("oldest = %d after all commits", m.Oldest())
	}
}

func TestStateString(t *testing.T) {
	if StateActive.String() != "active" || StateCommitted.String() != "committed" ||
		StateAborted.String() != "aborted" || State(9).String() == "" {
		t.Error("state strings")
	}
}

// TestTreeCursorPerRoot: a transaction keeps one B-tree cursor per tree
// root, hands the same one back for the same root, starts with none, and
// when it touches more trees than it has room for forgets the one it
// claimed longest ago — never handing one tree's memory to another.
func TestTreeCursorPerRoot(t *testing.T) {
	m := NewManager(Options{})
	tx := m.Begin()
	var empty btree.Cursor
	first := tx.TreeCursor(100)
	if *first != empty {
		t.Fatal("a new transaction's cursor remembers something")
	}
	if tx.TreeCursor(100) != first {
		t.Fatal("same root, different cursor")
	}
	seen := map[*btree.Cursor]bool{first: true}
	for root := page.ID(101); root < 108; root++ {
		c := tx.TreeCursor(root)
		if seen[c] {
			t.Fatalf("root %v shares a cursor with another tree", root)
		}
		seen[c] = true
	}
	if tx.TreeCursor(100) != first {
		t.Fatal("eight trees do not fit")
	}
	// A ninth tree takes the oldest slot, and root 100 starts over.
	if c := tx.TreeCursor(108); c != first {
		t.Fatal("the ninth tree did not replace the oldest cursor")
	}
	if c := tx.TreeCursor(100); c == first || *c != empty {
		t.Fatal("a forgotten tree's cursor came back, or came back remembering")
	}
	if *m.Begin().TreeCursor(100) != empty {
		t.Fatal("a cursor outlived its transaction")
	}
}

// TestEndRecyclesOwnedMemory: what a transaction's owner borrowed — lock
// list, private lock cache, counts, row-lock tallies, escalations, arena —
// goes back to the manager when the transaction ends, and every Begin
// starts from none of it, whether it got fresh memory or recycled memory.
func TestEndRecyclesOwnedMemory(t *testing.T) {
	m := NewManager(Options{})
	n := lock.RowName(1, page.RID{Page: 2, Slot: 3})
	for i := 0; i < 4; i++ {
		tx := m.Begin()
		if len(tx.Locks()) != 0 || tx.HeldMode(n) != lock.NL || tx.LockAcquires() != 0 || tx.LockCacheHits() != 0 {
			t.Fatalf("begin %d: starts with locks %v, mode %v, %d acquires, %d hits",
				i, tx.Locks(), tx.HeldMode(n), tx.LockAcquires(), tx.LockCacheHits())
		}
		if _, ok := tx.Escalated(1); ok || tx.CountRowLock(1) != 1 {
			t.Fatalf("begin %d: starts with another transaction's row locks", i)
		}
		if b := tx.Arena().Make(8); len(b) != 0 || cap(b) != 8 {
			t.Fatalf("begin %d: arena slice len %d cap %d, want 0 and 8", i, len(b), cap(b))
		}
		tx.AddLock(n, lock.X)
		tx.CountAcquire()
		tx.HitLockCache()
		tx.MarkEscalated(1, lock.X)
		tx.Arena().Copy(make([]byte, 100))
		var err error
		if i%2 == 0 {
			err = m.Commit(tx)
		} else {
			err = m.Abort(tx)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
