package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/tx"
	"repro/internal/wal"
)

// newSnapshotEngine builds a final-stage engine with multiversion
// snapshot reads enabled.
func newSnapshotEngine(t *testing.T) (*Engine, *disk.MemVolume, *wal.SegmentStore) {
	t.Helper()
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 256
	cfg.Snapshot = true
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, vol, logStore
}

// createSnapIndex makes a committed index for snapshot tests.
func createSnapIndex(t *testing.T, e *Engine) *Index {
	t.Helper()
	ct, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := e.CreateIndex(ct)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ct); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestSnapshotLockBypass is the manager-bypass invariant: a pure-View
// workload leaves the lock table completely untouched while the mvcc
// counters climb, and a snapshot pinned before a burst of updates keeps
// reading the old values through the version chains.
func TestSnapshotLockBypass(t *testing.T) {
	e, _, _ := newSnapshotEngine(t)
	ctx := context.Background()
	ix := createSnapIndex(t, e)
	store := createTable(t, e)

	const n = 40
	var rids [n]page.RID
	w, _ := e.Begin()
	for i := 0; i < n; i++ {
		if err := e.IndexInsert(w, ix, []byte(fmt.Sprintf("k%03d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
		rid, err := e.HeapInsertCtx(context.Background(), w, store, []byte("old"))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}

	// Pin a snapshot, then update everything so reads must walk chains.
	old, err := e.BeginSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := e.Begin()
	for i := 0; i < n; i++ {
		if err := e.IndexUpdateCtx(context.Background(), w2, ix, []byte(fmt.Sprintf("k%03d", i)), []byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := e.HeapUpdateCtx(context.Background(), w2, store, rids[i], []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(w2); err != nil {
		t.Fatal(err)
	}

	base := e.Stats().Lock.Acquires

	// The held-open old snapshot resolves everything to the pre-update
	// values.
	for i := 0; i < n; i++ {
		v, ok, err := e.IndexLookupCtx(ctx, old, ix, []byte(fmt.Sprintf("k%03d", i)))
		if err != nil || !ok || string(v) != "old" {
			t.Fatalf("old snapshot lookup k%03d = %q, %v, %v; want old", i, v, ok, err)
		}
		hv, err := e.HeapReadCtx(ctx, old, store, rids[i])
		if err != nil || string(hv) != "old" {
			t.Fatalf("old snapshot heap read %v = %q, %v; want old", rids[i], hv, err)
		}
	}
	seen := 0
	if err := e.IndexScanCtx(ctx, old, ix, nil, nil, func(k, v []byte) bool {
		if string(v) != "old" {
			t.Errorf("old snapshot scan %q = %q, want old", k, v)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("old snapshot scan saw %d keys, want %d", seen, n)
	}
	if err := e.CommitReadOnly(ctx, old); err != nil {
		t.Fatal(err)
	}

	// A fresh view sees the new values — still without locks.
	if err := e.RunViewCtx(ctx, RetryPolicy{}, func(vt *tx.Tx) error {
		v, ok, err := e.IndexLookupCtx(ctx, vt, ix, []byte("k000"))
		if err != nil || !ok || string(v) != "new" {
			return fmt.Errorf("view lookup = %q, %v, %v; want new", v, ok, err)
		}
		got := 0
		return e.HeapScanCtx(ctx, vt, store, func(rid page.RID, rec []byte) bool {
			got++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Lock.Acquires != base {
		t.Fatalf("snapshot reads acquired locks: %d -> %d", base, st.Lock.Acquires)
	}
	m := st.Mvcc
	if m.SnapshotReads == 0 || m.SnapshotScans == 0 || m.ChainWalks == 0 {
		t.Fatalf("mvcc counters flat: %+v", m)
	}
	if m.VersionsInstalled == 0 {
		t.Fatalf("writers installed no versions: %+v", m)
	}
}

// TestSnapshotWriteRejected: snapshot transactions hold no locks, so
// every write path must refuse them outright.
func TestSnapshotWriteRejected(t *testing.T) {
	e, _, _ := newSnapshotEngine(t)
	ctx := context.Background()
	ix := createSnapIndex(t, e)
	store := createTable(t, e)

	s, err := e.BeginSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HeapInsertCtx(ctx, s, store, []byte("x")); !errors.Is(err, ErrSnapshotWrite) {
		t.Fatalf("HeapInsert on snapshot = %v, want ErrSnapshotWrite", err)
	}
	if err := e.IndexInsertCtx(ctx, s, ix, []byte("k"), []byte("v")); !errors.Is(err, ErrSnapshotWrite) {
		t.Fatalf("IndexInsert on snapshot = %v, want ErrSnapshotWrite", err)
	}
	if _, _, err := e.IndexLookupForUpdateCtx(ctx, s, ix, []byte("k")); !errors.Is(err, ErrSnapshotWrite) {
		t.Fatalf("IndexLookupForUpdate on snapshot = %v, want ErrSnapshotWrite", err)
	}
	if err := e.CommitReadOnly(ctx, s); err != nil {
		t.Fatal(err)
	}
}

func putBalance(b uint64) []byte {
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], b)
	return v[:]
}

// TestSnapshotIndexScanBankInvariant runs as-of index scans against a
// storm of transfers: every scan must see all accounts and a constant
// total balance, even mid-transfer. Run with -race.
func TestSnapshotIndexScanBankInvariant(t *testing.T) {
	e, _, _ := newSnapshotEngine(t)
	ctx := context.Background()
	ix := createSnapIndex(t, e)

	const accounts = 32
	const balance = 1000
	w, _ := e.Begin()
	for i := 0; i < accounts; i++ {
		if err := e.IndexInsert(w, ix, []byte(fmt.Sprintf("acct%03d", i)), putBalance(balance)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var transfers atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				a, b := (g*7+i)%accounts, (g*11+i*3)%accounts
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a // lock in key order: transfers never deadlock each other
				}
				err := e.RunCtx(ctx, RetryPolicy{}, func(wt *tx.Tx) error {
					ka, kb := []byte(fmt.Sprintf("acct%03d", a)), []byte(fmt.Sprintf("acct%03d", b))
					va, ok, err := e.IndexLookupForUpdateCtx(ctx, wt, ix, ka)
					if err != nil || !ok {
						return fmt.Errorf("lookup %s: %v %v", ka, ok, err)
					}
					vb, ok, err := e.IndexLookupForUpdateCtx(ctx, wt, ix, kb)
					if err != nil || !ok {
						return fmt.Errorf("lookup %s: %v %v", kb, ok, err)
					}
					amt := uint64(1 + i%5)
					ba, bb := binary.BigEndian.Uint64(va), binary.BigEndian.Uint64(vb)
					if ba < amt {
						return nil // insufficient funds: commit a no-op
					}
					if err := e.IndexUpdateCtx(ctx, wt, ix, ka, putBalance(ba-amt)); err != nil {
						return err
					}
					return e.IndexUpdateCtx(ctx, wt, ix, kb, putBalance(bb+amt))
				}, nil)
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
				transfers.Add(1)
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()

	scans := 0
	for {
		var sum uint64
		seen := 0
		err := e.RunViewCtx(ctx, RetryPolicy{}, func(vt *tx.Tx) error {
			sum, seen = 0, 0
			return e.IndexScanCtx(ctx, vt, ix, nil, nil, func(k, v []byte) bool {
				sum += binary.BigEndian.Uint64(v)
				seen++
				return true
			})
		})
		if err != nil {
			t.Fatalf("view scan: %v", err)
		}
		if seen != accounts || sum != accounts*balance {
			t.Fatalf("inconsistent snapshot: %d accounts, sum %d (want %d x %d)", seen, sum, accounts, balance)
		}
		scans++
		select {
		case <-done:
			t.Logf("%d consistent scans over %d transfers", scans, transfers.Load())
			return
		default:
		}
	}
}

// TestSnapshotHeapScanBankInvariant is the heap-table twin of the index
// bank test: full-table as-of scans stay consistent under row updates.
func TestSnapshotHeapScanBankInvariant(t *testing.T) {
	e, _, _ := newSnapshotEngine(t)
	ctx := context.Background()
	store := createTable(t, e)

	const accounts = 24
	const balance = 500
	rids := make([]page.RID, accounts)
	w, _ := e.Begin()
	for i := range rids {
		rid, err := e.HeapInsertCtx(context.Background(), w, store, putBalance(balance))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}

	// One writer goroutine (heap reads S-lock then upgrade to X on
	// update; a single writer keeps the storm deadlock-free while the
	// snapshot scans race it).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			a, b := (5+i)%accounts, (13+i*7)%accounts
			if a == b {
				continue
			}
			err := e.RunCtx(ctx, RetryPolicy{}, func(wt *tx.Tx) error {
				va, err := e.HeapReadCtx(ctx, wt, store, rids[a])
				if err != nil {
					return err
				}
				vb, err := e.HeapReadCtx(ctx, wt, store, rids[b])
				if err != nil {
					return err
				}
				amt := uint64(1 + i%3)
				ba, bb := binary.BigEndian.Uint64(va), binary.BigEndian.Uint64(vb)
				if ba < amt {
					return nil
				}
				if err := e.HeapUpdateCtx(ctx, wt, store, rids[a], putBalance(ba-amt)); err != nil {
					return err
				}
				return e.HeapUpdateCtx(ctx, wt, store, rids[b], putBalance(bb+amt))
			}, nil)
			if err != nil {
				t.Errorf("transfer: %v", err)
				return
			}
		}
	}()

	for scans := 0; ; scans++ {
		var sum uint64
		seen := 0
		err := e.RunViewCtx(ctx, RetryPolicy{}, func(vt *tx.Tx) error {
			sum, seen = 0, 0
			return e.HeapScanCtx(ctx, vt, store, func(rid page.RID, rec []byte) bool {
				sum += binary.BigEndian.Uint64(rec)
				seen++
				return true
			})
		})
		if err != nil {
			t.Fatalf("view scan: %v", err)
		}
		if seen != accounts || sum != accounts*balance {
			t.Fatalf("inconsistent snapshot: %d rows, sum %d (want %d x %d)", seen, sum, accounts, balance)
		}
		select {
		case <-done:
			t.Logf("%d consistent heap scans", scans+1)
			return
		default:
		}
	}
}

// TestSnapshotGCRespectsHeldSnapshot: while an old snapshot is pinned,
// checkpoint GC must not reclaim the versions it may read; releasing it
// lets the next checkpoint drain them.
func TestSnapshotGCRespectsHeldSnapshot(t *testing.T) {
	e, _, _ := newSnapshotEngine(t)
	ctx := context.Background()
	ix := createSnapIndex(t, e)

	const n = 10
	w, _ := e.Begin()
	for i := 0; i < n; i++ {
		if err := e.IndexInsert(w, ix, []byte(fmt.Sprintf("g%02d", i)), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}

	old, err := e.BeginSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		w, _ := e.Begin()
		for i := 0; i < n; i++ {
			if err := e.IndexUpdateCtx(context.Background(), w, ix, []byte(fmt.Sprintf("g%02d", i)), []byte(fmt.Sprintf("v%d", round))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Commit(w); err != nil {
			t.Fatal(err)
		}
	}

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats().Mvcc
	// GC may drop entries committed below the pinned snapshot (their
	// before-images can never be consumed again), but every before-image
	// stamped above it — the 3 update rounds — must survive.
	if st.LiveVersions < 3*n {
		t.Fatalf("GC reclaimed versions a pinned snapshot still needs: %d live, want >= %d", st.LiveVersions, 3*n)
	}
	reclaimedHeld := st.GCReclaimed
	// The pinned snapshot still resolves the originals.
	for i := 0; i < n; i++ {
		v, ok, err := e.IndexLookupCtx(ctx, old, ix, []byte(fmt.Sprintf("g%02d", i)))
		if err != nil || !ok || string(v) != "v0" {
			t.Fatalf("held snapshot g%02d = %q, %v, %v; want v0", i, v, ok, err)
		}
	}
	if err := e.CommitReadOnly(ctx, old); err != nil {
		t.Fatal(err)
	}

	// Nudge the durable horizon past the last round's stamps, then GC.
	w2, _ := e.Begin()
	if err := e.IndexUpdateCtx(context.Background(), w2, ix, []byte("g00"), []byte("nudge")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(w2); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats().Mvcc
	if st.GCReclaimed <= reclaimedHeld {
		t.Fatalf("GC reclaimed nothing after the snapshot was released: %+v", st)
	}
	if st.LiveVersions >= 3*n {
		t.Fatalf("update rounds not drained after release: %d live", st.LiveVersions)
	}
	// A fresh view reads the final values through whatever survived.
	if err := e.RunViewCtx(ctx, RetryPolicy{}, func(vt *tx.Tx) error {
		v, ok, err := e.IndexLookupCtx(ctx, vt, ix, []byte("g05"))
		if err != nil || !ok || string(v) != "v3" {
			return fmt.Errorf("fresh view g05 = %q, %v, %v; want v3", v, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("reclaimed %d (held: %d), live %d", st.GCReclaimed, reclaimedHeld, st.LiveVersions)
}

// TestSnapshotRecoveryIgnoresVersions: versions live only in memory, so
// a crash with stamped and in-flight versions recovers the plain ARIES
// image — committed updates in, losers rolled back, version store empty.
func TestSnapshotRecoveryIgnoresVersions(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 256
	cfg.Snapshot = true
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}

	store := createTable(t, e)
	ct, _ := e.Begin()
	ix, err := e.CreateIndex(ct)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ct); err != nil {
		t.Fatal(err)
	}

	w, _ := e.Begin()
	rid, err := e.HeapInsertCtx(context.Background(), w, store, []byte("base"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IndexInsert(w, ix, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}

	// Committed update: installs stamped versions.
	w2, _ := e.Begin()
	if err := e.HeapUpdateCtx(context.Background(), w2, store, rid, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := e.IndexUpdateCtx(context.Background(), w2, ix, []byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(w2); err != nil {
		t.Fatal(err)
	}

	// In-flight loser: installs versions that never get a commit stamp.
	loser, _ := e.Begin()
	if err := e.HeapUpdateCtx(context.Background(), loser, store, rid, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := e.IndexUpdateCtx(context.Background(), loser, ix, []byte("k"), []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Mvcc.VersionsInstalled == 0 {
		t.Fatal("setup installed no versions")
	}
	// Crash: abandon e without closing it.

	e2, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	t.Cleanup(func() { e2.Close() })
	ix2, err := e2.OpenIndex(ix.Store())
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, rt *tx.Tx) {
		hv, err := e2.HeapReadCtx(context.Background(), rt, store, rid)
		if err != nil || string(hv) != "committed" {
			t.Fatalf("%s heap read = %q, %v; want committed", label, hv, err)
		}
		v, ok, err := e2.IndexLookupCtx(context.Background(), rt, ix2, []byte("k"))
		if err != nil || !ok || string(v) != "v2" {
			t.Fatalf("%s index lookup = %q, %v, %v; want v2", label, v, ok, err)
		}
	}
	rt, _ := e2.Begin()
	check("locked", rt)
	if err := e2.Commit(rt); err != nil {
		t.Fatal(err)
	}
	if err := e2.RunViewCtx(context.Background(), RetryPolicy{}, func(vt *tx.Tx) error {
		check("snapshot", vt)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Recovery replays and rolls back without manufacturing versions.
	if got := e2.Stats().Mvcc.VersionsInstalled; got != 0 {
		t.Fatalf("recovery installed %d versions; the recovered image must stand alone", got)
	}
}

// TestViewNeverDeadlockVictim: snapshot views hold no locks, so a
// deadlock storm between writers can never pick one as a victim, and
// each view closure runs exactly once (Mvcc.Snapshots counts begins —
// it must equal the number of View calls).
func TestViewNeverDeadlockVictim(t *testing.T) {
	e, _, _ := newSnapshotEngine(t)
	ctx := context.Background()
	ix := createSnapIndex(t, e)

	w, _ := e.Begin()
	for i := 0; i < 8; i++ {
		if err := e.IndexInsert(w, ix, []byte(fmt.Sprintf("d%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}
	baseSnaps := e.Stats().Mvcc.Snapshots

	// Writers lock key pairs in opposite orders: a reliable deadlock storm.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				a, b := fmt.Sprintf("d%d", i%8), fmt.Sprintf("d%d", (i+1)%8)
				if g%2 == 1 {
					a, b = b, a
				}
				_ = e.RunCtx(ctx, RetryPolicy{}, func(wt *tx.Tx) error {
					if _, _, err := e.IndexLookupForUpdateCtx(ctx, wt, ix, []byte(a)); err != nil {
						return err
					}
					// Hold the first lock long enough for the opposite-order
					// writer to grab the second: a real deadlock storm.
					time.Sleep(50 * time.Microsecond)
					if _, _, err := e.IndexLookupForUpdateCtx(ctx, wt, ix, []byte(b)); err != nil {
						return err
					}
					return e.IndexUpdateCtx(ctx, wt, ix, []byte(a), []byte("w"))
				}, nil)
			}
		}(g)
	}

	const viewCalls = 200
	var runs atomic.Uint64
	var viewErrs atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < viewCalls/4; i++ {
				err := e.RunViewCtx(ctx, RetryPolicy{}, func(vt *tx.Tx) error {
					runs.Add(1)
					return e.IndexScanCtx(ctx, vt, ix, nil, nil, func(k, v []byte) bool { return true })
				})
				if err != nil {
					viewErrs.Add(1)
					if errors.Is(err, lock.ErrDeadlock) {
						t.Errorf("view was a deadlock victim: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()

	if viewErrs.Load() != 0 {
		t.Fatalf("%d view errors under the writer storm", viewErrs.Load())
	}
	if runs.Load() != viewCalls {
		t.Fatalf("view closures ran %d times for %d calls (snapshot views must run exactly once)", runs.Load(), viewCalls)
	}
	if got := e.Stats().Mvcc.Snapshots - baseSnaps; got != viewCalls {
		t.Fatalf("%d snapshots begun for %d view calls", got, viewCalls)
	}
	t.Logf("writer deadlocks during storm: %d", e.Stats().Lock.Deadlocks)
}

// TestSnapshotScanSeesDeletedKeys: a key deleted after the snapshot was
// pinned must still appear in as-of scans, resurrected from its version
// chain (the tree no longer carries it).
func TestSnapshotScanSeesDeletedKeys(t *testing.T) {
	e, _, _ := newSnapshotEngine(t)
	ctx := context.Background()
	ix := createSnapIndex(t, e)

	const n = 300 // spans several leaves and the scan's merge chunks
	w, _ := e.Begin()
	for i := 0; i < n; i++ {
		if err := e.IndexInsert(w, ix, []byte(fmt.Sprintf("s%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}

	old, err := e.BeginSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Delete every third key and update every fifth.
	w2, _ := e.Begin()
	for i := 0; i < n; i += 3 {
		if _, err := e.IndexDeleteCtx(context.Background(), w2, ix, []byte(fmt.Sprintf("s%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i += 5 {
		if i%3 == 0 {
			continue
		}
		if err := e.IndexUpdateCtx(context.Background(), w2, ix, []byte(fmt.Sprintf("s%04d", i)), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(w2); err != nil {
		t.Fatal(err)
	}

	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		want[fmt.Sprintf("s%04d", i)] = true
	}
	var prev []byte
	err = e.IndexScanCtx(ctx, old, ix, nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Errorf("scan order violated: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		if !want[string(k)] {
			t.Errorf("unexpected or duplicate key %q", k)
		}
		delete(want, string(k))
		if string(v) != "v" {
			t.Errorf("key %q = %q, want pre-update value v", k, v)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("as-of scan missed %d keys (e.g. deleted ones must resurrect from chains)", len(want))
	}
	if err := e.CommitReadOnly(ctx, old); err != nil {
		t.Fatal(err)
	}

	// A fresh view agrees with the tree's current state.
	got := 0
	if err := e.RunViewCtx(ctx, RetryPolicy{}, func(vt *tx.Tx) error {
		got = 0
		return e.IndexScanCtx(ctx, vt, ix, nil, nil, func(k, v []byte) bool { got++; return true })
	}); err != nil {
		t.Fatal(err)
	}
	wantLive := 0
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			wantLive++
		}
	}
	if got != wantLive {
		t.Fatalf("fresh view saw %d keys, want %d", got, wantLive)
	}
}
