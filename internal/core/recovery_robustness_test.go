package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/sync2"
	"repro/internal/wal"
)

// openOver opens an engine over arbitrary stores with a given log design
// and redo parallelism.
func openOver(t *testing.T, vol disk.Volume, logStore wal.Store, design wal.Design, redoWorkers int) (*Engine, error) {
	t.Helper()
	cfg := StageConfig(StageFinal)
	cfg.Frames = 128
	cfg.LogDesign = design
	cfg.RedoWorkers = redoWorkers
	return Open(vol, logStore, cfg)
}

// buildCrashWorkload drives committed inserts, updates, aborts, an index,
// a mid-stream checkpoint, and two in-flight losers over the given
// stores, then pulls the plug. Returns the heap store, index store, and
// the committed rows a correct recovery must reproduce.
func buildCrashWorkload(t *testing.T, vol disk.Volume, logStore wal.Store, design wal.Design) (store, ixStore uint32, want map[int]string) {
	t.Helper()
	e, err := openOver(t, vol, logStore, design, 1)
	if err != nil {
		t.Fatal(err)
	}
	store = createTable(t, e)
	ct, _ := e.Begin()
	ix, err := e.CreateIndex(ct)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ct); err != nil {
		t.Fatal(err)
	}
	ixStore = ix.Store()

	want = make(map[int]string)
	rids := make(map[int]page.RID)
	for i := 0; i < 80; i++ {
		tx, _ := e.Begin()
		v := fmt.Sprintf("row-%04d", i)
		rid, err := e.HeapInsert(tx, store, []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.IndexInsert(tx, ix, []byte(fmt.Sprintf("k%04d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
		rids[i], want[i] = rid, v
		if i == 40 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Committed updates over earlier rows.
	for i := 0; i < 20; i++ {
		tx, _ := e.Begin()
		v := fmt.Sprintf("upd-%04d", i)
		if err := e.HeapUpdate(tx, store, rids[i], []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	// An aborted transaction: its updates must stay invisible.
	ab, _ := e.Begin()
	if err := e.HeapUpdate(ab, store, rids[30], []byte("aborted")); err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(ab); err != nil {
		t.Fatal(err)
	}
	// Two losers caught mid-flight by the crash, their updates durable in
	// the log but never committed.
	l1, _ := e.Begin()
	l2, _ := e.Begin()
	if err := e.HeapUpdate(l1, store, rids[50], []byte("loser-1")); err != nil {
		t.Fatal(err)
	}
	if err := e.HeapUpdate(l2, store, rids[51], []byte("loser-2")); err != nil {
		t.Fatal(err)
	}
	if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
		t.Fatal(err)
	}
	e.CrashHard()
	return store, ixStore, want
}

// verifyWorkload checks every committed row and the index after recovery.
func verifyWorkload(t *testing.T, e *Engine, store, ixStore uint32, want map[int]string) {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string)
	if err := e.HeapScan(tx, store, func(_ page.RID, rec []byte) bool {
		seen[string(rec)] = string(rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(seen), len(want))
	}
	for _, v := range want {
		if _, ok := seen[v]; !ok {
			t.Fatalf("row %q missing after recovery", v)
		}
	}
	ix, err := e.OpenIndex(ixStore)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ix.Verify(); err != nil || n != 80 {
		t.Fatalf("index Verify = %d keys, %v; want 80, nil", n, err)
	}
	if err := e.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// snapshotVolume reads every page of a closed-over volume.
func snapshotVolume(t *testing.T, v *disk.MemVolume) [][]byte {
	t.Helper()
	n := v.NumPages()
	out := make([][]byte, n)
	for i := uint64(0); i < n; i++ {
		buf := make([]byte, page.Size)
		if err := v.Read(page.ID(i+1), buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf
	}
	return out
}

// TestParallelRedoEquivalence recovers the same crash image serially and
// in parallel, for all three log designs, and demands byte-identical
// volumes afterwards: partitioned redo and sorted undo must be
// observationally indistinguishable from the serial pass.
func TestParallelRedoEquivalence(t *testing.T) {
	for _, d := range []wal.Design{wal.DesignCoupled, wal.DesignDecoupled, wal.DesignConsolidated} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			vol := disk.NewMem(0)
			logStore := wal.NewMemSegmentStore(wal.MinSegmentBytes)
			store, ixStore, want := buildCrashWorkload(t, vol, logStore, d)

			var snaps [][][]byte
			var scanned, replayed []uint64
			for _, workers := range []int{1, 8} {
				v := vol.Clone()
				ls := logStore.Clone()
				e, err := openOver(t, v, ls, d, workers)
				if err != nil {
					t.Fatalf("recovery with %d workers: %v", workers, err)
				}
				rs := e.Stats().Recovery
				if !rs.Ran {
					t.Fatalf("workers=%d: recovery did not run", workers)
				}
				if rs.RedoWorkers != workers {
					t.Fatalf("workers=%d: stats report %d", workers, rs.RedoWorkers)
				}
				verifyWorkload(t, e, store, ixStore, want)
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, snapshotVolume(t, v))
				scanned = append(scanned, rs.RecordsScanned)
				replayed = append(replayed, rs.RecordsReplayed)
			}
			if scanned[0] != scanned[1] || replayed[0] != replayed[1] {
				t.Fatalf("serial scanned/replayed %d/%d, parallel %d/%d",
					scanned[0], replayed[0], scanned[1], replayed[1])
			}
			if len(snaps[0]) != len(snaps[1]) {
				t.Fatalf("volume sizes diverged: %d vs %d pages", len(snaps[0]), len(snaps[1]))
			}
			for i := range snaps[0] {
				if !bytes.Equal(snaps[0][i], snaps[1][i]) {
					t.Fatalf("page %d differs between serial and parallel recovery", i+1)
				}
			}
		})
	}
}

// TestCrashDuringCheckpoint leaves a dangling RecCkptBegin (the crash hit
// between begin and end); recovery must fall back to the last complete
// checkpoint and still reproduce every committed row.
func TestCrashDuringCheckpoint(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(wal.MinSegmentBytes)
	e, err := openOver(t, vol, logStore, wal.DesignConsolidated, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := createTable(t, e)
	var rids []page.RID
	for i := 0; i < 40; i++ {
		tx, _ := e.Begin()
		rid, err := e.HeapInsert(tx, store, []byte(fmt.Sprintf("ck-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, _ := e.Begin()
	rid, err := e.HeapInsert(tx, store, []byte("after-ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// The interrupted checkpoint: begin record durable, end record never
	// written.
	if _, err := e.Log().Insert(&wal.Record{Type: wal.RecCkptBegin}); err != nil {
		t.Fatal(err)
	}
	if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
		t.Fatal(err)
	}
	e.CrashHard()

	e2, err := openOver(t, vol, logStore, wal.DesignConsolidated, 0)
	if err != nil {
		t.Fatalf("recovery over dangling checkpoint begin: %v", err)
	}
	defer e2.Close()
	tx2, _ := e2.Begin()
	for i, r := range rids {
		if got, err := e2.HeapRead(tx2, store, r); err != nil || string(got) != fmt.Sprintf("ck-%d", i) {
			t.Fatalf("row %d = %q, %v", i, got, err)
		}
	}
	if got, err := e2.HeapRead(tx2, store, rid); err != nil || string(got) != "after-ckpt" {
		t.Fatalf("post-checkpoint row = %q, %v", got, err)
	}
	if err := e2.Commit(tx2); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringSegmentRotation models a crash while the log was
// spilling across a segment boundary: a torn region that starts in one
// segment and runs into the (header-only) next. Recovery must clip the
// whole torn span and come up on the durable prefix.
func TestCrashDuringSegmentRotation(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(wal.MinSegmentBytes)
	store, ixStore, want := buildCrashWorkload(t, vol, logStore, wal.DesignConsolidated)

	// Splatter garbage from the durable end across at least one segment
	// boundary — the in-flight rotation write the crash interrupted.
	end := logStore.DurableSize()
	garbage := bytes.Repeat([]byte{0xEE}, int(wal.MinSegmentBytes)+257)
	if err := logStore.WriteAt(garbage, end); err != nil {
		t.Fatal(err)
	}
	if logStore.Size() <= end {
		t.Fatal("garbage did not extend the log")
	}

	e, err := openOver(t, vol, logStore, wal.DesignConsolidated, 0)
	if err != nil {
		t.Fatalf("recovery after torn rotation: %v", err)
	}
	defer e.Close()
	rs := e.Stats().Recovery
	if rs.TornBytesClipped == 0 {
		t.Fatal("no torn bytes reported clipped")
	}
	verifyWorkload(t, e, store, ixStore, want)
}

// TestDoubleCrashDuringUndo crashes, then crashes again *during* the
// first recovery's undo pass (injected log-flush failure), and finally
// recovers for real: the second restart must pick up over the partial
// CLR trail without double-applying compensations.
func TestDoubleCrashDuringUndo(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(wal.MinSegmentBytes)
	store, ixStore, want := buildCrashWorkload(t, vol, logStore, wal.DesignConsolidated)

	// First recovery attempt: the log device dies mid-restart. Every
	// flush from here on fails, so the CLRs from undo (and the recovery
	// checkpoint) can never harden.
	logStore.FailFlushes(0)
	if _, err := openOver(t, vol, logStore, wal.DesignConsolidated, 0); err == nil {
		t.Fatal("recovery succeeded with a dead log device")
	}
	// The machine goes down with it; whatever was not durable is gone.
	logStore.FailFlushes(-1)
	logStore.Crash()

	e, err := openOver(t, vol, logStore, wal.DesignConsolidated, 0)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer e.Close()
	verifyWorkload(t, e, store, ixStore, want)
}

// TestCorruptionBelowHorizonRefusesStartup flips one durable byte in a
// sealed segment: recovery must refuse to start rather than silently
// truncate committed history. A torn tail at the same position in the
// *active* segment is business as usual (covered above) — the difference
// is provable durability.
func TestCorruptionBelowHorizonRefusesStartup(t *testing.T) {
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(wal.MinSegmentBytes)
	e, err := openOver(t, vol, logStore, wal.DesignConsolidated, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := createTable(t, e)
	// Checkpoint early: the master LSN stays in segment 0, and the seal
	// boundary (the horizon) runs well past it.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		tx, _ := e.Begin()
		if _, err := e.HeapInsert(tx, store, bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if _, last := logStore.Segments(); last >= 3 {
			break
		}
	}
	e.CrashHard()

	master, err := logStore.Master()
	if err != nil {
		t.Fatal(err)
	}
	if int64(master) >= wal.MinSegmentBytes {
		t.Fatalf("master %v escaped segment 0; test setup broken", master)
	}
	if int64(logStore.Horizon()) < 2*wal.MinSegmentBytes {
		t.Fatalf("horizon %v too low; no sealed territory above master", logStore.Horizon())
	}
	// Flip a durable byte in sealed segment 1 — above the master (so the
	// tail check walks over it) but below the horizon.
	off := int64(wal.MinSegmentBytes) + 777
	var b [1]byte
	if _, err := logStore.ReadAt(b[:], off); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if err := logStore.WriteAt([]byte{b[0] ^ 0xFF}, off); err != nil {
		t.Fatal(err)
	}

	if _, err := openOver(t, vol, logStore, wal.DesignConsolidated, 0); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("startup over corrupt sealed segment = %v, want wal.ErrCorrupt", err)
	}
}

// TestLoserPatchesRecoverOldValues: the log holds only the bytes an update
// changed, so restart must rebuild whole old values from byte ranges. A
// loser with an equal-length and two length-changing index updates and a
// heap update is crashed (i) before any undo and (ii) between the logical
// undo action of its last record and that action's marker CLR — where
// restart redoes the action and then runs it a second time — on every log
// design, with each index update taking the turn of being last.
func TestLoserPatchesRecoverOldValues(t *testing.T) {
	updates := []struct{ key, old, upd string }{
		{"k-equal", "balance=0000100;ytd=0000;name=BARBARBAR", "balance=0000042;ytd=0017;name=BARBARBAR"},
		{"k-grows", "data:tail", "data:a good deal more than there was:tail"},
		{"k-shrinks", "history|history|history|end", "history|end"},
	}
	const heapOld, heapUpd = "row: quantity=0091 ytd=00000300 dist-info", "row: quantity=0107 ytd=000000301 dist-info"
	for _, d := range []wal.Design{wal.DesignCoupled, wal.DesignDecoupled, wal.DesignConsolidated} {
		for last := range updates {
			for _, midUndo := range []bool{false, true} {
				name := fmt.Sprintf("%v/last=%s/midUndo=%v", d, updates[last].key, midUndo)
				t.Run(name, func(t *testing.T) {
					vol := disk.NewMem(0)
					logStore := wal.NewMemSegmentStore(wal.MinSegmentBytes)
					e, err := openOver(t, vol, logStore, d, 1)
					if err != nil {
						t.Fatal(err)
					}
					store := createTable(t, e)
					setup, _ := e.Begin()
					ix, err := e.CreateIndex(setup)
					if err != nil {
						t.Fatal(err)
					}
					rid, err := e.HeapInsert(setup, store, []byte(heapOld))
					if err != nil {
						t.Fatal(err)
					}
					for _, u := range updates {
						if err := e.IndexInsert(setup, ix, []byte(u.key), []byte(u.old)); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.Commit(setup); err != nil {
						t.Fatal(err)
					}

					loser, _ := e.Begin()
					if err := e.HeapUpdate(loser, store, rid, []byte(heapUpd)); err != nil {
						t.Fatal(err)
					}
					for i := range updates {
						u := updates[(last+1+i)%len(updates)] // updates[last] goes last
						if err := e.IndexUpdate(loser, ix, []byte(u.key), []byte(u.upd)); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
						t.Fatal(err)
					}
					if midUndo {
						rec, err := wal.ReadRecordAt(logStore, loser.LastLSN())
						if err != nil {
							t.Fatal(err)
						}
						if err := e.logicalUndoAction(loser.ID(), rec.Undo); err != nil {
							t.Fatal(err)
						}
						if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
							t.Fatal(err)
						}
					}
					e.CrashHard()

					e2, err := openOver(t, vol, logStore, d, 0)
					if err != nil {
						t.Fatalf("recovery: %v", err)
					}
					defer e2.Close()
					ix2, err := e2.OpenIndex(ix.Store())
					if err != nil {
						t.Fatal(err)
					}
					check, _ := e2.Begin()
					if got, err := e2.HeapRead(check, store, rid); err != nil || string(got) != heapOld {
						t.Errorf("heap row = %q, %v; want %q", got, err, heapOld)
					}
					for _, u := range updates {
						if got, ok, err := e2.IndexLookup(check, ix2, []byte(u.key)); err != nil || !ok || string(got) != u.old {
							t.Errorf("%s = %q, %v, %v; want %q", u.key, got, ok, err, u.old)
						}
					}
					if err := e2.Commit(check); err != nil {
						t.Fatal(err)
					}
					if n, err := ix2.Verify(); err != nil || n != len(updates) {
						t.Errorf("index Verify = %d keys, %v", n, err)
					}
				})
			}
		}
	}
}

// TestOpenRefusesRetiredLogLayout: a log whose update records carry a
// retired payload layout — the fixed-header one (kinds 1–7, whole
// before-images) or the whole-page image (kind 14, free gap included) —
// must not be replayed as if its bytes meant something in the current one.
// Restart meets such a record in redo and refuses with pageop.ErrBadOp.
func TestOpenRefusesRetiredLogLayout(t *testing.T) {
	for name, retired := range map[string]func(rid page.RID) []byte{
		// UpdateAt as the fixed-header layout wrote it: kind 4 | slot u16 |
		// ptype u16 | store u32 | dataLen u32 | oldLen u32 | data | old.
		"fixed header": func(rid page.RID) []byte {
			b := []byte{4}
			b = binary.LittleEndian.AppendUint16(b, rid.Slot)
			b = append(b, make([]byte, 6)...)
			b = binary.LittleEndian.AppendUint32(b, 9)
			b = binary.LittleEndian.AppendUint32(b, 9)
			return append(b, "new valueold value"...)
		},
		// A page image as it was before it left out the free gap: kind 14 |
		// all page.Size bytes.
		"whole-page image": func(rid page.RID) []byte {
			return append([]byte{14}, page.New(rid.Page, page.TypeHeap, 1).Bytes()...)
		},
	} {
		vol := disk.NewMem(0)
		logStore := wal.NewMemSegmentStore(wal.MinSegmentBytes)
		e, err := openOver(t, vol, logStore, wal.DesignConsolidated, 1)
		if err != nil {
			t.Fatal(err)
		}
		store := createTable(t, e)
		tx, _ := e.Begin()
		rid, err := e.HeapInsert(tx, store, []byte("old value"))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Log().Insert(&wal.Record{Type: wal.RecUpdate, TxID: 99, Page: rid.Page, Redo: retired(rid)}); err != nil {
			t.Fatal(err)
		}
		if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
			t.Fatal(err)
		}
		e.CrashHard()
		if _, err := openOver(t, vol, logStore, wal.DesignConsolidated, 0); !errors.Is(err, pageop.ErrBadOp) {
			t.Fatalf("%s: Open over a retired-layout record = %v, want pageop.ErrBadOp", name, err)
		}
	}
}

// TestRejectedOpNeverReachesTheLog: an op the latched page cannot take is
// an error before the log insert — CurLSN does not move and the page keeps
// its bytes — not a record that redo would trip over later.
func TestRejectedOpNeverReachesTheLog(t *testing.T) {
	e, _, _ := newEngine(t, StageFinal)
	store := createTable(t, e)
	tx, _ := e.Begin()
	rid, err := e.HeapInsert(tx, store, []byte("ten bytes!"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.fix(rid.Page, sync2.LatchEX)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), f.Page().Bytes()...)
	cur := e.Log().CurLSN()
	for name, op := range map[string]pageop.Op{
		"range past the record": {Kind: pageop.KindPatch, Slot: rid.Slot, Off: 8, Del: 5, Data: []byte("x")},
		"missing slot":          {Kind: pageop.KindPatch, Slot: rid.Slot + 7, Data: []byte("x")},
		"result does not fit":   {Kind: pageop.KindPatch, Slot: rid.Slot, Off: 10, Data: make([]byte, page.MaxRecordSize-5)},
		"occupied slot":         {Kind: pageop.KindHeapInsert, Slot: rid.Slot, Data: []byte("x")},
	} {
		if err := e.logPhysical(tx.ID(), tx, f, op, pageop.Logical{}, false); err == nil {
			t.Errorf("%s: logged and applied", name)
		}
	}
	if got := e.Log().CurLSN(); got != cur {
		t.Errorf("CurLSN moved from %v to %v over rejected ops", cur, got)
	}
	if !bytes.Equal(before, f.Page().Bytes()) {
		t.Error("a rejected op changed the page")
	}
	e.pool.Unfix(f, sync2.LatchEX)
	if err := e.Commit(tx); err != nil {
		t.Fatal(err)
	}
}
