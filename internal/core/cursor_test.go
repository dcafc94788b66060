package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/disk"
	"repro/internal/pageop"
	"repro/internal/wal"
)

// TestCursorAcrossForestSegments: a transaction's B-tree cursors are
// kept per tree root, so on a PLP forest — one store, one tree per
// routing key — working on two segments in turn never takes one
// segment's leaf for the other's: each segment's run of inserts hits its
// own cursor, and every key lands in, and is read back from, its segment.
func TestCursorAcrossForestSegments(t *testing.T) {
	cfg := StageConfig(StageFinal)
	cfg.PLP = true
	cfg.DoraPartitions = 2
	cfg.DoraKeys = 4
	e, err := Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := e.CreatePartitionedIndex(tx)
	if err != nil {
		t.Fatal(err)
	}
	const perKey = 300 // a few leaves per segment
	value := make([]byte, 100)
	before := e.Stats().Btree
	for i := 0; i < perKey; i++ {
		for rk := uint32(1); rk <= 4; rk++ {
			if err := e.IndexInsert(tx, ix, plpKey(rk, i), value); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < perKey; i++ {
		for rk := uint32(4); rk >= 1; rk-- {
			if _, ok, err := e.IndexLookupCtx(context.Background(), tx, ix, plpKey(rk, i)); err != nil || !ok {
				t.Fatalf("lookup rk=%d i=%d: %v, %v", rk, i, ok, err)
			}
		}
	}
	if err := e.Commit(tx); err != nil {
		t.Fatal(err)
	}
	after := e.Stats().Btree
	// Interleaved as they are, each segment's operations are ascending:
	// all but the first insert into each segment, and all but the first
	// lookup after the inserts end at the other end, come off its cursor.
	if hits, ops := after.CursorHits-before.CursorHits, uint64(2*4*perKey); hits < ops-2*4 {
		t.Errorf("%d cursor hits for %d ascending operations on four segments", hits, ops)
	}
	if n, err := ix.Verify(); err != nil || n != 4*perKey {
		t.Fatalf("Verify = %d, %v; want %d keys, each in its own segment", n, err, 4*perKey)
	}
}

// TestSplitCrashPrefixes dissects one leaf split that moves nothing: it
// checks that the log holds it as three small records — format and header
// of the fresh right node, one header update of the left node — followed
// by the parent's separator, and then cuts the log after every record of
// the transaction that caused it, recovers each prefix on the volume as
// it was before that transaction, and demands a sound index with every
// committed key in it and nothing else.
func TestSplitCrashPrefixes(t *testing.T) {
	cfg := StageConfig(StageFinal)
	cfg.Frames = 256
	vol, logStore := disk.NewMem(0), wal.NewMemSegmentStore(0)
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup, _ := e.Begin()
	idx, err := e.CreateIndex(setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	value := make([]byte, 100)
	insert := func(i int) uint64 {
		t.Helper()
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.IndexInsert(tx, idx, key(i), value); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
		return tx.ID()
	}
	// Ascending single-insert transactions until the tree has grown a
	// level and its rightmost leaf has split at the end once (which makes
	// it a leaf with a high key of the usual length); then up to the
	// brink of the next such split.
	n := 0
	splits := func() uint64 { return e.Stats().Btree.InsertPointSplits }
	for splits() < 2 {
		insert(n)
		n++
	}
	var victim uint64
	var v0 *disk.MemVolume
	var from wal.LSN
	for target := splits() + 1; splits() < target; n++ {
		// Any of these may be the one: remember where it starts.
		if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
			t.Fatal(err)
		}
		if err := e.Pool().FlushAll(); err != nil {
			t.Fatal(err)
		}
		v0, from = vol.Clone(), e.Log().CurLSN()
		victim = insert(n)
	}
	if err := e.Log().Flush(e.Log().CurLSN()); err != nil {
		t.Fatal(err)
	}
	store := idx.Store()
	e.CrashHard()

	// The victim's records, and where each ends.
	var kinds []pageop.Kind
	var cuts []int64
	var splitBytes int64
	sc := wal.NewScanner(logStore, from)
	for {
		start := sc.End()
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.TxID != victim {
			continue
		}
		cuts = append(cuts, sc.End())
		if rec.Type == wal.RecUpdate {
			op, err := pageop.Decode(rec.Redo)
			if err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, op.Kind)
			if len(kinds) <= 4 {
				splitBytes += sc.End() - start
			}
		}
	}
	want := []pageop.Kind{
		pageop.KindFormat, pageop.KindInsertAt, // the fresh right node
		pageop.KindPatch,    // the left node's header: right pointer and high key
		pageop.KindInsertAt, // the separator in the parent
		pageop.KindInsertAt, // the key itself, into the right node
	}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("the split transaction logged %v, want %v", kinds, want)
	}
	if splitBytes > 400 {
		t.Errorf("a split that moves nothing took %d log bytes, want about 300", splitBytes)
	}
	t.Logf("split logged in %d bytes; %d prefixes to recover", splitBytes, len(cuts))

	for i, cut := range cuts {
		committed := n - 1 // everything but the victim's key ...
		if i == len(cuts)-1 {
			committed = n // ... unless its commit record made it
		}
		ls := logStore.Clone()
		if err := ls.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		e2, err := Open(v0.Clone(), ls, cfg)
		if err != nil {
			t.Fatalf("prefix %d: recovery: %v", i, err)
		}
		ix2, err := e2.OpenIndex(store)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ix2.Verify(); err != nil || got != committed {
			t.Fatalf("prefix %d (%d bytes): Verify = %d keys, %v; want %d", i, cut, got, err, committed)
		}
		tx, _ := e2.Begin()
		for k := 0; k < n; k++ {
			_, ok, err := e2.IndexLookupCtx(context.Background(), tx, ix2, key(k))
			if err != nil || ok != (k < committed) {
				t.Fatalf("prefix %d: key %d found=%v, %v; want %v", i, k, ok, err, k < committed)
			}
		}
		// The half-done split must not be in the way of the next insert.
		if err := e2.IndexInsert(tx, ix2, key(n+1), value); err != nil {
			t.Fatalf("prefix %d: insert after recovery: %v", i, err)
		}
		if err := e2.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if got, err := ix2.Verify(); err != nil || got != committed+1 {
			t.Fatalf("prefix %d: Verify after one more insert = %d keys, %v", i, got, err)
		}
		e2.Close()
	}
}
