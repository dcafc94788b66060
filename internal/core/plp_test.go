package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/wal"
)

// plpKey builds a partitioned-index key: 4-byte big-endian routing key
// prefix followed by a discriminator.
func plpKey(rk uint32, i int) []byte {
	k := make([]byte, 4, 12)
	binary.BigEndian.PutUint32(k, rk)
	return append(k, []byte(fmt.Sprintf("%08d", i))...)
}

// TestPlpMapCrashRecovery pins the catalog contract: the partition map —
// segment roots and ownership bounds, including a committed migration —
// survives a crash byte-identically. The map lives in one heap record,
// so ordinary ARIES redo must rebuild exactly what was persisted; a
// reopened engine then serves every key from the same segment forest.
func TestPlpMapCrashRecovery(t *testing.T) {
	cfg := StageConfig(StageFinal)
	cfg.PLP = true
	cfg.DoraPartitions = 2
	cfg.DoraKeys = 4
	cfg.PlpRebalanceEvery = -1 // deterministic migrations only
	vol := disk.NewMem(0)
	logStore := wal.NewMemSegmentStore(0)
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}

	setup, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := e.CreatePartitionedIndex(setup)
	if err != nil {
		t.Fatal(err)
	}
	const perKey = 8
	for rk := uint32(1); rk <= 4; rk++ {
		for i := 0; i < perKey; i++ {
			v := []byte(fmt.Sprintf("v-%d-%d", rk, i))
			if err := e.IndexInsert(setup, ix, plpKey(rk, i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}

	// Deterministic boundary migration: partition 0 sheds routing key 2
	// to partition 1 ([1 3 5] -> [1 2 5]).
	m := e.PlpMap()
	bounds := m.Bounds()
	bounds[1]--
	next, err := m.WithBounds(bounds)
	if err != nil {
		t.Fatal(err)
	}
	e.migrate(0, 1, next)
	m = e.PlpMap()
	if m.Version() != next.Version() {
		t.Fatalf("migration did not flip: map v%d, want v%d", m.Version(), next.Version())
	}
	if got := m.Owner(2); got != 1 {
		t.Fatalf("Owner(2) = %d after migration, want 1", got)
	}
	enc := m.Encode()

	e.Crash()
	e2, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()

	m2 := e2.PlpMap()
	if m2 == nil {
		t.Fatal("reopened engine has no partition map")
	}
	if !bytes.Equal(m2.Encode(), enc) {
		t.Fatalf("recovered map differs:\n got %x\nwant %x", m2.Encode(), enc)
	}

	// The recovered map must still route every key to a live segment.
	tables := m2.Tables()
	if len(tables) != 1 {
		t.Fatalf("recovered map has %d tables, want 1", len(tables))
	}
	ix2 := e2.plpForest(tables[0], m2.Roots(tables[0]))
	check, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for rk := uint32(1); rk <= 4; rk++ {
		for i := 0; i < perKey; i++ {
			got, ok, err := e2.IndexLookup(check, ix2, plpKey(rk, i))
			if err != nil || !ok {
				t.Fatalf("lookup rk=%d i=%d after recovery: ok=%v err=%v", rk, i, ok, err)
			}
			if want := fmt.Sprintf("v-%d-%d", rk, i); string(got) != want {
				t.Fatalf("lookup rk=%d i=%d = %q, want %q", rk, i, got, want)
			}
		}
	}
	if err := e2.Commit(check); err != nil {
		t.Fatal(err)
	}
	if n, err := ix2.Verify(); err != nil {
		t.Fatalf("forest verify after recovery: %v", err)
	} else if want := 4 * perKey; n != want {
		t.Fatalf("forest holds %d keys after recovery, want %d", n, want)
	}
}
