package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

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

// TestOpenRefusesPlpWithoutKeys: the routing keyspace sizes every PLP
// segment forest, so Open refuses PLP without DoraKeys rather than guess
// it from the partition count — a guess that, below the real keyspace,
// builds forests whose segments hold foreign keys. The refusal starts
// nothing and writes nothing: the same stores then open with DoraKeys.
func TestOpenRefusesPlpWithoutKeys(t *testing.T) {
	vol, logStore := disk.NewMem(0), wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 256
	cfg.PLP = true
	cfg.DoraPartitions = 2
	before, logSize := runtime.NumGoroutine(), logStore.Size()
	if e, err := Open(vol, logStore, cfg); err == nil {
		e.Close()
		t.Fatal("Open with PLP and no DoraKeys succeeded")
	} else if !strings.Contains(err.Error(), "DoraKeys") {
		t.Errorf("refusal %q does not name DoraKeys", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("the refused Open left %d goroutines running", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
	if n := logStore.Size(); n != logSize {
		t.Errorf("the refused Open grew the log %d → %d bytes", logSize, n)
	}
	cfg.DoraKeys = 4
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatalf("Open with DoraKeys after the refusal: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlpMapCrashRecovery pins the catalog contract: the segment catalog
// lives in one heap record, so ordinary ARIES redo rebuilds it after a
// crash. The catalog holds no ownership, so reopening with a different
// partition count only reads it: Open commits no transaction, and the
// reopened engine serves every key from the same segment forest.
func TestPlpMapCrashRecovery(t *testing.T) {
	cfg := StageConfig(StageFinal)
	cfg.PLP = true
	cfg.DoraPartitions = 2
	cfg.DoraKeys = 4
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
	m := e.PlpMap()
	e.Crash()

	cfg.DoraPartitions = 1
	e2, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := e2.Stats().Tx.Commits; n != 0 {
		t.Fatalf("reopening with another partition count committed %d transactions, want 0", n)
	}
	m2 := e2.PlpMap()
	if m2 == nil {
		t.Fatal("reopened engine has no segment catalog")
	}
	if p := e2.Stats().Plp; p.Partitions != 1 || p.Keys != 4 || p.MapVersion != 1 {
		t.Fatalf("reopened stats: %+v; want 1 partition over 4 keys, map v1", p)
	}
	tables := m2.Tables()
	if !slices.Equal(tables, m.Tables()) || len(tables) != 1 {
		t.Fatalf("recovered tables %v, want %v", tables, m.Tables())
	}
	if !slices.Equal(m2.Roots(tables[0]), m.Roots(tables[0])) {
		t.Fatalf("recovered segment roots %v, want %v", m2.Roots(tables[0]), m.Roots(tables[0]))
	}

	ix2 := e2.plpForest(tables[0], m2.Roots(tables[0]))
	check, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for rk := uint32(1); rk <= 4; rk++ {
		for i := 0; i < perKey; i++ {
			got, ok, err := e2.IndexLookupCtx(context.Background(), check, ix2, plpKey(rk, i))
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

	// A second crash brings the catalog back byte-identically.
	enc := m2.Encode()
	e2.Crash()
	e3, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if got := e3.PlpMap().Encode(); !bytes.Equal(got, enc) {
		t.Fatalf("recovered map differs:\n got %x\nwant %x", got, enc)
	}
}
