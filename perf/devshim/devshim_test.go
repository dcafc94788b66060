package devshim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/tpcc"
	"repro/internal/wal"
)

// TestEngineOverShim runs TPC-C on an engine whose volume and log are
// wrapped: the log must still be archived (the wrapper forwards the
// segmented-store methods the engine finds by type assertion), the
// counters must see the traffic, and the engine must recover from a
// power cut through the same wrappers.
func TestEngineOverShim(t *testing.T) {
	dev := New(func() int64 { return time.Now().UnixNano() })
	var events atomic.Int64
	dev.SetSink(func(Event) { events.Add(1) })
	vol := dev.WrapVolume(disk.NewMem(0))
	store := dev.WrapStore(wal.NewMemSegmentStore(64 << 10))
	if _, ok := store.(wal.Archiver); !ok {
		t.Fatal("a wrapped segmented store lost ArchiveBelow")
	}
	if _, ok := dev.WrapStore(wal.NewMemStore()).(wal.Archiver); ok {
		t.Fatal("a wrapped unsegmented store claims to be segmented")
	}
	cfg := core.StageConfig(core.StageFinal)
	cfg.CheckpointEvery = 256 << 10
	cfg.CleanerInterval = 5 * time.Millisecond // archiving stops at the oldest dirty page
	e, err := core.Open(vol, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scale := tpcc.TinyScale()
	db, err := tpcc.Load(e, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetSink(nil)
	r := tpcc.NewRand(1)
	orders := 0
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Recovery.SegmentsArchived == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no log segment archived; device counters %+v", dev.Counters())
		}
		for i := 0; i < 200; i++ {
			switch err := db.NewOrderCtx(context.Background(), tpcc.GenNewOrder(r, scale, 1)); {
			case err == nil:
				orders++
			case !errors.Is(err, tpcc.ErrUserAbort):
				t.Fatal(err)
			}
		}
	}
	c := dev.Counters()
	if c.Ops[LogFlush] == 0 || c.Ops[LogWrite] == 0 || c.Bytes[LogFlush] == 0 || c.Checkpoints == 0 || events.Load() == 0 {
		t.Errorf("device counters missed traffic: %+v, %d events", c, events.Load())
	}
	before, err := db.Orders.Verify()
	if err != nil {
		t.Fatal(err)
	}

	e.CrashHard()
	e2, err := core.Open(vol, store, cfg)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer e2.Close()
	ix, err := e2.OpenIndex(db.Orders.Store())
	if err != nil {
		t.Fatal(err)
	}
	after, err := ix.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if after != before || after < orders {
		t.Errorf("orders: %d before the crash, %d after, %d acknowledged", before, after, orders)
	}
}

// TestArm checks that the service time applies to reads, writes and
// flushes, not to log writes, and can be disarmed.
func TestArm(t *testing.T) {
	dev := New(func() int64 { return time.Now().UnixNano() })
	mem := disk.NewMem(1)
	vol := dev.WrapVolume(mem)
	store := dev.WrapStore(wal.NewMemStore())
	buf := make([]byte, 8192)
	timeOf := func(fn func() error) time.Duration {
		start := time.Now()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const service = 2 * time.Millisecond
	dev.Arm(service)
	for name, fn := range map[string]func() error{
		"read":  func() error { return vol.Read(1, buf) },
		"write": func() error { return vol.Write(1, buf) },
		"flush": func() error { return store.Flush(8) },
	} {
		if d := timeOf(fn); d < service {
			t.Errorf("armed %s took %v", name, d)
		}
	}
	if d := timeOf(func() error { return store.WriteAt([]byte{1}, 8) }); d >= service {
		t.Errorf("a log write was delayed: %v", d)
	}
	dev.Arm(0)
	if d := timeOf(func() error { return vol.Read(1, buf) }); d >= service {
		t.Errorf("disarmed read took %v", d)
	}
}
