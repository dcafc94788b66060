// Package probe times one layer's public functions in isolation: a
// single-threaded loop of a fixed iteration count on a standalone
// instance built with the workload's options, so the count repeats
// exactly and the cost is the layer's own. The benchmark multiplies a
// probe's cost by the layer's measured operation count to estimate the
// share of client time the layer can account for.
package probe

import (
	"context"
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/sync2"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Result is one probe's cost.
type Result struct {
	Name  string // the per-layer metric the probe feeds
	Iters int
	NsOp  float64
}

// Iters is every probe's iteration count; the slowest probe ends within
// a second.
const Iters = 200_000

func timeLoop(name string, fn func(i int) error) (Result, error) {
	start := time.Now()
	for i := 0; i < Iters; i++ {
		if err := fn(i); err != nil {
			return Result{}, fmt.Errorf("probe %s: iteration %d: %w", name, i, err)
		}
	}
	return Result{Name: name, Iters: Iters, NsOp: float64(time.Since(start).Nanoseconds()) / Iters}, nil
}

// All runs every probe with cfg's component options.
func All(cfg core.Config) ([]Result, error) {
	var out []Result
	for _, p := range []func(core.Config) (Result, error){WireCodec, Lock, BufferHit, BufferMiss, WalInsert, WalInsertFlush} {
		r, err := p(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// WireCodec encodes and decodes a ten-operation batch body, the shape of
// a remote TPC-C commit frame.
func WireCodec(core.Config) (Result, error) {
	ops := make([]wire.DataOp, 10)
	for i := range ops {
		ops[i] = wire.DataOp{Kind: wire.OpIdxUpdate, Store: uint32(i + 1), Key: make([]byte, 12), Val: make([]byte, 120)}
	}
	var e wire.Enc
	return timeLoop("wire.codec_probe_ns", func(int) error {
		e.B = e.B[:0]
		if err := wire.AppendBatch(&e, 0, ops); err != nil {
			return err
		}
		_, err := wire.DecodeBatch(e.B)
		return err
	})
}

// Lock acquires and releases one uncontended row lock.
func Lock(cfg core.Config) (Result, error) {
	m := lock.NewManager(cfg.Lock)
	ctx := context.Background()
	return timeLoop("lock.probe_ns", func(i int) error {
		n := lock.RowName(1, page.RID{Page: page.ID(1 + i%512), Slot: uint16(i % 64)})
		if err := m.Lock(ctx, 1, n, lock.X, time.Second); err != nil {
			return err
		}
		m.Unlock(1, n)
		return nil
	})
}

// fixLoop fixes and unfixes pages 1..pages in turn on a pool of frames
// frames over a memory volume holding those pages, clean.
func fixLoop(name string, cfg core.Config, frames, pages int) (Result, error) {
	opts := cfg.Buffer
	opts.Frames = frames
	pool := buffer.New(disk.NewMem(pages), opts)
	defer pool.Close()
	for pid := 1; pid <= pages; pid++ {
		f, err := pool.FixNew(page.ID(pid))
		if err != nil {
			return Result{}, err
		}
		f.Page().Init(page.ID(pid), page.TypeHeap, 1)
		f.MarkDirty(wal.NullLSN)
		pool.Unfix(f, sync2.LatchEX)
	}
	if err := pool.FlushAll(); err != nil {
		return Result{}, err
	}
	return timeLoop(name, func(i int) error {
		f, err := pool.Fix(page.ID(1+i%pages), sync2.LatchSH)
		if err != nil {
			return err
		}
		pool.Unfix(f, sync2.LatchSH)
		return nil
	})
}

// BufferHit fixes and unfixes resident pages.
func BufferHit(cfg core.Config) (Result, error) {
	return fixLoop("buffer.fix_hit_probe_ns", cfg, 1024, 256)
}

// BufferMiss cycles through eight times more clean pages than the pool
// holds, so every fix evicts a page and reads one from the memory volume.
func BufferMiss(cfg core.Config) (Result, error) {
	return fixLoop("buffer.fix_miss_probe_ns", cfg, 256, 2048)
}

func newLog(cfg core.Config) wal.Manager {
	return wal.New(wal.NewMemSegmentStore(8<<20), wal.Options{Design: cfg.LogDesign, BufferSize: cfg.LogBuffer})
}

func record() *wal.Record {
	return &wal.Record{Type: wal.RecUpdate, TxID: 1, Page: 1, Redo: make([]byte, 128), Undo: make([]byte, 128)}
}

// WalInsert appends a record with 256 bytes of payload.
func WalInsert(cfg core.Config) (Result, error) {
	log := newLog(cfg)
	defer log.Close()
	rec := record()
	return timeLoop("wal.insert_probe_ns", func(int) error {
		_, err := log.Insert(rec)
		return err
	})
}

// WalInsertFlush appends the same record and waits until it is durable,
// the commit path of a one-record transaction.
func WalInsertFlush(cfg core.Config) (Result, error) {
	log := newLog(cfg)
	defer log.Close()
	rec := record()
	return timeLoop("wal.insert_flush_probe_ns", func(int) error {
		lsn, err := log.Insert(rec)
		if err != nil {
			return err
		}
		return log.Flush(lsn + 1)
	})
}
