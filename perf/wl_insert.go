package main

import (
	"context"
	"fmt"

	"repro/internal/buffer"
)

// insertPrivate is the paper's §3.2 record-insert microbenchmark on the
// live engine: every client appends to a heap table of its own, one
// commit per batch. There is no logical contention and one log flush per
// batch, so the free-space manager, log inserts, FixNew and the cleaner
// do the work; lock waits, B-trees and commit flushes do almost none.
//
// The workload grows the volume and the log by hundreds of megabytes a
// second, so one long run is not stationary; every window gets a fresh
// engine instead.
var insertPrivate = workload{
	name:           "insert-private",
	types:          []string{"insert"},
	traceEvery:     16,
	freshPerWindow: true,
	open:           openInsert,
}

const insertRecordBytes = 100

type insertInstance struct {
	*embedded
	sz      sizes
	clients []*insertClient
}

type insertClient struct {
	inst    *insertInstance
	table   uint32
	payload []byte
	acked   int // committed batches
	failed  int
}

func openInsert(env *env) (instance, error) {
	cfg := baseConfig(env, 0) // the preset's own 4096 frames
	// Not the preset's cuckoo page table, as in kv-outofpool and for the
	// same reason: the pool is full and every new page evicts one, and
	// about one run in two hundred died of a runtime throw (see "Engine
	// defects found" in README.md). The ladder's earlier stages keep the
	// table their preset names.
	if cfg.Buffer.Table == buffer.TableCuckoo {
		cfg.Buffer.Table = buffer.TablePerBucketChain
	}
	b, err := openEmbedded(env, cfg)
	if err != nil {
		return nil, err
	}
	in := &insertInstance{embedded: b, sz: env.sz}
	for c := 0; c < env.sz.clients; c++ {
		t, err := b.e.Begin()
		if err != nil {
			return nil, err
		}
		table, err := b.e.CreateTable(t)
		if err != nil {
			return nil, err
		}
		if err := b.e.Commit(t); err != nil {
			return nil, err
		}
		payload := make([]byte, insertRecordBytes)
		for i := range payload {
			payload[i] = byte(env.seed) + byte(c) + byte(i)
		}
		cl := &insertClient{inst: in, table: table, payload: payload}
		in.clients = append(in.clients, cl)
		// The load: a table exists durably only once it holds a committed
		// record, and a warm extent cache is part of a loaded database.
		for i := 0; i < env.sz.insertSeedBatches; i++ {
			if _, err := cl.run(nil); err != nil {
				return nil, fmt.Errorf("seeding table %d: %w", table, err)
			}
		}
	}
	return in, b.e.Checkpoint()
}

func (in *insertInstance) client(c int) worker { return in.clients[c] }

func (c *insertClient) run(tt *txnTrace) (int, error) {
	e, ctx := c.inst.e, context.Background()
	at := tt.now()
	t, err := e.BeginCtx(ctx)
	if err != nil {
		c.failed++
		return 0, err
	}
	tt.child("core.begin", at)
	for i := 0; i < c.inst.sz.insertBatch; i++ {
		at = tt.now()
		if _, err := e.HeapInsertCtx(ctx, t, c.table, c.payload); err != nil {
			_ = e.Abort(t)
			c.failed++
			return 0, err
		}
		tt.child("core.heap_insert", at)
	}
	at = tt.now()
	if err := e.CommitCtx(ctx, t); err != nil {
		c.failed++
		return 0, err
	}
	tt.child("core.commit", at)
	c.acked++
	return 0, nil
}

func (in *insertInstance) check() []check {
	var out []check
	for _, cl := range in.clients {
		name := fmt.Sprintf("table %d rows = acknowledged commits x %d", cl.table, in.sz.insertBatch)
		rows, err := heapRows(in.e, cl.table)
		if err != nil {
			out = append(out, check{Name: name, Detail: err.Error()})
			continue
		}
		out = append(out, checkEq(name, rows, cl.acked*in.sz.insertBatch, cl.failed*in.sz.insertBatch))
	}
	return out
}

func (in *insertInstance) crash() *recovered { return in.crashAndCheck(in.check) }

func (in *insertInstance) payloadBytes() float64 {
	n := 0
	for _, cl := range in.clients {
		n += cl.acked
	}
	return float64(n * in.sz.insertBatch * insertRecordBytes)
}

func (in *insertInstance) close() error { return in.e.Close() }
