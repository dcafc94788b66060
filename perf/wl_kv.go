package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/tx"
)

// kvOutOfPool is a YCSB-style mix on one index four times larger than
// the buffer pool, behind a device that takes kvService for every page
// read, page write and log flush: the only workload where buffer misses,
// eviction, the cleaner, disk traffic and the flush wait decide the
// result and CPU hardly matters. Half the transactions are lock-free
// snapshot views of four Zipfian keys, half are four read-modify-writes
// on keys drawn the same way, so readers and X-locking writers meet on
// the hot keys and the skew produces the deadlocks and retries uniform
// TPC-C never shows.
var kvOutOfPool = workload{
	name:       "kv-outofpool",
	types:      []string{"view", "update"},
	traceEvery: 1,
	slowDevice: true,
	open:       openKV,
}

const (
	typView = iota
	typUpdate

	kvValueBytes = 200
	kvOpsPerTxn  = 4
	kvZipfS      = 1.1
	kvLoadBatch  = 1000
)

type kvInstance struct {
	*embedded
	ix      *core.Index // of the engine that loaded it; check reopens by store id
	keys    int
	clients []*kvClient
}

type kvClient struct {
	inst  *kvInstance
	rng   *rand.Rand
	zipf  *rand.Zipf
	acked map[uint32]uint32 // key number → acknowledged updates
	fail  int
	picks [kvOpsPerTxn]uint32
	val   [kvValueBytes]byte
}

// kvKey spreads key numbers over the key space (splitmix64), so that
// popular keys are not neighbours in the tree.
func kvKey(n uint32) []byte {
	z := uint64(n) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return binary.BigEndian.AppendUint64(nil, z^z>>31)
}

// kvValue is a value carrying its key and an update counter.
func kvValue(dst []byte, key []byte, counter uint64) {
	copy(dst, key)
	binary.BigEndian.PutUint64(dst[8:], counter)
	for i := 16; i < len(dst); i++ {
		dst[i] = key[i%8]
	}
}

func openKV(env *env) (instance, error) {
	cfg := baseConfig(env, env.sz.kvFrames)
	cfg.Snapshot = true
	// Not the preset's cuckoo page table: under this workload's eviction
	// churn it ends about one run in sixteen in unbounded recursion
	// between cuckooAdapter.getOrInsert and Pool.dropOrphan (see "Engine
	// defects found" in README.md). The per-bucket chain table is the
	// nearest configuration that works.
	cfg.Buffer.Table = buffer.TablePerBucketChain
	b, err := openEmbedded(env, cfg)
	if err != nil {
		return nil, err
	}
	in := &kvInstance{embedded: b, keys: env.sz.kvKeys}
	t, err := b.e.Begin()
	if err != nil {
		return nil, err
	}
	if in.ix, err = b.e.CreateIndex(t); err != nil {
		return nil, err
	}
	if err := b.e.Commit(t); err != nil {
		return nil, err
	}
	val := make([]byte, kvValueBytes)
	for lo := 0; lo < in.keys; lo += kvLoadBatch {
		t, err := b.e.Begin()
		if err != nil {
			return nil, err
		}
		for n := lo; n < lo+kvLoadBatch && n < in.keys; n++ {
			key := kvKey(uint32(n))
			kvValue(val, key, 0)
			if err := b.e.IndexInsert(t, in.ix, key, val); err != nil {
				return nil, fmt.Errorf("loading key %d: %w", n, err)
			}
		}
		if err := b.e.Commit(t); err != nil {
			return nil, err
		}
	}
	if err := b.e.Checkpoint(); err != nil {
		return nil, err
	}
	for c := 0; c < env.sz.clients; c++ {
		rng := rand.New(rand.NewSource(env.seed*1000 + int64(c)))
		in.clients = append(in.clients, &kvClient{
			inst:  in,
			rng:   rng,
			zipf:  rand.NewZipf(rng, kvZipfS, 1, uint64(in.keys-1)),
			acked: map[uint32]uint32{},
		})
	}
	return in, nil
}

func (in *kvInstance) client(c int) worker { return in.clients[c] }

func (c *kvClient) run(tt *txnTrace) (int, error) {
	for i := range c.picks {
		c.picks[i] = uint32(c.zipf.Uint64())
	}
	e, ix, ctx := c.inst.e, c.inst.ix, context.Background()
	began := tt.now()
	if c.rng.Intn(2) == 0 {
		err := e.RunViewCtx(ctx, core.RetryPolicy{}, func(t *tx.Tx) error {
			tt.child("core.begin", began)
			for _, n := range c.picks {
				key := kvKey(n)
				at := tt.now()
				v, ok, err := e.IndexLookupCtx(ctx, t, ix, key)
				tt.child("core.index_lookup", at)
				if err != nil {
					return err
				}
				if !ok || !bytes.HasPrefix(v, key) {
					return fmt.Errorf("key %d: read %x", n, v)
				}
			}
			return nil
		})
		if err != nil {
			c.fail++
		}
		return typView, err
	}
	first := true
	err := e.RunCtx(ctx, core.RetryPolicy{}, func(t *tx.Tx) error {
		if first { // a retry's back-off and begin stay in the transaction's self time
			tt.child("core.begin", began)
			first = false
		}
		for _, n := range c.picks {
			key := kvKey(n)
			at := tt.now()
			v, ok, err := e.IndexLookupForUpdateCtx(ctx, t, ix, key)
			tt.child("core.index_lookup_for_update", at)
			if err != nil {
				return err
			}
			if !ok || !bytes.HasPrefix(v, key) {
				return fmt.Errorf("key %d: read %x", n, v)
			}
			kvValue(c.val[:], key, binary.BigEndian.Uint64(v[8:])+1)
			at = tt.now()
			err = e.IndexUpdateCtx(ctx, t, ix, key, c.val[:])
			tt.child("core.index_update", at)
			if err != nil {
				return err
			}
		}
		return nil
	}, func(ctx context.Context, t *tx.Tx) error {
		at := tt.now()
		err := e.CommitCtx(ctx, t)
		tt.child("core.commit", at)
		return err
	})
	if err != nil {
		c.fail++
		return typUpdate, err
	}
	for _, n := range c.picks {
		c.acked[n]++
	}
	return typUpdate, nil
}

// check scans the whole index: the key count is what was loaded, every
// value carries its key, and every counter is the number of acknowledged
// updates of its key (at most the failed transactions more).
func (in *kvInstance) check() []check {
	acked := map[string]uint64{}
	inDoubt := 0
	for _, c := range in.clients {
		for n, k := range c.acked {
			acked[string(kvKey(n))] += uint64(k)
		}
		inDoubt += c.fail * kvOpsPerTxn
	}
	ix, err := in.e.OpenIndex(in.ix.Store())
	if err != nil {
		return []check{{Name: "open index", Detail: err.Error()}}
	}
	verify := check{Name: "verify index"}
	keys, err := ix.Verify()
	if err != nil {
		verify.Detail = err.Error()
	}
	verify.OK = err == nil
	var bad []string
	t, err := in.e.Begin()
	if err == nil {
		err = in.e.IndexScan(t, ix, nil, nil, func(k, v []byte) bool {
			got := binary.BigEndian.Uint64(v[8:])
			want := acked[string(k)]
			if !bytes.HasPrefix(v, k) || got < want || got > want+uint64(inDoubt) {
				bad = append(bad, fmt.Sprintf("key %x: value of %x, counter %d, acknowledged %d", k, v[:8], got, want))
			}
			return len(bad) < 5
		})
		if cerr := in.e.CommitReadOnly(context.Background(), t); err == nil {
			err = cerr
		}
	}
	values := check{Name: "every value carries its key and its acknowledged updates", OK: err == nil && len(bad) == 0}
	if err != nil {
		values.Detail = err.Error()
	} else if len(bad) > 0 {
		values.Detail = fmt.Sprint(bad)
	}
	return []check{verify, checkEq("key count unchanged", keys, in.keys, 0), values}
}

func (in *kvInstance) crash() *recovered { return in.crashAndCheck(in.check) }

func (in *kvInstance) payloadBytes() float64 { return float64(in.keys * (8 + kvValueBytes)) }

func (in *kvInstance) close() error { return in.e.Close() }
