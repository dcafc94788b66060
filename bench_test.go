// Real-engine benchmarks, one family per paper figure. These drive the
// actual Go implementation (not the contention simulator): they validate
// the relative costs that calibrate the simulator's service times and let
// `go test -bench` compare component variants directly.
//
//	BenchmarkFigure1_* / BenchmarkFigure4_*  — record-insert microbenchmark
//	    per optimization stage (the figures' workload, on live code).
//	BenchmarkFigure5_*  — TPC-C Payment and New Order transactions.
//	BenchmarkFigure6_*  — free-space-manager mutex variants.
//	BenchmarkFigure7_*  — full stage ladder, end-to-end inserts.
//	BenchmarkPrimitive_* — the §6 synchronization primitives themselves.
//	BenchmarkLog_*       — the three log-manager designs.
//	BenchmarkBpool_*     — buffer-pool table variants.
package shoremt

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/peers"
	"repro/internal/space"
	"repro/internal/sync2"
	"repro/internal/tpcc"
	"repro/internal/tx"
	"repro/internal/wal"
)

// newBenchEngine builds a real engine at the given stage.
func newBenchEngine(b *testing.B, stage core.Stage) *core.Engine {
	b.Helper()
	return newBenchEngineStore(b, stage, wal.NewMemSegmentStore(0))
}

// benchCreateTable registers a heap store in a short committed setup
// transaction.
func benchCreateTable(b *testing.B, e *core.Engine) uint32 {
	b.Helper()
	ct, err := e.Begin()
	if err != nil {
		b.Fatal(err)
	}
	store, err := e.CreateTable(ct)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Commit(ct); err != nil {
		b.Fatal(err)
	}
	return store
}

// newBenchEngineStore builds a real engine over a caller-chosen log store.
func newBenchEngineStore(b *testing.B, stage core.Stage, store wal.Store) *core.Engine {
	b.Helper()
	cfg := core.StageConfig(stage)
	cfg.Frames = 4096
	e, err := core.Open(disk.NewMem(0), store, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// newBenchEngineCfg builds a real engine from an explicit config.
func newBenchEngineCfg(b *testing.B, cfg core.Config) *core.Engine {
	b.Helper()
	e, err := core.Open(disk.NewMem(0), wal.NewMemSegmentStore(0), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// benchInsert measures the record-insert path (the §3.2 microbenchmark's
// inner loop) on the real engine.
func benchInsert(b *testing.B, stage core.Stage) {
	e := newBenchEngine(b, stage)
	store := benchCreateTable(b, e)
	payload := []byte("0123456789abcdef0123456789abcdef")
	t, err := e.Begin()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.HeapInsertCtx(context.Background(), t, store, payload); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 { // commit every 1000 records, per the paper
			if err := e.Commit(t); err != nil {
				b.Fatal(err)
			}
			if t, err = e.Begin(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := e.Commit(t); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFigure7_InsertByStage(b *testing.B) {
	for _, stage := range core.Stages() {
		stage := stage
		b.Run(stage.String(), func(b *testing.B) { benchInsert(b, stage) })
	}
}

func BenchmarkFigure1_InsertParallel(b *testing.B) {
	// The Figure 1/4 workload shape on the real engine: each worker gets a
	// private table (no logical contention); engine-internal contention
	// only. Run with -cpu to vary parallelism.
	for _, stage := range []core.Stage{core.StageBaseline, core.StageFinal} {
		stage := stage
		b.Run(stage.String(), func(b *testing.B) {
			e := newBenchEngine(b, stage)
			payload := []byte("0123456789abcdef0123456789abcdef")
			var mu sync2.TATASLock // protects table handout
			var tables []uint32
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				ct, err := e.Begin()
				if err != nil {
					mu.Unlock()
					b.Error(err)
					return
				}
				store, err := e.CreateTable(ct)
				if err == nil {
					err = e.Commit(ct)
				}
				if err != nil {
					mu.Unlock()
					b.Error(err)
					return
				}
				tables = append(tables, store)
				mu.Unlock()
				t, err := e.Begin()
				if err != nil {
					b.Error(err)
					return
				}
				n := 0
				for pb.Next() {
					if _, err := e.HeapInsertCtx(context.Background(), t, store, payload); err != nil {
						b.Error(err)
						return
					}
					if n++; n%1000 == 999 {
						if err := e.Commit(t); err != nil {
							b.Error(err)
							return
						}
						if t, err = e.Begin(); err != nil {
							b.Error(err)
							return
						}
					}
				}
				_ = e.Commit(t)
			})
		})
	}
}

func BenchmarkFigure4_SimulatedEngines(b *testing.B) {
	// One simulator evaluation per engine at 16 threads: regenerating a
	// Figure 4 column inside the bench harness.
	for _, m := range peers.Figure4Models() {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tps, _ := bench.RunInsert(m, 16, 50e6)
				if tps <= 0 {
					b.Fatal("no throughput")
				}
			}
		})
	}
}

// newFig5Engine builds the Figure 5 engine: StageFinal, whose lock path
// runs through the transaction-private lock cache before the lock table.
func newFig5Engine(b *testing.B) *core.Engine {
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 4096
	return newBenchEngineCfg(b, cfg)
}

func BenchmarkFigure5_Payment(b *testing.B) {
	e := newFig5Engine(b)
	db, err := tpcc.Load(e, tpcc.Scale{Warehouses: 2, Districts: 4, Customers: 50, Items: 200, StockPerItem: true}, 42)
	if err != nil {
		b.Fatal(err)
	}
	r := tpcc.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.PaymentCtx(context.Background(), tpcc.GenPayment(r, db.Scale, uint32(i%2+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5_NewOrder(b *testing.B) {
	e := newFig5Engine(b)
	db, err := tpcc.Load(e, tpcc.Scale{Warehouses: 2, Districts: 4, Customers: 50, Items: 200, StockPerItem: true}, 42)
	if err != nil {
		b.Fatal(err)
	}
	r := tpcc.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.NewOrderCtx(context.Background(), tpcc.GenNewOrder(r, db.Scale, uint32(i%2+1)))
		if err != nil && err != tpcc.ErrUserAbort {
			b.Fatal(err)
		}
	}
}

// benchFig5Parallel drives a TPC-C transaction from concurrent workers
// (run with -cpu=8 or more) through the shared lock manager. One
// iteration is one committed transaction; retryable storms that exhaust
// the retry budget are counted, not fatal.
func benchFig5Parallel(b *testing.B, run func(db *tpcc.DB, r *tpcc.Rand, home uint32) error) {
	const warehouses = 4
	e := newFig5Engine(b)
	db, err := tpcc.Load(e, tpcc.Scale{Warehouses: warehouses, Districts: 4, Customers: 50, Items: 200, StockPerItem: true}, 42)
	if err != nil {
		b.Fatal(err)
	}
	var seq, giveUps atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := seq.Add(1)
		r := tpcc.NewRand(id)
		home := uint32(id%warehouses + 1)
		for pb.Next() {
			err := run(db, r, home)
			switch {
			case err == nil, errors.Is(err, tpcc.ErrUserAbort):
			case core.IsRetryable(err):
				giveUps.Add(1) // retry budget exhausted under contention
			default:
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := e.Stats()
	// Per-op rates, so runs with different b.N are comparable.
	b.ReportMetric(float64(giveUps.Load())/float64(b.N), "giveups/op")
	b.ReportMetric(float64(st.Lock.CacheHits)/float64(b.N), "cachehits/op")
}

func BenchmarkFigure5_PaymentParallel(b *testing.B) {
	benchFig5Parallel(b, func(db *tpcc.DB, r *tpcc.Rand, home uint32) error {
		return db.PaymentCtx(context.Background(), tpcc.GenPayment(r, db.Scale, home))
	})
}

func BenchmarkFigure5_NewOrderParallel(b *testing.B) {
	benchFig5Parallel(b, func(db *tpcc.DB, r *tpcc.Rand, home uint32) error {
		return db.NewOrderCtx(context.Background(), tpcc.GenNewOrder(r, db.Scale, home))
	})
}

// benchDoraParallel drives one TPC-C transaction type from concurrent
// workers (run with -cpu=8), comparing the shared lock manager against
// data-oriented execution on the same mix. One iteration is one committed
// transaction.
func benchDoraParallel(b *testing.B, dora bool, run func(db *tpcc.DB, r *tpcc.Rand, home uint32) error) {
	const warehouses = 8
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 4096
	if dora {
		cfg.DORA = true
		cfg.DoraKeys = warehouses
	}
	e := newBenchEngineCfg(b, cfg)
	db, err := tpcc.Load(e, tpcc.Scale{Warehouses: warehouses, Districts: 4, Customers: 50, Items: 100, StockPerItem: true}, 42)
	if err != nil {
		b.Fatal(err)
	}
	var seq, giveUps atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := seq.Add(1)
		r := tpcc.NewRand(id)
		home := uint32(id%warehouses + 1)
		for pb.Next() {
			err := run(db, r, home)
			switch {
			case err == nil, errors.Is(err, tpcc.ErrUserAbort):
			case core.IsRetryable(err):
				giveUps.Add(1) // retry budget exhausted under contention
			default:
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(giveUps.Load())/float64(b.N), "giveups/op")
	if dora {
		st := e.Stats().Dora
		b.ReportMetric(float64(st.CrossTx)/float64(b.N), "crosstx/op")
		b.ReportMetric(float64(st.LocalAcquires)/float64(b.N), "localacq/op")
	}
}

// BenchmarkDoraParallel compares the shared lock manager with
// DORA-style partitioned execution, per transaction type. CI captures it as BENCH_dora.json.
func BenchmarkDoraParallel(b *testing.B) {
	payment := func(db *tpcc.DB, r *tpcc.Rand, home uint32) error {
		return db.PaymentCtx(context.Background(), tpcc.GenPayment(r, db.Scale, home))
	}
	newOrder := func(db *tpcc.DB, r *tpcc.Rand, home uint32) error {
		return db.NewOrderCtx(context.Background(), tpcc.GenNewOrder(r, db.Scale, home))
	}
	doraPayment := func(db *tpcc.DB, r *tpcc.Rand, home uint32) error {
		return db.DoraPayment(context.Background(), tpcc.GenPayment(r, db.Scale, home))
	}
	doraNewOrder := func(db *tpcc.DB, r *tpcc.Rand, home uint32) error {
		return db.DoraNewOrder(context.Background(), tpcc.GenNewOrder(r, db.Scale, home))
	}
	b.Run("payment/shared", func(b *testing.B) { benchDoraParallel(b, false, payment) })
	b.Run("payment/dora", func(b *testing.B) { benchDoraParallel(b, true, doraPayment) })
	b.Run("neworder/shared", func(b *testing.B) { benchDoraParallel(b, false, newOrder) })
	b.Run("neworder/dora", func(b *testing.B) { benchDoraParallel(b, true, doraNewOrder) })
}

// benchPlpParallel drives one TPC-C transaction type through the DORA
// executor from concurrent workers (run with -cpu=8), comparing
// shared-tree DORA (partition-local locks, shared B-trees) against PLP
// (per-partition segment forests with latch-free owner-path index
// operations, ownership fixed at open). One iteration is one committed
// transaction. With zipf, each worker draws its home warehouse
// per-iteration from a Zipfian distribution, so partitions carry
// unequal load.
func benchPlpParallel(b *testing.B, plpOn, zipf bool, run func(db *tpcc.DB, r *tpcc.Rand, home uint32) error) {
	const warehouses = 8
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 4096
	cfg.DORA = true
	cfg.DoraKeys = warehouses
	if zipf {
		// Fewer partitions than routing keys, so the hot warehouses share
		// an owner.
		cfg.DoraPartitions = warehouses / 2
	}
	cfg.PLP = plpOn
	e := newBenchEngineCfg(b, cfg)
	db, err := tpcc.Load(e, tpcc.Scale{Warehouses: warehouses, Districts: 4, Customers: 50, Items: 100, StockPerItem: true}, 42)
	if err != nil {
		b.Fatal(err)
	}
	var seq, giveUps atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := seq.Add(1)
		r := tpcc.NewRand(id)
		home := uint32(id%warehouses + 1)
		var z *mrand.Zipf
		if zipf {
			z = mrand.NewZipf(mrand.New(mrand.NewSource(id)), 1.3, 1, warehouses-1)
		}
		for pb.Next() {
			if z != nil {
				home = uint32(z.Uint64() + 1)
			}
			err := run(db, r, home)
			switch {
			case err == nil, errors.Is(err, tpcc.ErrUserAbort):
			case core.IsRetryable(err):
				giveUps.Add(1) // retry budget exhausted under contention
			default:
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(giveUps.Load())/float64(b.N), "giveups/op")
	if zipf {
		b.ReportMetric(benchResidualSkew(b, db, warehouses), "skewratio")
	}
	if plpOn {
		st := e.Stats()
		b.ReportMetric(float64(st.Btree.OwnerDescents+st.Btree.OwnerReads)/float64(b.N), "ownerops/op")
	}
}

// benchResidualSkew measures the routing skew the partition map leaves
// under the Zipfian load: it drives a short untimed burst of Zipfian
// Payments after the timed run and returns max/mean of the per-partition
// routing deltas over that burst. Shared-tree DORA deals warehouses to
// partitions modulo their count, PLP in contiguous ranges; neither moves
// a warehouse while it runs.
func benchResidualSkew(b *testing.B, db *tpcc.DB, warehouses int) float64 {
	b.Helper()
	parts := db.Engine.Stats().Dora.Parts
	base := make([]uint64, len(parts))
	for i, p := range parts {
		base[i] = p.Routed
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := tpcc.NewRand(int64(7700 + w))
			z := mrand.NewZipf(mrand.New(mrand.NewSource(int64(8800+w))), 1.3, 1, uint64(warehouses-1))
			for ctx.Err() == nil {
				home := uint32(z.Uint64() + 1)
				_ = db.DoraPayment(ctx, tpcc.GenPayment(r, db.Scale, home))
			}
		}(w)
	}
	wg.Wait()
	var total, max uint64
	after := db.Engine.Stats().Dora.Parts
	for i, p := range after {
		d := p.Routed - base[i]
		total += d
		if d > max {
			max = d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(len(after)))
}

// BenchmarkPlpParallel compares shared-tree DORA with physiologically
// partitioned trees, per transaction type, plus Zipfian-skewed variants
// that report the routing skew. CI captures it as BENCH_plp.json.
func BenchmarkPlpParallel(b *testing.B) {
	payment := func(db *tpcc.DB, r *tpcc.Rand, home uint32) error {
		return db.DoraPayment(context.Background(), tpcc.GenPayment(r, db.Scale, home))
	}
	newOrder := func(db *tpcc.DB, r *tpcc.Rand, home uint32) error {
		return db.DoraNewOrder(context.Background(), tpcc.GenNewOrder(r, db.Scale, home))
	}
	b.Run("payment/dora", func(b *testing.B) { benchPlpParallel(b, false, false, payment) })
	b.Run("payment/plp", func(b *testing.B) { benchPlpParallel(b, true, false, payment) })
	b.Run("neworder/dora", func(b *testing.B) { benchPlpParallel(b, false, false, newOrder) })
	b.Run("neworder/plp", func(b *testing.B) { benchPlpParallel(b, true, false, newOrder) })
	b.Run("zipf-payment/dora", func(b *testing.B) { benchPlpParallel(b, false, true, payment) })
	b.Run("zipf-payment/plp", func(b *testing.B) { benchPlpParallel(b, true, true, payment) })
	b.Run("zipf-neworder/dora", func(b *testing.B) { benchPlpParallel(b, false, true, newOrder) })
	b.Run("zipf-neworder/plp", func(b *testing.B) { benchPlpParallel(b, true, true, newOrder) })
}

func BenchmarkFigure6_FreeSpaceMutex(b *testing.B) {
	// The Figure 6 variants on the real free-space manager.
	variants := []struct {
		name string
		opts space.Options
	}{
		{"pthread+latchInCS", space.Options{Mutex: sync2.KindBlocking, LatchInCS: true}},
		{"TATAS+latchInCS", space.Options{Mutex: sync2.KindTATAS, LatchInCS: true}},
		{"MCS+latchInCS", space.Options{Mutex: sync2.KindMCS, LatchInCS: true}},
		{"MCS+refactored", space.Options{Mutex: sync2.KindMCS, LatchInCS: false, LastPageCache: true, ExtentCache: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			vol := disk.NewMem(0)
			m := space.NewManager(vol, v.opts)
			store := m.CreateStore(space.KindHeap)
			b.RunParallel(func(pb *testing.PB) {
				var cache space.ExtentCache
				for pb.Next() {
					pid, err := m.AllocPage(store, nil)
					if err != nil {
						b.Error(err)
						return
					}
					// The post-allocation membership check (§6.2.2),
					// hitting the thread-local cache when enabled.
					if err := m.CheckPage(store, pid, &cache); err != nil {
						b.Error(err)
						return
					}
					m.FreePage(pid)
				}
			})
		})
	}
}

// slowStore wraps a log store with a fixed per-flush latency, modeling a
// real device's sync cost (a few tens of microseconds ≈ enterprise SSD).
// Without it an in-memory flush is nearly free and the commit path's
// flush-while-holding-locks serialization would be invisible.
type slowStore struct {
	wal.Store
	latency time.Duration
}

func (s *slowStore) Flush(upTo int64) error {
	time.Sleep(s.latency)
	return s.Store.Flush(upTo)
}

// benchCommit drives the commit path under logical contention: all
// workers update rows of one shared table and commit every `batch`
// updates. Each iteration is one committed transaction. StageFinal holds
// every lock across its commit flush; StagePipeline releases locks at
// pre-commit, before the log's flusher has hardened them — run with
// -cpu=8 (or more) to see the difference. Rows are locked in increasing
// order so no deadlocks occur.
func benchCommit(b *testing.B, stage core.Stage, batch int) {
	store := &slowStore{Store: wal.NewMemSegmentStore(0), latency: 50 * time.Microsecond}
	e := newBenchEngineStore(b, stage, store)
	table := benchCreateTable(b, e)
	const rows = 256
	rids := make([]page.RID, rows)
	t0, err := e.Begin()
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("0123456789abcdef0123456789abcdef")
	for i := range rids {
		if rids[i], err = e.HeapInsertCtx(context.Background(), t0, table, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Commit(t0); err != nil {
		b.Fatal(err)
	}

	var seed, aborts atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := seed.Add(0x9e3779b97f4a7c15) // per-worker LCG state
		for pb.Next() {
			// Retry until this iteration commits, so every iteration is
			// exactly one committed transaction regardless of how many
			// lock timeouts scheduler noise induces per stage.
			for {
				t, err := e.Begin()
				if err != nil {
					b.Error(err)
					return
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				start := int(rng>>33) % (rows - batch + 1)
				retry := false
				for j := 0; j < batch; j++ {
					if err := e.HeapUpdateCtx(context.Background(), t, table, rids[start+j], payload); err != nil {
						if errors.Is(err, lock.ErrTimeout) || errors.Is(err, lock.ErrDeadlock) {
							_ = e.Abort(t)
							aborts.Add(1)
							retry = true
							break
						}
						b.Error(err)
						return
					}
				}
				if retry {
					continue
				}
				if err := e.Commit(t); err != nil {
					b.Error(err)
					return
				}
				break
			}
		}
	})
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(st.Log.Flushes), "flushes")
	b.ReportMetric(float64(aborts.Load()), "aborts")
}

func BenchmarkCommitSync(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		batch := batch
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) { benchCommit(b, core.StageFinal, batch) })
	}
}

func BenchmarkCommitPipeline(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		batch := batch
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) { benchCommit(b, core.StagePipeline, batch) })
	}
}

func BenchmarkPrimitive_Locks(b *testing.B) {
	for _, k := range []sync2.Kind{sync2.KindTAS, sync2.KindTATAS, sync2.KindTicket, sync2.KindMCS, sync2.KindCLH, sync2.KindHybrid, sync2.KindBlocking} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			l := sync2.New(k)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					l.Lock()
					l.Unlock() //nolint:staticcheck // empty critical section is the point
				}
			})
		})
	}
}

func BenchmarkLog_Designs(b *testing.B) {
	for _, d := range []wal.Design{wal.DesignCoupled, wal.DesignDecoupled, wal.DesignConsolidated} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			m := wal.New(wal.NewMemSegmentStore(0), wal.Options{Design: d})
			defer m.Close()
			payload := make([]byte, 64)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := m.Insert(&wal.Record{Type: wal.RecUpdate, TxID: 1, Redo: payload}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

func BenchmarkLock_Manager(b *testing.B) {
	for _, tm := range []lock.TableMode{lock.TableGlobal, lock.TablePerBucket} {
		for _, pk := range []lock.PoolKind{lock.PoolMutex, lock.PoolLockFree} {
			tm, pk := tm, pk
			b.Run(fmt.Sprintf("%v/%v", tm, pk), func(b *testing.B) {
				m := lock.NewManager(lock.Options{Table: tm, Pool: pk})
				var txSeq sync2.TATASLock
				next := uint64(1)
				b.RunParallel(func(pb *testing.PB) {
					txSeq.Lock()
					txID := next
					next++
					txSeq.Unlock()
					i := uint64(0)
					for pb.Next() {
						n := lock.StoreName(uint32(txID*1000 + i%100))
						if err := m.Lock(context.Background(), txID, n, lock.IX, 0); err != nil {
							b.Error(err)
							return
						}
						m.Unlock(txID, n)
						i++
					}
				})
			})
		}
	}
}

// BenchmarkUpdateRetry measures transfer throughput under induced
// deadlocks — parallel workers update two hot rows in opposite orders —
// comparing the engine-managed DB.Update retry against the hand-rolled
// abort/retry loop it replaces (the examples' old idiom). One iteration
// is one successfully committed transfer, however many victim retries it
// took.
func BenchmarkUpdateRetry(b *testing.B) {
	setup := func(b *testing.B) (*DB, *Table, RID, RID) {
		b.Helper()
		// The managed policy's backoff envelope mirrors the manual loop's
		// fixed 500-1500µs sleeps so the comparison measures the retry
		// mechanism (jitter quality, abort placement), not cap tuning.
		db, err := Open(Options{
			CleanerInterval: -1,
			LockTimeout:     20 * time.Millisecond,
			Retry: RetryPolicy{
				MaxAttempts: 1000,
				BaseBackoff: 500 * time.Microsecond,
				MaxBackoff:  1500 * time.Microsecond,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		var (
			tb         *Table
			ridA, ridB RID
		)
		if err := db.Update(context.Background(), func(tx *Tx) error {
			if tb, err = db.CreateTable(tx); err != nil {
				return err
			}
			if ridA, err = tb.Insert(tx, []byte("A0")); err != nil {
				return err
			}
			ridB, err = tb.Insert(tx, []byte("B0"))
			return err
		}); err != nil {
			b.Fatal(err)
		}
		return db, tb, ridA, ridB
	}
	order := func(worker int64, a, c RID) (RID, RID) {
		if worker%2 == 0 {
			return a, c
		}
		return c, a
	}

	b.Run("managed", func(b *testing.B) {
		db, tb, ridA, ridB := setup(b)
		var seq atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			first, second := order(seq.Add(1), ridA, ridB)
			for pb.Next() {
				err := db.Update(context.Background(), func(tx *Tx) error {
					if err := tb.Update(tx, first, []byte("x")); err != nil {
						return err
					}
					return tb.Update(tx, second, []byte("y"))
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})

	b.Run("manual", func(b *testing.B) {
		db, tb, ridA, ridB := setup(b)
		var seq atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			first, second := order(seq.Add(1), ridA, ridB)
			for pb.Next() {
				for attempt := 0; ; attempt++ {
					tx, err := db.Begin()
					if err != nil {
						b.Error(err)
						return
					}
					err = func() error {
						if err := tb.Update(tx, first, []byte("x")); err != nil {
							return err
						}
						return tb.Update(tx, second, []byte("y"))
					}()
					if err == nil {
						err = tx.Commit()
					} else {
						_ = tx.Abort()
					}
					if err == nil {
						break
					}
					if !(errors.Is(err, ErrDeadlock) || errors.Is(err, ErrTimeout)) || attempt >= 1000 {
						b.Error(err)
						return
					}
					// The old examples' backoff: fixed-ish randomized sleep.
					time.Sleep(time.Duration(500+attempt%1000) * time.Microsecond)
				}
			}
		})
	})
}

// benchViewWork measures read-only View transactions racing a background
// write mix, on the classic S-locked path versus the multiversion
// snapshot path. mode "scan" makes one iteration a full heap scan of the
// table (store-level S vs an as-of page sweep); mode "get" makes it a
// View of 64 random-order index point reads (per-key S locks vs pin-free
// leaf probes plus chain resolution). Writers keep committing 8-row
// transactions throughout: on the S-lock path they serialize against
// scans and can deadlock against random-order getters, on the snapshot
// path neither side ever waits for the other.
func benchViewWork(b *testing.B, snapshot bool, mode string) {
	cfg := core.StageConfig(core.StageFinal)
	cfg.Frames = 4096
	cfg.Snapshot = snapshot
	e := newBenchEngineCfg(b, cfg)
	store := benchCreateTable(b, e)
	const rows = 2000
	payload := make([]byte, 64)
	benchKey := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	rids := make([]page.RID, rows)
	setup, err := e.Begin()
	if err != nil {
		b.Fatal(err)
	}
	ix, err := e.CreateIndex(setup)
	if err != nil {
		b.Fatal(err)
	}
	for i := range rids {
		if rids[i], err = e.HeapInsertCtx(context.Background(), setup, store, payload); err != nil {
			b.Fatal(err)
		}
		if err := e.IndexInsert(setup, ix, benchKey(i), payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Commit(setup); err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var writes atomic.Uint64
	var wwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Update 4 heap rows then 4 index keys per transaction, each
				// group in sorted order so writers never deadlock each
				// other — the X locks are held across the whole commit,
				// which is what the S-locked readers have to wait out.
				picks := make([]int, 0, 8)
				for len(picks) < 8 {
					rng = rng*6364136223846793005 + 1442695040888963407
					picks = append(picks, int(rng>>33)%rows)
				}
				sort.Ints(picks)
				err := e.RunCtx(ctx, core.RetryPolicy{}, func(t *tx.Tx) error {
					for _, i := range picks[:4] {
						if err := e.HeapUpdateCtx(ctx, t, store, rids[i], payload); err != nil {
							return err
						}
					}
					for _, i := range picks[4:] {
						if err := e.IndexUpdateCtx(ctx, t, ix, benchKey(i), payload); err != nil {
							return err
						}
					}
					return nil
				}, nil)
				if err == nil {
					writes.Add(1)
				}
			}
		}(w)
	}
	// Checkpoint ticker stands in for the cleaner daemon: it advances the
	// durable horizon and garbage-collects version chains, exactly as a
	// production deployment would in the background.
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				_ = e.Checkpoint()
			}
		}
	}()

	var seq, giveups atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := seq.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			var err error
			switch mode {
			case "scan":
				count := 0
				err = e.RunViewCtx(ctx, core.RetryPolicy{}, func(t *tx.Tx) error {
					count = 0
					return e.HeapScanCtx(ctx, t, store, func(rid page.RID, rec []byte) bool {
						count++
						return true
					})
				})
				if err == nil && count != rows {
					b.Errorf("scan saw %d rows, want %d", count, rows)
					return
				}
			case "get":
				err = e.RunViewCtx(ctx, core.RetryPolicy{}, func(t *tx.Tx) error {
					for g := 0; g < 64; g++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						_, found, gerr := e.IndexLookupCtx(ctx, t, ix, benchKey(int(rng>>33)%rows))
						if gerr != nil {
							return gerr
						}
						if !found {
							return fmt.Errorf("key missing")
						}
					}
					return nil
				})
			}
			if err != nil {
				// S-locked getters can lose deadlocks against writers even
				// after retries; that is part of what the baseline costs.
				if core.IsRetryable(err) {
					giveups.Add(1)
					continue
				}
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wwg.Wait()
	st := e.Stats()
	b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/op")
	b.ReportMetric(float64(st.Lock.Acquires)/float64(b.N), "lockacq/op")
	b.ReportMetric(float64(giveups.Load())/float64(b.N), "giveups/op")
	if snapshot {
		b.ReportMetric(float64(st.Mvcc.ChainWalks)/float64(b.N), "chainwalks/op")
	}
}

// BenchmarkViewScanParallel is the PR's headline comparison: S-locked
// read-only transactions versus lock-free snapshot reads under a
// concurrent write mix. Run with -cpu=8; CI captures it as
// BENCH_view.json.
func BenchmarkViewScanParallel(b *testing.B) {
	b.Run("scan/slock", func(b *testing.B) { benchViewWork(b, false, "scan") })
	b.Run("scan/snapshot", func(b *testing.B) { benchViewWork(b, true, "scan") })
	b.Run("get/slock", func(b *testing.B) { benchViewWork(b, false, "get") })
	b.Run("get/snapshot", func(b *testing.B) { benchViewWork(b, true, "get") })
}

// BenchmarkHeapSlotChurn measures insert/delete churn on full heap
// pages: every insert must find a reusable tombstone slot. The frame's
// free-slot hint turns the per-insert tombstone scan from O(slots) — a
// full directory walk on a packed page — into first-fit from a cached
// low-water mark.
func BenchmarkHeapSlotChurn(b *testing.B) {
	e := newBenchEngine(b, core.StageFinal)
	store := benchCreateTable(b, e)
	payload := make([]byte, 40)

	// Pack one page with records.
	setup, err := e.Begin()
	if err != nil {
		b.Fatal(err)
	}
	var rids []page.RID
	for i := 0; i < 150; i++ {
		rid, err := e.HeapInsertCtx(context.Background(), setup, store, payload)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 && rid.Page != rids[0].Page {
			break // page full; stay on a single packed page
		}
		rids = append(rids, rid)
	}
	if err := e.Commit(setup); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(rids)
		tx, err := e.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := e.HeapDeleteCtx(context.Background(), tx, store, rids[k]); err != nil {
			b.Fatal(err)
		}
		rid, err := e.HeapInsertCtx(context.Background(), tx, store, payload)
		if err != nil {
			b.Fatal(err)
		}
		rids[k] = rid
		if err := e.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
}
