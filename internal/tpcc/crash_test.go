package tpcc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/closed"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/wal"
)

// The flavours: how a cycle of the crash harness ends.
const (
	cleanCut    = iota // the plug is pulled: only what group commit hardened survives
	tornTail           // the plug is pulled mid log write: a torn tail to clip
	volumeFault        // the volume starts failing writes, then the plug
	logFault           // the log stops hardening, then the plug
)

var flavours = [...]string{"clean cut", "torn tail", "volume fault", "log fault"}

// Shapes of the crash harness.
const (
	crashClients     = 2
	crashSegBytes    = 16 << 10 // log segment: small, so checkpoints archive
	crashAcks        = 100      // acknowledgements per cycle (the checkpoint at half)
	crashMaxRecovery = 30 * time.Second
	crashStop        = 50 * time.Millisecond // from CrashHard until every client stopped
)

// TestCrashKeepsAcknowledgedCommits is the crash harness: on every stage of
// the ladder and on the partition executor, PLP and snapshot reads at final,
// one database over a fault-injecting volume and log lives through cycles of
// traffic, crash and recovery. A cycle starts at a clean point (a cleaner
// sweep and a checkpoint with no traffic), draws a flavour (every four
// cycles see all four), runs the five transactions on two clients with a
// checkpoint half-way, and pulls the plug (CrashHard); a fault cycle pulls
// it once its fault has fired, since under a dead log an in-doubt commit
// keeps its locks and later transactions can only time out. The devices
// are healed and the database reopened, and it must pass Audit: whatever
// was in flight may survive or not, but every acknowledged commit is there.
// The plug is pulled, if that comes within 50 ms, once an active
// transaction has a durable record, and every client must have stopped
// within crashStop of it. Recovery must stay within crashMaxRecovery and
// start its redo no earlier than two segments before the clean point. Over
// the run, torn tails must have been clipped, segments archived and losers
// rolled back, on DORA and PLP at least half as many as at final; a clean
// Close and reopen ends it with one more Audit. The run must also have
// descended the way its stage says: optimistically from final on (DORA,
// PLP and snapshot included), latched on every node below it.
func TestCrashKeepsAcknowledgedCommits(t *testing.T) {
	type config struct {
		name string
		cfg  core.Config
	}
	var configs []config
	for _, stage := range core.Stages() {
		configs = append(configs, config{stage.String(), core.StageConfig(stage)})
	}
	final := core.StageConfig(core.StageFinal)
	dora, plp, snapshot := final, final, final
	dora.DORA, plp.PLP, snapshot.Snapshot = true, true, true
	configs = append(configs, config{"dora", dora}, config{"plp", plp}, config{"snapshot", snapshot})
	long := !testing.Short() && !raceEnabled
	losers, ran := map[string]int{}, 0
	for i, c := range configs {
		cycles := 6
		switch c.name {
		case core.StageFinal.String(), "dora", "plp":
			cycles = 8
			if long {
				cycles = 30
			}
		}
		seed := int64(0x50AC + i)
		t.Run(c.name, func(t *testing.T) {
			losers[c.name] = crashCycles(t, c.cfg, seed, cycles)
			ran++
		})
	}
	// A cycle whose crash finds no transaction with a durable record in
	// flight has no loser: undo is asserted over the whole run, and the
	// partitioned executors must each see at least half final's losers
	// (over the same number of cycles), or their crashes cut too little
	// work in flight to test what a crash leaves of a DORA transaction.
	if ran != len(configs) {
		return
	}
	total := 0
	for _, n := range losers {
		total += n
	}
	if total == 0 {
		t.Error("no loser was rolled back in any configuration")
	}
	for _, name := range []string{"dora", "plp"} {
		if final := losers[core.StageFinal.String()]; long && 2*losers[name] < final {
			t.Errorf("%s rolled back %d losers, under half final's %d", name, losers[name], final)
		}
	}
}

// TestCrashSoakSeeds runs the crash harness again under a few extra seeds,
// so that a lucky flavour order cannot hide a bug behind the fixed seed of
// each configuration: three at final, and one at pipeline, where a
// transaction lets its locks go before its commit is durable.
func TestCrashSoakSeeds(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("TestCrashKeepsAcknowledgedCommits covers short and race runs")
	}
	for _, run := range []struct {
		seed  int64
		stage core.Stage
	}{{1, core.StageFinal}, {7, core.StageFinal}, {1009, core.StageFinal}, {7, core.StagePipeline}} {
		t.Run(fmt.Sprintf("seed=%d/%v", run.seed, run.stage), func(t *testing.T) {
			crashCycles(t, core.StageConfig(run.stage), run.seed, 6)
		})
	}
}

// crashCycles runs TestCrashKeepsAcknowledgedCommits on one configuration
// and returns how many losers its recoveries rolled back.
func crashCycles(t *testing.T, cfg core.Config, seed int64, cycles int) (losers int) {
	ctx := context.Background()
	rng, scale := rand.New(rand.NewSource(seed)), TinyScale()
	vol, logStore := disk.NewFault(disk.NewMem(0)), wal.NewMemSegmentStore(crashSegBytes)
	cfg.Frames, cfg.DoraPartitions, cfg.DoraKeys = 128, 2, scale.Warehouses
	e, err := core.Open(vol, logStore, cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	db, err := Load(e, scale, seed)
	if err != nil {
		e.Close()
		t.Fatalf("seed %d: load: %v", seed, err)
	}
	defer func() { db.Engine.Close() }()
	// restart opens the engine again over the devices and audits db on it.
	restart := func(base Baseline, tally *Tally) (core.RecoveryStats, time.Duration, error) {
		start := time.Now()
		e, err := core.Open(vol, logStore, cfg)
		if err != nil {
			return core.RecoveryStats{}, 0, err
		}
		took := time.Since(start)
		re, err := db.Reopen(e)
		if err != nil {
			e.Close()
			return core.RecoveryStats{}, 0, err
		}
		db = re
		return e.Stats().Recovery, took, db.Audit(ctx, base, tally)
	}

	var tornBytes int64
	var speculated, fellBack uint64 // optimistic descents and leaf reads, segment trees included; fallbacks to latched
	var order []int
	for cycle := 0; cycle < cycles; cycle++ {
		if cycle%4 == 0 {
			order = rng.Perm(4)
		}
		f := order[cycle%4]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, cycle %d (%s): %s", seed, cycle, flavours[f], fmt.Sprintf(format, args...))
		}

		// The clean point: with no traffic, every dirty page is written and
		// a checkpoint taken over an empty dirty page table.
		e := db.Engine
		e.Pool().CleanerSweep()
		if err := e.Checkpoint(); err != nil {
			fail("checkpoint at the clean point: %v", err)
		}
		cleanFloor := logStore.Size()
		base, err := db.Baseline(ctx)
		if err != nil {
			fail("baseline: %v", err)
		}
		switch f {
		case volumeFault:
			vol.FailWritesAfter(int64(rng.Intn(40)))
		case logFault:
			logStore.FailFlushes(int64(rng.Intn(60)))
		}
		faulty := f == volumeFault || f == logFault

		// Every other client commits with no cancellation, so that both of
		// awaitDurable's waits (the blocking flush and the subscription)
		// meet the crash. Each counts what it begins after the crash and
		// keeps the answers given once the crash began that are lock
		// timeouts (a crash wakes every lock waiter), or that are not
		// closed for a transaction begun after it.
		var crashing, crashed atomic.Bool
		var late [crashClients]atomic.Int32
		var wrongMu sync.Mutex
		var wrong []error
		clients := 0
		open := func() Executor {
			c, ex := clients, db.Executor()
			clients++
			at := func(ctx context.Context) (context.Context, func(error) error) {
				began := crashed.Load()
				if began {
					late[c].Add(1)
				}
				if c%2 == 1 {
					ctx = context.WithoutCancel(ctx)
				}
				return ctx, func(err error) error {
					if crashing.Load() && (errors.Is(err, lock.ErrTimeout) || began && !errors.Is(err, closed.Err)) {
						wrongMu.Lock()
						wrong = append(wrong, err)
						wrongMu.Unlock()
					}
					return err
				}
			}
			return Executor{
				Payment: func(ctx context.Context, in PaymentInput) error {
					ctx, answer := at(ctx)
					return answer(ex.Payment(ctx, in))
				},
				NewOrder: func(ctx context.Context, in NewOrderInput) error {
					ctx, answer := at(ctx)
					return answer(ex.NewOrder(ctx, in))
				},
				OrderStatus: func(ctx context.Context, in OrderStatusInput) (OrderStatusResult, error) {
					ctx, answer := at(ctx)
					res, err := ex.OrderStatus(ctx, in)
					return res, answer(err)
				},
				StockLevel: func(ctx context.Context, in StockLevelInput) (int, error) {
					ctx, answer := at(ctx)
					low, err := ex.StockLevel(ctx, in)
					return low, answer(err)
				},
				Delivery: func(ctx context.Context, in DeliveryInput) (int, error) {
					ctx, answer := at(ctx)
					n, err := ex.Delivery(ctx, in)
					return n, answer(err)
				},
			}
		}
		tally := NewTally(scale)
		runCtx, cancel := context.WithCancel(ctx)
		drained := make(chan struct{})
		go func() {
			Drive(runCtx, open, Mix{Payment: 40, NewOrder: 45, OrderStatus: 5, StockLevel: 5, Delivery: 5}, crashClients, rng.Int63(), tally)
			close(drained)
		}()
		// A fault has fired once a transaction failed.
		fired := func() bool { return faulty && tally.Failed.Sum() > 0 }
		if !awaitAcks(fail, tally, crashAcks/2, fired) {
			if err := e.Checkpoint(); err != nil && !(faulty && (errors.Is(err, disk.ErrInjected) || errors.Is(err, wal.ErrInjectedFlush))) {
				fail("checkpoint: %v", err)
			}
			awaitAcks(fail, tally, crashAcks, fired)
		}
		failed := tally.Failed.Sum()
		// Read before the wait for a transaction in flight, which Stats
		// would lengthen.
		bt := e.Stats().Btree
		speculated += bt.OptDescents + bt.OptLeafReads + bt.OwnerDescents + bt.OwnerReads
		fellBack += bt.Fallbacks + bt.OwnerFallbacks

		if f == tornTail {
			logStore.ArmTornCrash(int64(1 + rng.Intn(3000)))
		}
		// The plug is pulled, if that comes soon, once a transaction that
		// has not committed has a durable record: the crash then cuts work
		// in flight, which restart must roll back.
		inFlight := func() bool {
			durable := e.Log().DurableLSN()
			for _, t := range e.Txns().Snapshot() { // active, not committing
				if t.LastLSN != wal.NullLSN && t.LastLSN < durable {
					return true
				}
			}
			return false
		}
		for wait := time.Now().Add(50 * time.Millisecond); !inFlight() && time.Now().Before(wait); {
			runtime.Gosched()
		}
		crashing.Store(true)
		crashAt := time.Now()
		e.CrashHard()
		crashed.Store(true)
		select {
		case <-drained: // every client stopped at the crash's answer
		case <-time.After(time.Minute):
			fail("the clients still run a minute after the crash")
		}
		stopped := time.Since(crashAt)
		cancel()
		if stopped > crashStop {
			fail("the clients stopped %v after the crash, bound %v", stopped, crashStop)
		}
		if failed != 0 && !faulty {
			fail("%d transactions failed before the crash: %v", failed, tally.Errors)
		}
		for c := range late {
			if n := late[c].Load(); n > 1 {
				fail("client %d began %d transactions after the crash, want at most 1", c, n)
			}
		}
		if len(wrong) > 0 {
			fail("answers after the crash that are lock timeouts or not closed: %v", wrong)
		}
		if f == tornTail {
			// What the disk had in flight: garbage past the surviving
			// prefix, possibly across a segment boundary.
			garbage := make([]byte, 1+rng.Intn(3000))
			rng.Read(garbage)
			if err := logStore.WriteAt(garbage, logStore.Size()); err != nil {
				fail("splatter: %v", err)
			}
		}
		vol.HealWrites()
		logStore.FailFlushes(-1)

		rs, took, err := restart(base, tally)
		switch {
		case err != nil:
			fail("restart and audit: %v", err)
		case took > crashMaxRecovery:
			fail("recovery took %v, bound %v", took, crashMaxRecovery)
		case !rs.Ran:
			fail("recovery did not run")
		case int64(rs.RedoStart)+2*crashSegBytes < cleanFloor:
			fail("redo started at %d, before the clean point %d: checkpoints do not bound recovery", rs.RedoStart, cleanFloor)
		}
		tornBytes += rs.TornBytesClipped
		losers += rs.Losers
		t.Logf("cycle %02d %-12s acked %4d, failed %3d; stopped in %v; recovery %v, redo %d B, torn %d B, %d losers",
			cycle, flavours[f], tally.Acked.Sum(), tally.Failed.Sum(), stopped.Round(time.Microsecond), took.Round(time.Millisecond),
			rs.LogEnd-rs.RedoStart, rs.TornBytesClipped, rs.Losers)
	}
	if tornBytes == 0 {
		t.Errorf("seed %d: no torn tail was clipped in %d cycles", seed, cycles)
	}
	if logStore.Archived() == 0 {
		t.Errorf("seed %d: no log segment was archived in %d cycles", seed, cycles)
	}
	t.Logf("%d optimistic descents and leaf reads, %d fallbacks", speculated, fellBack)
	if optimistic := cfg.Stage >= core.StageFinal; optimistic && speculated == 0 {
		t.Errorf("seed %d: %v descends optimistically, but no optimistic descent or leaf read was recorded", seed, cfg.Stage)
	} else if !optimistic && speculated+fellBack != 0 {
		t.Errorf("seed %d: %v latches every descent, but %d optimistic descents or leaf reads and %d fallbacks were recorded", seed, cfg.Stage, speculated, fellBack)
	}

	base, err := db.Baseline(ctx)
	if err == nil {
		err = db.Engine.Close()
	}
	if err == nil {
		_, _, err = restart(base, NewTally(scale))
	}
	if err != nil {
		t.Fatalf("seed %d: after the final clean close: %v", seed, err)
	}
	return losers
}

// awaitAcks waits until tally's clients have been acknowledged n times or
// stop, if not nil, holds, and reports whether it was stop. It fails
// through fatalf after a minute.
func awaitAcks(fatalf func(string, ...any), tally *Tally, n uint64, stop func() bool) bool {
	for deadline := time.Now().Add(time.Minute); tally.Acked.Sum() < n; time.Sleep(time.Millisecond) {
		if stop != nil && stop() {
			return true
		}
		if time.Now().After(deadline) {
			fatalf("%d of %d acknowledgements after a minute; failures: %v", tally.Acked.Sum(), n, tally.Errors)
		}
	}
	return false
}
