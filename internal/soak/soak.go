// Package soak is a kill-and-recover crash-soak harness: a bank-transfer
// workload (TPC-C-style read-modify-write traffic over a heap table and a
// B-tree index) runs over fault-injecting stores, the engine is killed at
// a randomized point in a randomized way — clean power cut, torn log
// tail, failing volume writes, failing log fsyncs — recovered, and
// audited. The audit is unforgiving: money is conserved to the cent
// across every crash, the index stays structurally sound and consistent
// with the heap, and recovery work stays bounded by the checkpoint
// cadence no matter how long the run gets.
package soak

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/tx"
	"repro/internal/wal"
)

// Config parameterizes a soak run. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	Cycles     int   // kill-and-recover cycles
	Accounts   int   // bank accounts
	Workers    int   // concurrent transfer goroutines
	Rounds     int   // traffic rounds per cycle (checkpoint between rounds)
	OpsPerTurn int   // transfers per worker per round
	Seed       int64 // randomization seed (runs are reproducible)

	Stage core.Stage // engine preset (StagePipeline: locks go before the commit is durable)

	SegmentBytes int64         // log segment size
	Frames       int           // buffer pool frames (small forces evictions)
	MaxRecovery  time.Duration // hard bound on a single recovery

	Logf func(format string, args ...any) // optional progress logging
}

// DefaultConfig returns the standard soak shape: 30 cycles, 64 accounts,
// 4 workers, the finished Shore-MT.
func DefaultConfig(seed int64) Config {
	return Config{
		Cycles:       30,
		Accounts:     64,
		Workers:      4,
		Rounds:       3,
		OpsPerTurn:   12,
		Seed:         seed,
		Stage:        core.StageFinal,
		SegmentBytes: 16 << 10,
		Frames:       128,
		MaxRecovery:  30 * time.Second,
	}
}

// Result summarizes a completed soak run.
type Result struct {
	Cycles           int
	CrashModes       map[string]int
	Transfers        uint64 // committed transfers across all cycles
	TornBytesClipped int64  // total torn-tail bytes recovery clipped
	SegmentsArchived uint64 // log segments reclaimed by checkpoints
	MaxRecoveryTime  time.Duration
	MaxRedoSpan      int64 // largest redo window (bytes) seen
}

const initialBalance = 1000

// account row: 8-byte id, 8-byte balance (two's complement).
func encodeAccount(id uint64, balance int64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[8:], uint64(balance))
	return b
}

func decodeAccount(b []byte) (id uint64, balance int64, err error) {
	if len(b) != 16 {
		return 0, 0, fmt.Errorf("soak: account row is %d bytes, want 16", len(b))
	}
	return binary.LittleEndian.Uint64(b), int64(binary.LittleEndian.Uint64(b[8:])), nil
}

func encodeBalance(balance int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(balance))
	return b
}

func accountKey(id uint64) []byte { return []byte(fmt.Sprintf("acct-%08d", id)) }

// crash modes, picked per cycle.
const (
	crashClean    = "clean"     // plain power cut at the durable boundary
	crashTornLog  = "torn-log"  // power cut mid log write: torn tail to clip
	crashVolFault = "vol-fault" // volume starts rejecting writes, then power cut
	crashLogFault = "log-fault" // log device stops hardening, then power cut
)

var crashModes = [...]string{crashClean, crashTornLog, crashVolFault, crashLogFault}

// Run executes the soak and returns its summary, or the first audit
// failure. All state lives in memory; a run is deterministic for a given
// Config.
func Run(cfg Config) (*Result, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vol := disk.NewFault(disk.NewMem(0))
	logStore := wal.NewMemSegmentStore(cfg.SegmentBytes)
	res := &Result{CrashModes: map[string]int{}}
	total := int64(cfg.Accounts) * initialBalance
	// Never cancelled, but cancellable: a commit that waits under it waits
	// on a log subscription instead of blocking in Flush.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	engCfg := func() core.Config {
		c := core.StageConfig(cfg.Stage)
		c.Frames = cfg.Frames
		c.LockTimeout = 200 * time.Millisecond
		c.RedoWorkers = 4
		c.Seed = cfg.Seed
		return c
	}

	// Genesis: accounts, index, first checkpoint.
	e, err := core.Open(vol, logStore, engCfg())
	if err != nil {
		return nil, fmt.Errorf("soak: genesis open: %w", err)
	}
	var store, ixStore uint32
	{
		tx, err := e.Begin()
		if err != nil {
			return nil, err
		}
		if store, err = e.CreateTable(tx); err != nil {
			return nil, err
		}
		ix, err := e.CreateIndex(tx)
		if err != nil {
			return nil, err
		}
		ixStore = ix.Store()
		for id := uint64(0); id < uint64(cfg.Accounts); id++ {
			if _, err := e.HeapInsert(tx, store, encodeAccount(id, initialBalance)); err != nil {
				return nil, err
			}
			if err := e.IndexInsert(tx, ix, accountKey(id), encodeBalance(initialBalance)); err != nil {
				return nil, err
			}
		}
		if err := e.Commit(tx); err != nil {
			return nil, err
		}
		if err := e.Checkpoint(); err != nil {
			return nil, err
		}
	}

	// cleanFloor is the log size at the most recent successful cleaner
	// sweep + checkpoint: no redo window opened before it can survive past
	// it, so every later recovery must start at or above it (minus the
	// checkpoint records themselves). This is the "recovery work is
	// bounded by checkpoint cadence, not log volume" invariant.
	cleanFloor := int64(0)

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		// Traffic: rounds of concurrent transfers with checkpoints between
		// them, under whatever faults this cycle's crash mode arms.
		mode := crashModes[rng.Intn(len(crashModes))]
		res.CrashModes[mode]++
		switch mode {
		case crashVolFault:
			vol.FailWritesAfter(int64(rng.Intn(40)))
		case crashLogFault:
			logStore.FailFlushes(int64(rng.Intn(60)))
		}
		for round := 0; round < cfg.Rounds; round++ {
			var wg sync.WaitGroup
			committed := make([]uint64, cfg.Workers)
			for w := 0; w < cfg.Workers; w++ {
				w, seed := w, rng.Int63()
				wg.Add(1)
				go func() {
					defer wg.Done()
					committed[w] = transferWorker(ctx, e, store, ixStore, cfg.Accounts, cfg.OpsPerTurn, seed)
				}()
			}
			wg.Wait()
			for _, n := range committed {
				res.Transfers += n
			}
			// Fuzzy checkpoint between rounds; under injected faults it may
			// fail, which is fine — the crash is coming anyway.
			if err := e.Checkpoint(); err != nil && !isExpectedFault(err) {
				return nil, fmt.Errorf("soak cycle %d: checkpoint: %w", cycle, err)
			}
		}

		// Try to establish a clean point: flush all dirty pages, then
		// checkpoint over the empty dirty-page table. Under injected
		// faults either step may fail — the floor simply stays put.
		e.Pool().CleanerSweep() // best-effort under injected faults
		if mode != crashVolFault && mode != crashLogFault {
			// Faults may have left pages dirty or the log unflushable; only
			// a fault-free sweep + checkpoint establishes a clean point.
			if err := e.Checkpoint(); err == nil {
				cleanFloor = logStore.Size()
			} else if !isExpectedFault(err) {
				return nil, fmt.Errorf("soak cycle %d: clean-point checkpoint: %w", cycle, err)
			}
		}

		// Leave losers: transactions caught mid-flight by the crash.
		for i := 0; i < 2; i++ {
			loserTransfer(ctx, e, store, ixStore, cfg.Accounts, rng.Int63())
		}
		_ = e.Log().Flush(e.Log().CurLSN()) // may fail under log faults

		// Kill.
		if mode == crashTornLog {
			logStore.ArmTornCrash(int64(1 + rng.Intn(3000)))
		}
		e.CrashHard()
		if mode == crashTornLog {
			// The write the disk had in flight: garbage past the surviving
			// prefix, possibly across a segment boundary.
			garbage := make([]byte, 1+rng.Intn(3000))
			rng.Read(garbage)
			if err := logStore.WriteAt(garbage, logStore.Size()); err != nil {
				return nil, fmt.Errorf("soak cycle %d: splatter: %w", cycle, err)
			}
		}

		// Heal the hardware and recover.
		vol.HealWrites()
		vol.HealTornWrites()
		vol.HealSyncs()
		logStore.FailFlushes(-1)

		start := time.Now()
		e, err = core.Open(vol, logStore, engCfg())
		if err != nil {
			return nil, fmt.Errorf("soak cycle %d (%s): recovery failed: %w", cycle, mode, err)
		}
		rt := time.Since(start)
		if rt > res.MaxRecoveryTime {
			res.MaxRecoveryTime = rt
		}
		if rt > cfg.MaxRecovery {
			return nil, fmt.Errorf("soak cycle %d (%s): recovery took %v (bound %v)", cycle, mode, rt, cfg.MaxRecovery)
		}

		rs := e.Stats().Recovery
		if !rs.Ran {
			return nil, fmt.Errorf("soak cycle %d: recovery did not run", cycle)
		}
		res.TornBytesClipped += rs.TornBytesClipped
		span := int64(rs.LogEnd - rs.RedoStart)
		if span > res.MaxRedoSpan {
			res.MaxRedoSpan = span
		}
		// Redo must never reach back past the last clean point (with slack
		// for the checkpoint records logged around the floor itself).
		if int64(rs.RedoStart)+2*cfg.SegmentBytes < cleanFloor {
			return nil, fmt.Errorf("soak cycle %d: redo started at %d, before the clean point %d — checkpoints are not bounding recovery",
				cycle, rs.RedoStart, cleanFloor)
		}

		if err := audit(e, store, ixStore, cfg.Accounts, total); err != nil {
			return nil, fmt.Errorf("soak cycle %d (%s): %w", cycle, mode, err)
		}
		logf("cycle %02d/%d %-9s recovery=%v redo=%dB torn=%dB archived=%d",
			cycle+1, cfg.Cycles, mode, rt.Round(time.Millisecond),
			int64(rs.LogEnd-rs.RedoStart), rs.TornBytesClipped, logStore.Archived())
	}

	// Final clean shutdown and one last audit through a fresh open.
	if err := e.Close(); err != nil {
		return nil, fmt.Errorf("soak: final close: %w", err)
	}
	e, err = core.Open(vol, logStore, engCfg())
	if err != nil {
		return nil, fmt.Errorf("soak: final reopen: %w", err)
	}
	if err := audit(e, store, ixStore, cfg.Accounts, total); err != nil {
		return nil, fmt.Errorf("soak: final audit: %w", err)
	}
	if err := e.Close(); err != nil {
		return nil, err
	}

	res.Cycles = cfg.Cycles
	res.SegmentsArchived = logStore.Archived()
	if res.SegmentsArchived == 0 {
		return nil, errors.New("soak: no log segments were ever archived — checkpointing is not reclaiming the log")
	}
	return res, nil
}

// transferWorker runs n random transfers and returns how many committed.
// Any error — deadlock, timeout, injected fault, engine killed — aborts
// that transfer and moves on: the post-crash audit is the arbiter.
func transferWorker(ctx context.Context, e *core.Engine, store, ixStore uint32, accounts, n int, seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	var committed uint64
	for i := 0; i < n; i++ {
		if transferOnce(ctx, e, store, ixStore, accounts, rng, true) {
			committed++
		}
	}
	return committed
}

// loserTransfer performs a transfer's updates and deliberately never
// commits: crash fodder for the undo pass.
func loserTransfer(ctx context.Context, e *core.Engine, store, ixStore uint32, accounts int, seed int64) {
	transferOnce(ctx, e, store, ixStore, accounts, rand.New(rand.NewSource(seed)), false)
}

// transferOnce moves a random amount between two random accounts inside
// one transaction, updating both the heap rows and the index entries.
// When commit is false the transaction is left open. Returns whether the
// transfer committed. Both durability waits get traffic: odd amounts commit
// under ctx, even ones under none.
func transferOnce(ctx context.Context, e *core.Engine, store, ixStore uint32, accounts int, rng *rand.Rand, commit bool) bool {
	a := uint64(rng.Intn(accounts))
	b := uint64(rng.Intn(accounts))
	if a == b {
		b = (b + 1) % uint64(accounts)
	}
	if a > b {
		a, b = b, a // lock in id order: fewer deadlocks, same coverage
	}
	amount := int64(1 + rng.Intn(50))

	tx, err := e.Begin()
	if err != nil {
		return false
	}
	ix, err := e.OpenIndex(ixStore)
	if err != nil {
		_ = e.Abort(tx)
		return false
	}
	move := func(id uint64, delta int64) error {
		rid, bal, err := findAccount(e, tx, store, id)
		if err != nil {
			return err
		}
		if err := e.HeapUpdate(tx, store, rid, encodeAccount(id, bal+delta)); err != nil {
			return err
		}
		return e.IndexUpdate(tx, ix, accountKey(id), encodeBalance(bal+delta))
	}
	if err := move(a, -amount); err != nil {
		_ = e.Abort(tx)
		return false
	}
	if err := move(b, +amount); err != nil {
		_ = e.Abort(tx)
		return false
	}
	if !commit {
		return false // left open on purpose
	}
	if amount%2 == 0 {
		ctx = context.Background()
	}
	return e.CommitCtx(ctx, tx) == nil
}

// findAccount scans for the heap row of an account. Linear, but tables
// are tiny and the scan doubles as read traffic over every page.
func findAccount(e *core.Engine, t *tx.Tx, store uint32, id uint64) (page.RID, int64, error) {
	var rid page.RID
	var balance int64
	found := false
	err := e.HeapScan(t, store, func(r page.RID, rec []byte) bool {
		gotID, bal, err := decodeAccount(rec)
		if err != nil {
			return true
		}
		if gotID == id {
			rid, balance, found = r, bal, true
			return false
		}
		return true
	})
	if err != nil {
		return rid, 0, err
	}
	if !found {
		return rid, 0, fmt.Errorf("soak: account %d missing", id)
	}
	return rid, balance, nil
}

// audit checks the conservation invariant and structural integrity after
// a recovery: every account present exactly once, heap and index agree on
// every balance, the balances sum to the initial total, and the B-tree
// verifies.
func audit(e *core.Engine, store, ixStore uint32, accounts int, total int64) error {
	tx, err := e.Begin()
	if err != nil {
		return err
	}
	defer func() { _ = e.Commit(tx) }()

	heapBal := make(map[uint64]int64, accounts)
	var heapSum int64
	var scanErr error
	if err := e.HeapScan(tx, store, func(_ page.RID, rec []byte) bool {
		id, bal, err := decodeAccount(rec)
		if err != nil {
			scanErr = err
			return false
		}
		if _, dup := heapBal[id]; dup {
			scanErr = fmt.Errorf("account %d appears twice in the heap", id)
			return false
		}
		heapBal[id] = bal
		heapSum += bal
		return true
	}); err != nil {
		return fmt.Errorf("audit heap scan: %w", err)
	}
	if scanErr != nil {
		return fmt.Errorf("audit: %w", scanErr)
	}
	if len(heapBal) != accounts {
		return fmt.Errorf("audit: %d heap accounts, want %d", len(heapBal), accounts)
	}
	if heapSum != total {
		return fmt.Errorf("audit: money not conserved: heap sum %d, want %d", heapSum, total)
	}

	ix, err := e.OpenIndex(ixStore)
	if err != nil {
		return err
	}
	n := 0
	if err := e.IndexScan(tx, ix, nil, nil, func(key, val []byte) bool {
		var id uint64
		if _, err := fmt.Sscanf(string(key), "acct-%d", &id); err != nil {
			scanErr = fmt.Errorf("bad index key %q", key)
			return false
		}
		if len(val) != 8 {
			scanErr = fmt.Errorf("bad index value for %q", key)
			return false
		}
		bal := int64(binary.LittleEndian.Uint64(val))
		if heapBal[id] != bal {
			scanErr = fmt.Errorf("account %d: index says %d, heap says %d", id, bal, heapBal[id])
			return false
		}
		n++
		return true
	}); err != nil {
		return fmt.Errorf("audit index scan: %w", err)
	}
	if scanErr != nil {
		return fmt.Errorf("audit: %w", scanErr)
	}
	if n != accounts {
		return fmt.Errorf("audit: %d index entries, want %d", n, accounts)
	}
	if count, err := ix.Verify(); err != nil {
		return fmt.Errorf("audit: index corrupt: %w", err)
	} else if count != accounts {
		return fmt.Errorf("audit: Verify counted %d keys, want %d", count, accounts)
	}
	return nil
}

// isExpectedFault reports whether an error plausibly stems from injected
// faults or the impending kill rather than a bug.
func isExpectedFault(err error) bool {
	return errors.Is(err, disk.ErrInjected) || errors.Is(err, wal.ErrInjectedFlush) ||
		errors.Is(err, wal.ErrLogClosed) || errors.Is(err, core.ErrClosed)
}
