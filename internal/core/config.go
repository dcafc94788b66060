// Package core wires the substrates — buffer pool, log manager, lock
// manager, free-space manager, transaction manager, B-tree — into the
// storage manager whose optimization journey the Shore-MT paper narrates.
// Every Figure 7 stage is a Config preset; Figure 6's mutex variants are a
// Config knob on the free-space manager.
package core

import (
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/lock"
	"repro/internal/space"
	"repro/internal/sync2"
	"repro/internal/wal"
)

// Stage names one point on the Figure 7 optimization ladder.
type Stage int

// Optimization stages, in the order §7 applies them.
const (
	StageBaseline Stage = iota // §7.1: global mutexes everywhere
	StageBpool1                // §7.2: per-bucket bpool locks, atomic pin
	StageCaching               // §7.3: free-space refactor, caches, hot array
	StageLog                   // §7.4: decoupled log, cuckoo bpool table
	StageLockMgr               // §7.5: per-bucket lock table, lock-free pool
	StageBpool2                // §7.6: clock-hand release, partitioned transit
	StageFinal                 // §7.7: consolidated log, cleaner checkpoints
	StagePipeline              // beyond the paper: early lock release at the commit record
)

// String names the stage as Figure 7 labels it.
func (s Stage) String() string {
	switch s {
	case StageBaseline:
		return "baseline"
	case StageBpool1:
		return "bpool1"
	case StageCaching:
		return "caching"
	case StageLog:
		return "log"
	case StageLockMgr:
		return "lock mgr"
	case StageBpool2:
		return "bpool2"
	case StageFinal:
		return "final"
	case StagePipeline:
		return "pipeline"
	default:
		return "unknown"
	}
}

// Stages lists all stages in order.
func Stages() []Stage {
	return []Stage{StageBaseline, StageBpool1, StageCaching, StageLog, StageLockMgr, StageBpool2, StageFinal, StagePipeline}
}

// What a stage decides beyond StageConfig's fields. These are rungs of the
// ladder, not a caller's choice, so the stage answers them here and the
// engine asks nowhere else.

// ProbesLockTable reports whether B-tree probes search the lock table
// first, the unnecessary work §7.7 removed.
func (s Stage) ProbesLockTable() bool { return s < StageFinal }

// CleanerCheckpoint reports whether a checkpoint takes its dirty-page
// low-water mark from the page cleaner (§7.7) instead of serially
// sweeping the buffer pool.
func (s Stage) CleanerCheckpoint() bool { return s >= StageFinal }

// EarlyLockRelease reports whether a committing transaction releases its
// locks as soon as its commit record is in the log (Early Lock Release)
// instead of after the record is durable. The wait itself is the same on
// every stage — one drain of the log, which group commit shares; Commit
// blocks on it, CommitAsync hands it back.
func (s Stage) EarlyLockRelease() bool { return s >= StagePipeline }

// escalateAfter is the row-lock count per store past which a transaction
// trades its row locks for one store lock, retried each time the count
// doubles: above TPC-C's footprints, so only bulk work escalates.
const escalateAfter = 256

// Config selects component implementations. Use StageConfig for the
// paper's presets; a stage decides everything that follows from it (see
// Stage's methods), and the fields below choose sizes, intervals, the
// sub-structs' variants for an ablation, and the features orthogonal to
// the ladder (DORA, PLP, Snapshot).
type Config struct {
	// Stage names the preset. Besides what StageConfig sets, it decides
	// the latch policy of B-tree descents on shared trees (optimistic
	// latch coupling from StageFinal on, the paper's latched descent below
	// it), the lock-table probe, the checkpoint's dirty-page source and
	// early lock release: see Stage's methods.
	Stage Stage

	Frames      int           // buffer pool frames (default 4096)
	LogBuffer   int           // log buffer bytes (default 1 MiB)
	LockTimeout time.Duration // lock wait bound (default 500ms)

	Buffer    buffer.Options
	LogDesign wal.Design
	Lock      lock.Options
	Space     space.Options
	// CleanerInterval runs the background dirty-page cleaner (0 disables).
	CleanerInterval time.Duration
	// DORA enables data-oriented execution (the Shore-MT authors' VLDB
	// 2010 follow-up): the engine owns a partition executor that routes
	// decomposed transaction actions to dedicated partition-owner
	// goroutines, each with a thread-local lock table. Sub-transactions
	// begun through the executor bypass the shared lock manager
	// entirely (EngineStats.Dora.LocalAcquires counts the grants that
	// never touched it). Orthogonal to Stage.
	DORA bool
	// DoraPartitions fixes the executor's partition count; 0 auto-scales
	// to GOMAXPROCS (mirroring buffer.AutoShards).
	DoraPartitions int
	// DoraKeys, when positive, is the routing keyspace size (TPC-C: the
	// warehouse count); a larger partition count is clamped to it with a
	// logged warning. PLP requires it: the keyspace sizes every segment
	// forest, and Open refuses PLP without it.
	DoraKeys int
	// PLP enables physiological partitioning (the DORA authors' own
	// follow-up): every partitioned index becomes a forest of per-
	// routing-key B-tree segments, and the partition that owns a routing
	// key is the only writer that ever mutates its segments — so
	// partition-local index operations descend, split, and scan on
	// validated speculative page images with no latch acquisition at all
	// (EngineStats.Btree.Owner* counters observe the bypass). The
	// segment catalog (keyspace size + segment roots) lives in a catalog
	// store and is rebuilt by crash recovery. Ownership is DORA's Route,
	// (key-1) mod DoraPartitions, fixed at open. Implies DORA.
	PLP bool
	// Snapshot enables multiversion snapshot reads: writers install the
	// before-image of every row/key they touch in an in-memory version
	// store, stamped at commit with their harden target, and read-only
	// transactions begun with BeginSnapshot (the public DB.View) pin the
	// durable horizon as their snapshot LSN and resolve anything newer by
	// walking the chain — no lock-manager interaction at all, so long
	// scans neither block writers nor abort. Version garbage collection
	// rides the checkpoint (entries below the oldest pinned snapshot are
	// dropped), so Snapshot brings a checkpoint cadence of its own: 8 MiB
	// of log when CheckpointEvery is 0. Orthogonal to Stage, like DORA.
	Snapshot bool
	// CheckpointEvery, when positive, runs a background fuzzy checkpoint
	// whenever that many log bytes have accumulated since the last one,
	// bounding restart-recovery work without manual Checkpoint calls.
	// 0 means none, or 8 MiB under Snapshot; negative means none.
	CheckpointEvery int64
	// RedoWorkers sets the parallelism of the redo pass of restart
	// recovery: log records fan out to workers hash-partitioned by page
	// ID, preserving per-page LSN order. 0 auto-scales to GOMAXPROCS.
	RedoWorkers int
}

// StageConfig returns the paper's preset for stage.
func StageConfig(stage Stage) Config {
	c := Config{
		Stage:       stage,
		Frames:      4096,
		LogBuffer:   wal.DefaultBufferSize,
		LockTimeout: 500 * time.Millisecond,
	}
	// Baseline defaults (original Shore): global mutexes, coupled log,
	// one global clock hand.
	c.Buffer = buffer.Options{
		Table:             buffer.TableGlobalChain,
		AtomicPin:         false,
		TransitPartitions: 1,
		Shards:            1,
	}
	c.LogDesign = wal.DesignCoupled
	c.Lock = lock.Options{Table: lock.TableGlobal, Pool: lock.PoolMutex}
	c.Space = space.Options{Mutex: sync2.KindBlocking, LatchInCS: true}

	if stage >= StageBpool1 {
		c.Buffer.Table = buffer.TablePerBucketChain
		c.Buffer.AtomicPin = true
	}
	if stage >= StageCaching {
		c.Buffer.HotArray = 256
		c.Space = space.Options{Mutex: sync2.KindMCS, LatchInCS: false, LastPageCache: true}
	}
	if stage >= StageLog {
		c.LogDesign = wal.DesignDecoupled
		c.Buffer.Table = buffer.TableCuckoo
		c.Space.ExtentCache = true
	}
	if stage >= StageLockMgr {
		c.Lock.Table = lock.TablePerBucket
		c.Lock.Pool = lock.PoolLockFree
	}
	if stage >= StageBpool2 {
		c.Buffer.ClockHandRelease = true
		c.Buffer.TransitPartitions = 128
		c.Buffer.TransitBypass = true
		// Beyond the paper's §7.6 (which only shortened the clock critical
		// section): shard replacement into GOMAXPROCS-scaled clock regions
		// with per-shard free lists kept full by the cleaner.
		c.Buffer.Shards = buffer.AutoShards
	}
	if stage >= StageFinal {
		c.LogDesign = wal.DesignConsolidated
	}
	return c
}

// normalize fills defaults on a partially specified config.
func (c *Config) normalize() {
	if c.Frames <= 0 {
		c.Frames = 4096
	}
	if c.LogBuffer <= 0 {
		c.LogBuffer = wal.DefaultBufferSize
	}
	if c.LockTimeout == 0 {
		c.LockTimeout = 500 * time.Millisecond
	}
	if c.RedoWorkers <= 0 {
		c.RedoWorkers = runtime.GOMAXPROCS(0)
	}
	if c.PLP {
		// PLP layers on DORA: routing, ownership, and the single-writer
		// discipline all come from the partition executor.
		c.DORA = true
	}
	if c.Snapshot && c.CheckpointEvery == 0 {
		// Version GC runs only inside a checkpoint: without a cadence,
		// snapshot versions would pile up until a manual Checkpoint.
		c.CheckpointEvery = 8 << 20
	}
	c.Buffer.Frames = c.Frames
	c.Lock.DefaultTimeout = c.LockTimeout
}
