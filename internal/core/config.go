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

// Config selects component implementations. Use StageConfig for the
// paper's presets and tweak fields for ablations.
type Config struct {
	Stage Stage

	Frames        int           // buffer pool frames (default 4096)
	LogBuffer     int           // log buffer bytes (default 1 MiB)
	LockTimeout   time.Duration // lock wait bound (default 500ms)
	EscalateAfter int           // row locks per store before escalating, retried as the count doubles (default 256, above TPC-C's footprints; <0 disables)

	Buffer       buffer.Options
	LogDesign    wal.Design
	Lock         lock.Options
	Space        space.Options
	CachedOldest bool
	// ProbeLockTable re-enables the unnecessary lock-table search on B-tree
	// probes that §7.7 removed.
	ProbeLockTable bool
	// CleanerCheckpoint uses the page-cleaner-tracked LSN for checkpoints
	// (§7.7) instead of serially scanning the buffer pool.
	CleanerCheckpoint bool
	// CleanerInterval runs the background dirty-page cleaner (0 disables).
	CleanerInterval time.Duration
	// CommitPipeline (StagePipeline) decides when a committing transaction
	// releases its locks: as soon as the commit record is in the log
	// (Early Lock Release) instead of after the record is durable. The
	// wait itself is the same on every stage — a subscription to the log's
	// one flusher; Commit blocks on it, CommitAsync hands it back.
	CommitPipeline bool
	// OLC enables optimistic latch coupling on B-tree descents: inner
	// nodes are read speculatively against the frame latch's version
	// (no pin-count or latch RMWs on the read path), restarting from the
	// root on validation failure and falling back to the classic latched
	// descent after bounded retries. Leaves keep SH/EX latching and the
	// Lehman-Yao move-right rules, so crash consistency and key-lock
	// semantics are unchanged. Observability: EngineStats.Btree
	// (OptDescents / Restarts / Fallbacks).
	OLC bool
	// DORA enables data-oriented execution (the Shore-MT authors' VLDB
	// 2010 follow-up): the engine owns a partition executor that routes
	// decomposed transaction actions to dedicated partition-owner
	// goroutines, each with a thread-local lock table. Sub-transactions
	// begun through the executor bypass the shared lock manager
	// entirely (EngineStats.Dora.LocalAcquires counts the grants that
	// never touched it). Orthogonal to Stage, like OLC.
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
	// partition map (segment roots + ownership bounds) lives in a
	// catalog store and is rebuilt by crash recovery. Ownership is an
	// even split of the routing keyspace, fixed at open. Implies DORA.
	PLP bool
	// Snapshot enables multiversion snapshot reads: writers install the
	// before-image of every row/key they touch in an in-memory version
	// store, stamped at commit with their harden target, and read-only
	// transactions begun with BeginSnapshot (the public DB.View) pin the
	// durable horizon as their snapshot LSN and resolve anything newer by
	// walking the chain — no lock-manager interaction at all, so long
	// scans neither block writers nor abort. Version garbage collection
	// rides the checkpoint (entries below the oldest pinned snapshot are
	// dropped). Orthogonal to Stage, like OLC and DORA.
	Snapshot bool
	// CheckpointEvery, when positive, runs a background fuzzy checkpoint
	// whenever that many log bytes have accumulated since the last one,
	// bounding restart-recovery work without manual Checkpoint calls.
	CheckpointEvery int64
	// RedoWorkers sets the parallelism of the redo pass of restart
	// recovery: log records fan out to workers hash-partitioned by page
	// ID, preserving per-page LSN order. 0 auto-scales to GOMAXPROCS;
	// 1 forces the serial replay path.
	RedoWorkers int
	Seed        int64
}

// StageConfig returns the paper's preset for stage.
func StageConfig(stage Stage) Config {
	c := Config{
		Stage:         stage,
		Frames:        4096,
		LogBuffer:     wal.DefaultBufferSize,
		LockTimeout:   500 * time.Millisecond,
		EscalateAfter: 256,
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
	c.CachedOldest = false
	c.ProbeLockTable = true
	c.CleanerCheckpoint = false

	if stage >= StageBpool1 {
		c.Buffer.Table = buffer.TablePerBucketChain
		c.Buffer.AtomicPin = true
	}
	if stage >= StageCaching {
		c.Buffer.HotArray = 256
		c.Space = space.Options{Mutex: sync2.KindMCS, LatchInCS: false, LastPageCache: true}
		c.CachedOldest = true
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
		c.ProbeLockTable = false
		c.CleanerCheckpoint = true
	}
	if stage >= StagePipeline {
		c.CommitPipeline = true
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
	if c.EscalateAfter == 0 {
		c.EscalateAfter = 256
	}
	if c.RedoWorkers <= 0 {
		c.RedoWorkers = runtime.GOMAXPROCS(0)
	}
	if c.PLP {
		// PLP layers on DORA: routing, ownership, and the single-writer
		// discipline all come from the partition executor.
		c.DORA = true
	}
	c.Buffer.Frames = c.Frames
	c.Buffer.Seed = c.Seed
	c.Lock.DefaultTimeout = c.LockTimeout
}
