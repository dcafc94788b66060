package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/hash"
	"repro/internal/page"
	"repro/internal/sync2"
	"repro/internal/wal"
)

// TableKind selects the buffer pool's page-table implementation, tracing
// the paper's evolution: one global mutex over an open-chaining table
// (original Shore), per-bucket mutexes (bpool1), and the 3-ary cuckoo hash
// (§6.2.3).
type TableKind int

// Page table kinds.
const (
	TableGlobalChain TableKind = iota
	TablePerBucketChain
	TableCuckoo
)

// String names the table kind.
func (k TableKind) String() string {
	switch k {
	case TableGlobalChain:
		return "globalChain"
	case TablePerBucketChain:
		return "perBucketChain"
	case TableCuckoo:
		return "cuckoo"
	default:
		return "unknown"
	}
}

// Options configures a Pool; each field maps to one optimization stage in
// §7 of the paper.
type Options struct {
	Frames            int       // buffer pool capacity in pages
	Table             TableKind // page-table implementation
	AtomicPin         bool      // §6.2.1 pin-if-pinned fast path
	HotArray          int       // entries in the hot-page array (§7.3), 0 = off
	TransitPartitions int       // in-transit list partitions (1 = original, 128 = §6.2.3)
	TransitBypass     bool      // in-transit-in pages visible in the table (§6.2.3)
	ClockHandRelease  bool      // release clock mutex before eviction I/O (§7.6); per shard
	// Shards partitions page replacement into independent clock regions,
	// each with its own hand, lock, and free list of pre-evicted frames.
	// 0 (AutoShards) scales with GOMAXPROCS; 1 restores the single global
	// clock hand of the original design exactly — no free lists, every
	// miss runs the clock, dirty victims write back inline.
	Shards int
	// FlushLog enforces the WAL rule before a dirty page is written; nil
	// disables (for tests without a log).
	FlushLog func(wal.LSN) error
	// CurLSN reports the current end of the log (for cleaner checkpoint
	// tracking); nil disables.
	CurLSN func() wal.LSN
	Seed   int64
}

// ShardStats counts one replacement shard's activity.
type ShardStats struct {
	Evictions    uint64 // victims evicted from this shard's region
	Scans        uint64 // frames the shard's clock hand examined
	Steals       uint64 // misses homed here that took a frame from another shard
	CleanerFrees uint64 // free-list frames supplied by the cleaner
	FreeListHits uint64 // misses served straight from the free list
	FreeFrames   int    // current free-list length
}

// Stats counts pool activity.
type Stats struct {
	Hits             uint64
	HotHits          uint64
	Misses           uint64
	Evictions        uint64
	Writebacks       uint64 // eviction write-backs
	CleanerIO        uint64 // cleaner write-backs
	TransitWait      uint64
	TransitConflicts uint64 // clock victims skipped because their page was in transit
	PinRetries       uint64
	ExhaustedSweeps  uint64 // allocation sweeps that found every frame pinned (each retries)
	FreeListHits     uint64 // misses that allocated from a shard free list
	Steals           uint64 // misses that crossed into another shard
	CleanerFrees     uint64 // free frames the cleaner pre-evicted
	ScanFrames       uint64 // total frames examined by all clock hands
	Shards           []ShardStats
	TableLock        sync2.Stats // chain-table latch contention (zero for cuckoo)
	ClockLock        sync2.Stats // aggregated over every shard's hand lock
	GlobalLock       sync2.Stats // pin-discipline mutex (baseline only)
}

// Errors returned by the pool.
var (
	ErrNoFreeFrames = errors.New("buffer: no evictable frames")
	ErrPoolClosed   = errors.New("buffer: pool closed")

	// errShardExhausted is the internal "this region had no victim"
	// signal that drives stealing and the cleaner-kick retry loop.
	errShardExhausted = errors.New("buffer: shard exhausted")
	// errVictimInTransit is evict's "skip this victim" (R2).
	errVictimInTransit = errors.New("buffer: victim's page is in transit")
)

// pageTable abstracts the pid → frame-index map.
type pageTable interface {
	get(pid page.ID) (uint32, bool)
	getOrInsert(pid page.ID, idx uint32) (uint32, bool, error)
	delete(pid page.ID) bool
	lockStats() sync2.Stats
}

type chainAdapter struct{ t *hash.ChainTable }

func (a chainAdapter) get(pid page.ID) (uint32, bool) { return a.t.Get(uint64(pid)) }
func (a chainAdapter) getOrInsert(pid page.ID, idx uint32) (uint32, bool, error) {
	v, ins := a.t.GetOrInsert(uint64(pid), idx)
	return v, ins, nil
}
func (a chainAdapter) delete(pid page.ID) bool { return a.t.Delete(uint64(pid)) }
func (a chainAdapter) lockStats() sync2.Stats  { return a.t.LockStats() }

// cuckooAdapter needs no overflow handling: a cascade that exceeds its
// bound parks the displaced mapping in the table's own stash, so every
// cached page stays reachable and nothing here can re-enter the table.
type cuckooAdapter struct{ t *hash.Cuckoo }

func (a cuckooAdapter) get(pid page.ID) (uint32, bool) { return a.t.Get(uint64(pid)) }
func (a cuckooAdapter) getOrInsert(pid page.ID, idx uint32) (uint32, bool, error) {
	return a.t.GetOrInsert(uint64(pid), idx)
}
func (a cuckooAdapter) delete(pid page.ID) bool { return a.t.Delete(uint64(pid)) }
func (a cuckooAdapter) lockStats() sync2.Stats  { return sync2.Stats{} }

// Pool is the buffer pool manager.
//
// A hit writes only its frame: the pin, the latch, the reference bit and
// the hit counters sit in the Frame, and Stats sums them. The fields above
// the padding are read on every fix and written (almost) never; the
// counters below it are written by the miss and eviction paths, and the
// padding keeps them off the read-mostly fields' cache lines, so a miss on
// one core does not cost every other core's next fix a line transfer.
type Pool struct {
	opts   Options
	vol    disk.Volume
	frames []*Frame
	table  pageTable
	// pinMu is the baseline pin discipline: without AtomicPin, every
	// lookup+pin holds this single mutex (the original Shore global lock).
	pinMu sync2.Locker
	// shards partitions replacement into independent clock regions (see
	// shard.go); shardBase is the region size for index→shard mapping.
	// freeLists gates the pre-evicted free lists and cleaner refilling:
	// off with a single shard, which then reproduces the original global
	// clock hand (misses always run the clock, dirty victims write back
	// inline) for the paper's pre-bpool2 stages and benchmark baselines.
	shards    []*shard
	shardBase int
	freeLists bool
	transit   *transitSet
	hot       []atomic.Uint64 // packed pid<<24|idx hot-page array
	closed    atomic.Bool

	_ [64]byte

	misses           atomic.Uint64
	evictions        atomic.Uint64
	writebacks       atomic.Uint64
	cleanerIO        atomic.Uint64
	transitWait      atomic.Uint64
	transitConflicts atomic.Uint64
	pinRetries       atomic.Uint64
	exhaustedSweeps  atomic.Uint64

	cleaner cleanerState
}

// New builds a buffer pool over vol.
func New(vol disk.Volume, opts Options) *Pool {
	if opts.Frames <= 0 {
		opts.Frames = 1024
	}
	if opts.TransitPartitions <= 0 {
		opts.TransitPartitions = 1
	}
	p := &Pool{
		opts:    opts,
		vol:     vol,
		frames:  make([]*Frame, opts.Frames),
		transit: newTransitSet(opts.TransitPartitions),
	}
	p.cleaner.kick = make(chan struct{}, 1)
	for i := range p.frames {
		p.frames[i] = newFrame(uint32(i))
	}
	n := shardCount(opts.Frames, opts.Shards)
	p.freeLists = n > 1
	p.shards = newShards(p.frames, n, p.freeLists)
	p.shardBase = opts.Frames / n
	switch opts.Table {
	case TableCuckoo:
		p.table = cuckooAdapter{t: hash.NewCuckoo(opts.Frames*4, opts.Seed)}
	case TablePerBucketChain:
		p.table = chainAdapter{t: hash.NewChainTable(opts.Frames*2, hash.PerBucketLock, opts.Seed,
			func() sync2.Locker { return new(sync2.HybridLock) })}
	default:
		p.pinMu = new(sync2.BlockingLock)
		p.table = chainAdapter{t: hash.NewChainTable(opts.Frames*2, hash.GlobalLock, opts.Seed,
			func() sync2.Locker { return new(sync2.BlockingLock) })}
	}
	if opts.HotArray > 0 {
		p.hot = make([]atomic.Uint64, opts.HotArray)
	}
	return p
}

// hot-page array ------------------------------------------------------------

func (p *Pool) hotSlot(pid page.ID) *atomic.Uint64 {
	h := uint64(pid) * 0x9e3779b97f4a7c15
	return &p.hot[(h>>33)%uint64(len(p.hot))]
}

// hotRecord points pid's slot at frame idx. A hit on a page the slot
// already names stores nothing: the slot's line stays shared.
func (p *Pool) hotRecord(pid page.ID, idx uint32) {
	if p.hot == nil {
		return
	}
	slot, v := p.hotSlot(pid), uint64(pid)<<24|uint64(idx)
	if slot.Load() != v {
		slot.Store(v)
	}
}

func (p *Pool) hotLookup(pid page.ID) (uint32, bool) {
	if p.hot == nil {
		return 0, false
	}
	v := p.hotSlot(pid).Load()
	if v>>24 != uint64(pid) || v == 0 {
		return 0, false
	}
	return uint32(v & 0xffffff), true
}

// Fix pins page pid into the pool and acquires its latch in mode. The
// caller must Unfix with the same mode when done.
func (p *Pool) Fix(pid page.ID, mode sync2.LatchMode) (*Frame, error) {
	if pid == page.InvalidID {
		return nil, fmt.Errorf("buffer: fix of invalid page id")
	}
	for attempt := 0; ; attempt++ {
		if p.closed.Load() {
			return nil, ErrPoolClosed
		}
		// Hot-page array: pin first, check the ID after (§7.3 — "we changed
		// the search to pin the page, then check its ID before acquiring
		// the latch; if a page eviction occurs before the pin completes the
		// IDs would not match"). An unpinned frame is pinned too, as
		// lookupAndPin does: the pin keeps an evictor out, and a frame the
		// evictor froze first refuses it. The ID check before the latch
		// keeps a stale slot from latching another page's frame, which its
		// caller may hold. The ID is re-checked after the latch: a failed
		// load dumps its frame by clearing the pid under the EX latch, so a
		// visitor that pinned and passed the first check while the load was
		// in flight must not treat the dumped frame as pid.
		if idx, ok := p.hotLookup(pid); ok {
			f := p.frames[idx]
			if f.pin.pinIfPinned() || f.pin.tryPin() {
				if f.PID() == pid {
					f.refbit.Store(true)
					f.Latch(mode)
					if f.PID() == pid {
						f.hotHits.Add(1)
						return f, nil
					}
					f.Unlatch(mode)
				}
				f.pin.unpin()
			}
		}
		if f := p.lookupAndPin(pid); f != nil {
			f.refbit.Store(true)
			f.Latch(mode)
			if f.PID() == pid {
				f.hits.Add(1)
				p.hotRecord(pid, f.idx)
				return f, nil
			}
			// Dumped by a failed load between the pin's ID check and the
			// latch; fall through to the miss (the mapping is gone).
			f.Unlatch(mode)
			f.pin.unpin()
		}
		// Miss. If someone else is moving this very page — loading it, or
		// writing it out of its leaving frame — park, then look again.
		if p.awaitTransit(pid) {
			continue
		}
		f, err := p.install(pid, true)
		if err != nil {
			return nil, err
		}
		if f != nil {
			p.misses.Add(1)
			if mode == sync2.LatchSH {
				f.latch.Downgrade()
			}
			p.hotRecord(pid, f.idx)
			return f, nil
		}
		// Lost to another loader of this page: retry.
		if attempt%16 == 15 {
			runtime.Gosched()
		}
	}
}

// lookupAndPin returns a pinned (not latched) frame holding pid, or nil.
func (p *Pool) lookupAndPin(pid page.ID) *Frame {
	if !p.opts.AtomicPin {
		// Baseline discipline: one global mutex across lookup + pin.
		p.pinMu.Lock()
		defer p.pinMu.Unlock()
		idx, ok := p.table.get(pid)
		if !ok {
			return nil
		}
		f := p.frames[idx]
		if f.pin.tryPin() {
			if f.PID() == pid {
				return f
			}
			f.pin.unpin()
		}
		return nil
	}
	// Atomic-pin discipline (§6.2.1): no table-side mutex for hits. Pin
	// first (conditionally), verify the ID afterwards.
	for {
		idx, ok := p.table.get(pid)
		if !ok {
			return nil
		}
		f := p.frames[idx]
		if f.pin.pinIfPinned() || f.pin.tryPin() {
			if f.PID() == pid {
				return f
			}
			f.pin.unpin()
			p.pinRetries.Add(1)
			continue // stale mapping; re-read the table
		}
		// Frozen: the frame is leaving. A dirty one stays mapped for the
		// whole device write, so park on its transit entry; a clean one
		// (or a Drop) is unmapped within a few instructions.
		p.pinRetries.Add(1)
		if !p.awaitTransit(pid) {
			runtime.Gosched()
		}
	}
}

// FixNew claims a frame for a freshly allocated page without reading disk.
// The frame comes back EX-latched and pinned; the caller formats the page.
func (p *Pool) FixNew(pid page.ID) (*Frame, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	f, err := p.install(pid, false)
	if err != nil {
		return nil, err
	}
	if f == nil {
		// A concurrent last-page reader can fix a freshly allocated page
		// before its allocator gets here, caching the raw zeroed image.
		// The pid is still exclusively ours (readers never write a
		// non-heap page), so take the cached frame over: EX-latch it and
		// hand it back for formatting.
		if f, err = p.Fix(pid, sync2.LatchEX); err != nil {
			return nil, err
		}
		if f.Page().Type() != page.TypeFree {
			p.Unfix(f, sync2.LatchEX)
			return nil, fmt.Errorf("buffer: FixNew(%v): page already cached", pid)
		}
	}
	f.pg.Init(pid, page.TypeFree, 0)
	return f, nil
}

// Unfix releases the latch (taken in mode) and unpins the frame.
func (p *Pool) Unfix(f *Frame, mode sync2.LatchMode) {
	f.Unlatch(mode)
	f.pin.unpin()
}

// Miss-path recovery bound: a fully pinned pool kicks the cleaner and
// retries with backoff before ErrNoFreeFrames surfaces.
const (
	allocRetries = 5
	allocBackoff = 50 * time.Microsecond
)

// allocFrame claims a frame for pid: its home shard's free list first
// (no eviction work at all), then the home clock region, and only when
// that region is exhausted the other shards — free lists, then clocks
// (counted as steals). The returned frame is claimed (frame.go).
//
// When every shard is exhausted (all frames pinned), allocFrame kicks
// the cleaner and retries with backoff; only then does it surface
// ErrNoFreeFrames, decorated with the pool's occupancy.
func (p *Pool) allocFrame(pid page.ID) (*Frame, error) {
	home := p.homeShard(pid)
	for attempt := 0; ; attempt++ {
		f, err := p.allocOnce(home)
		if err != errShardExhausted {
			return f, err
		}
		p.exhaustedSweeps.Add(1)
		if attempt >= allocRetries {
			pinned, free := p.occupancy()
			return nil, fmt.Errorf("%w (%d/%d frames pinned, %d free-listed; %d retries)",
				ErrNoFreeFrames, pinned, len(p.frames), free, attempt)
		}
		p.kickCleaner()
		if attempt == 0 {
			runtime.Gosched() // a pin is often released within a scheduling quantum
		} else {
			time.Sleep(allocBackoff << attempt)
		}
	}
}

// allocOnce is one sweep of the allocation ladder for home.
func (p *Pool) allocOnce(home *shard) (*Frame, error) {
	if f := p.claimFree(home); f != nil {
		home.freeHits.Add(1)
		if int(home.nfree.Load()) < home.lowWater {
			p.kickCleaner() // demand is eating into the buffer: refill ahead
		}
		return f, nil
	}
	if p.freeLists {
		p.kickCleaner() // the free list ran dry: replacement fell behind
	}
	f, err := p.claimVictim(home)
	if err != errShardExhausted {
		return f, err
	}
	// Home region exhausted: steal. Neighbors' free lists first (cheap),
	// then their clock regions.
	n := len(p.shards)
	for off := 1; off < n; off++ {
		if f := p.claimFree(p.shards[(home.id+off)%n]); f != nil {
			home.steals.Add(1)
			return f, nil
		}
	}
	for off := 1; off < n; off++ {
		f, err := p.claimVictim(p.shards[(home.id+off)%n])
		if err == nil {
			home.steals.Add(1)
		}
		if err != errShardExhausted {
			return f, err
		}
	}
	return nil, errShardExhausted
}

// occupancy reports how many frames are pinned and how many sit on free
// lists (error-path diagnostics only; the scan is racy but indicative).
func (p *Pool) occupancy() (pinned, free int) {
	for _, f := range p.frames {
		if f.pin.get() > 0 {
			pinned++
		}
	}
	for _, s := range p.shards {
		free += int(s.nfree.Load())
	}
	return pinned, free
}

// Drop removes pid from the pool without writing it back (used when a page
// is deallocated). The page must not be pinned by the caller.
func (p *Pool) Drop(pid page.ID) {
	idx, ok := p.table.get(pid)
	if !ok {
		return
	}
	f := p.frames[idx]
	if !f.pin.tryFreeze() {
		return // someone is using it; the clock will get it eventually
	}
	if f.PID() != pid {
		f.pin.unfreezeTo(0) // recycled since the lookup
		return
	}
	f.latch.LatchEX() // never blocks (frozen); bumps the version for optimistic readers
	p.retire(f)       // straight to the shard free list rather than round the clock
}

// Stats returns a snapshot of pool counters, including one ShardStats
// entry per replacement shard and their aggregates. Hits are summed over
// the frames, which count them.
func (p *Pool) Stats() Stats {
	s := Stats{
		Misses:           p.misses.Load(),
		Evictions:        p.evictions.Load(),
		Writebacks:       p.writebacks.Load(),
		CleanerIO:        p.cleanerIO.Load(),
		TransitWait:      p.transitWait.Load(),
		TransitConflicts: p.transitConflicts.Load(),
		PinRetries:       p.pinRetries.Load(),
		ExhaustedSweeps:  p.exhaustedSweeps.Load(),
		TableLock:        p.table.lockStats(),
	}
	for _, f := range p.frames {
		s.Hits += f.hits.Load()
		s.HotHits += f.hotHits.Load()
	}
	s.Shards = make([]ShardStats, len(p.shards))
	for i, sh := range p.shards {
		ss := ShardStats{
			Evictions:    sh.evictions.Load(),
			Scans:        sh.scans.Load(),
			Steals:       sh.steals.Load(),
			CleanerFrees: sh.cleanerFrees.Load(),
			FreeListHits: sh.freeHits.Load(),
			FreeFrames:   int(sh.nfree.Load()),
		}
		s.Shards[i] = ss
		s.FreeListHits += ss.FreeListHits
		s.Steals += ss.Steals
		s.CleanerFrees += ss.CleanerFrees
		s.ScanFrames += ss.Scans
		cs := sh.mu.Stats()
		s.ClockLock.Acquisitions += cs.Acquisitions
		s.ClockLock.Contended += cs.Contended
		s.ClockLock.SpinIters += cs.SpinIters
	}
	if p.pinMu != nil {
		s.GlobalLock = p.pinMu.Stats()
	}
	return s
}

// Close stops the cleaner and flushes all dirty pages.
func (p *Pool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.StopCleaner()
	return p.FlushAll()
}
