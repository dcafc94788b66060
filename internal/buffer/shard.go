package buffer

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/page"
	"repro/internal/sync2"
)

// Replacement sharding: the frame array is partitioned into independent
// clock regions, each with its own hand, hybrid lock, free list of
// pre-evicted frames, and counters. A miss hashes its page id to a home
// shard and touches only that shard's state; it reaches into a neighbor
// (a "steal") only when the home region is completely exhausted. This
// removes the last pool-wide critical section — the paper's single clock
// hand — the same way §6.2.3 partitioned the in-transit lists.

// AutoShards selects the GOMAXPROCS-scaled default shard count.
const AutoShards = 0

const (
	// minAutoShardFrames keeps auto-sharded regions large enough that a
	// clock pass still sees a meaningful population.
	minAutoShardFrames = 64
	// maxShardCount bounds the auto default on very wide machines.
	maxShardCount = 64
)

// shardCount resolves the configured shard count against the pool size:
// requested <= 0 means the GOMAXPROCS-scaled default, and every region
// must hold at least two frames.
func shardCount(frames, requested int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if max := frames / minAutoShardFrames; n > max {
			n = max
		}
		if n > maxShardCount {
			n = maxShardCount
		}
	}
	if max := frames / 2; n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	return n
}

// shard is one independent replacement region over frames [lo, hi).
type shard struct {
	id int
	mu sync2.Locker // guards hand and clock traversal of the region
	lo int
	hi int

	hand int // next clock position, guarded by mu

	// free is a LIFO of pre-evicted frame indexes. Frames on it are
	// frozen (pin == -1), clean, unmapped, and unlatched, so nothing can
	// reach them except a pop. nfree mirrors len(free) for lock-free
	// watermark checks.
	freeMu sync.Mutex
	free   []uint32
	nfree  atomic.Int32

	// Watermarks pace the cleaner: it refills a shard whose free list
	// fell under lowWater back up to highWater.
	lowWater  int
	highWater int

	evictions    atomic.Uint64 // victims evicted from this region
	scans        atomic.Uint64 // frames examined by this region's hand
	steals       atomic.Uint64 // misses homed here that took a frame elsewhere
	cleanerFrees atomic.Uint64 // free-list frames supplied by the cleaner
	freeHits     atomic.Uint64 // misses served straight from the free list
}

// newShards partitions frames into n contiguous regions. With free
// lists enabled (n > 1), every frame starts on its region's free list —
// a fresh pool is all pre-evicted frames, so initial misses never run a
// clock hand. In single-hand mode the lists stay empty forever and the
// region is the whole pool, reproducing the original design.
func newShards(frames []*Frame, n int, freeLists bool) []*shard {
	base := len(frames) / n
	shards := make([]*shard, n)
	for i := range shards {
		lo := i * base
		hi := lo + base
		if i == n-1 {
			hi = len(frames)
		}
		region := hi - lo
		s := &shard{
			id:        i,
			mu:        new(sync2.HybridLock),
			lo:        lo,
			hi:        hi,
			hand:      lo,
			lowWater:  max(1, region/16),
			highWater: max(2, region/8),
		}
		if freeLists {
			for idx := hi - 1; idx >= lo; idx-- {
				frames[idx].pin.tryFreeze()
				s.free = append(s.free, uint32(idx))
			}
			s.nfree.Store(int32(len(s.free)))
		}
		shards[i] = s
	}
	return shards
}

// popFree removes one free frame from s's list.
func (s *shard) popFree() (uint32, bool) {
	if s.nfree.Load() == 0 {
		return 0, false
	}
	s.freeMu.Lock()
	n := len(s.free)
	if n == 0 {
		s.freeMu.Unlock()
		return 0, false
	}
	idx := s.free[n-1]
	s.free = s.free[:n-1]
	s.nfree.Store(int32(n - 1))
	s.freeMu.Unlock()
	return idx, true
}

// pushFree puts a free frame on s's list.
func (s *shard) pushFree(idx uint32) {
	s.freeMu.Lock()
	s.free = append(s.free, idx)
	s.nfree.Store(int32(len(s.free)))
	s.freeMu.Unlock()
}

// homeShard hashes pid to its replacement shard.
func (p *Pool) homeShard(pid page.ID) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := uint64(pid) * 0x9e3779b97f4a7c15
	return p.shards[(h>>40)%uint64(len(p.shards))]
}

// shardOfFrame maps a frame index back to the shard owning its region.
func (p *Pool) shardOfFrame(idx uint32) *shard {
	i := int(idx) / p.shardBase
	if i >= len(p.shards) {
		i = len(p.shards) - 1
	}
	return p.shards[i]
}

// claimVictim runs s's clock hand until it claims one victim, returned
// claimed. While the cleaner is running the first pass considers only
// clean frames — dirty victims are the cleaner's job, keeping write-back
// I/O off the miss path — and a second pass accepts dirty frames and
// writes them back inline, which keeps the pool correct when the cleaner
// is off or behind. errShardExhausted means every frame in the region is
// pinned or mid-transition; any other error is a victim's failed
// write-back, and that victim is resident and dirty again.
func (p *Pool) claimVictim(s *shard) (*Frame, error) {
	locked := false // the hand's lock; dropped early under ClockHandRelease
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	region := s.hi - s.lo
	firstPass := 0
	if !p.freeLists || !p.cleaner.running.Load() {
		// Nobody to hand dirty frames to (or single-hand mode, where the
		// original design writes back inline): single pass, any victim.
		firstPass = 1
	}
	sawDirty := false
	for pass := firstPass; pass < 2; pass++ {
		for i := 0; i < 2*region; i++ {
			if !locked { // first time round, or the last victim was skipped hand-released
				s.mu.Lock()
				locked = true
			}
			s.hand++
			if s.hand >= s.hi {
				s.hand = s.lo
			}
			f := p.frames[s.hand]
			s.scans.Add(1)
			if f.refbit.Swap(false) {
				continue // second chance
			}
			if f.pin.get() != 0 {
				continue // pinned, or frozen (free-listed / claimed / leaving)
			}
			if pass == 0 && f.Dirty() {
				sawDirty = true
				continue
			}
			if !f.pin.tryFreeze() {
				continue
			}
			f.latch.LatchEX() // resident → leaving
			if p.opts.ClockHandRelease {
				// §7.6 carried over per shard: drop this region's hand
				// before any eviction I/O so sibling misses proceed.
				s.mu.Unlock()
				locked = false
			}
			err := p.evict(f, s)
			if err == nil {
				return f, nil
			}
			f.latch.UnlatchEX() // leaving → resident, nothing lost (R4)
			f.pin.unfreezeTo(0)
			if err != errVictimInTransit {
				return nil, err
			}
			p.transitConflicts.Add(1) // R2: skip it, the hand moves on
		}
		if pass == 0 {
			if !sawDirty {
				break // no dirty frames either; the region is pinned out
			}
			p.kickCleaner() // dirty backlog: get the cleaner onto this region
		}
	}
	return nil, errShardExhausted
}

// claimFree takes a frame from s's free list to claimed, nil if there is
// none. The EX latch never blocks — a frozen frame has no pin holders and
// latch holders pin first — but taking it bumps the frame's version, so
// optimistic readers that sampled the previous occupant fail validation.
func (p *Pool) claimFree(s *shard) *Frame {
	idx, ok := s.popFree()
	if !ok {
		return nil
	}
	f := p.frames[idx]
	f.latch.LatchEX()
	return f
}
