package buffer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/page"
	"repro/internal/wal"
)

// cleanerState holds the background dirty-page cleaner. It has three
// jobs. First, replacement pacing: it keeps every shard's free list of
// pre-evicted frames above its low watermark, so a miss almost never
// performs eviction I/O itself — dirty victims are written back here,
// off the miss path. Second, keeping evictions cheap even when a clock
// must run (clean victims need no write-back). Third, the paper's final
// checkpoint optimization (§7.7): because it already sweeps the whole
// pool asynchronously, it tracks the log position each sweep started at;
// once a sweep completes, every page dirtied before that position has
// been written, so the checkpoint can use the published value instead of
// serially scanning the buffer pool while blocking all transactions.
type cleanerState struct {
	stop    chan struct{}
	done    chan struct{}
	running atomic.Bool
	// kick is the miss path's demand signal: a shard's free list ran low
	// (or dry), so refill ahead of the next ticker beat. Buffered to one
	// token; created at pool construction so kickCleaner never races
	// StartCleaner.
	kick chan struct{}
	// writing admits one writing walk (CleanerSweep, FlushAll) at a time:
	// both write under the SH latch, and a volume wants the writes of one
	// page serialized. Evictors write frozen frames, which no walk can pin.
	writing sync.Mutex
	// ckptLSN is the published "oldest possible recLSN" from the last
	// completed sweep; NullLSN until one completes.
	ckptLSN atomic.Uint64
}

// kickCleaner nudges the cleaner to refill shard free lists now. A no-op
// (one pending token at most) when the cleaner is busy or not running.
func (p *Pool) kickCleaner() {
	select {
	case p.cleaner.kick <- struct{}{}:
	default:
	}
}

// StartCleaner launches the background cleaner sweeping every interval.
func (p *Pool) StartCleaner(interval time.Duration) {
	if p.cleaner.running.Swap(true) {
		return
	}
	p.cleaner.stop = make(chan struct{})
	p.cleaner.done = make(chan struct{})
	go p.cleanerLoop(interval)
}

// StopCleaner stops the background cleaner and waits for it to exit.
func (p *Pool) StopCleaner() {
	if !p.cleaner.running.Swap(false) {
		return
	}
	close(p.cleaner.stop)
	<-p.cleaner.done
}

func (p *Pool) cleanerLoop(interval time.Duration) {
	defer close(p.cleaner.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.cleaner.stop:
			return
		case <-p.cleaner.kick:
			p.RefillFreeLists()
		case <-ticker.C:
			p.CleanerSweep()
			p.RefillFreeLists()
		}
	}
}

// RefillFreeLists tops up every shard free list that fell under its low
// watermark, evicting clock victims (clean ones preferred; dirty ones
// are written back here, off the miss path) until the high watermark is
// restored. Exported so tests and benchmarks can prime the lists
// synchronously; the background cleaner calls it on every kick and tick.
func (p *Pool) RefillFreeLists() {
	if !p.freeLists {
		return // single-hand mode: the clock is the only allocator
	}
	for _, s := range p.shards {
		if int(s.nfree.Load()) >= s.lowWater {
			continue
		}
		for int(s.nfree.Load()) < s.highWater {
			f, err := p.claimVictim(s)
			if err != nil {
				break // region exhausted (all pinned) or I/O error; retry next pass
			}
			p.retire(f) // claimed → free: onto s's list
			s.cleanerFrees.Add(1)
		}
	}
}

// walkDirty is the one walk over frames that may hold a dirty page, shared
// by the cleaner, FlushAll and the checkpoint. fn sees every dirty page once
// with its recLSN; writable says the walk holds it pinned and SH-latched
// across the call. What becomes of a frame the walk cannot have is decided
// here and nowhere else (R5):
//
//	frozen, dirty        leaving, its write not yet landed; nobody modifies
//	                     a frozen frame, so the recLSN is exact. Reported,
//	                     not writable; flush waits for the transit instead.
//	latched, recLSN set  being modified; the recLSN was fixed when the page
//	                     went dirty. Reported, not writable; flush waits for
//	                     the latch instead.
//	latched, no recLSN   the holder may have logged an update it has not yet
//	                     marked: a recLSN nobody knows. The walk holds only
//	                     a pin, so it waits until there is one or the latch
//	                     is free — asleep: a bypass load in flight looks the
//	                     same, and spinning across device reads cost
//	                     kv-outofpool 6 % of its CPU.
func (p *Pool) walkDirty(flush bool, fn func(f *Frame, pid page.ID, rec wal.LSN, writable bool)) {
	for _, f := range p.frames {
	again:
		// The latch first: a writer sets the dirty bit before it lets go
		// of the EX latch, so one that slips between the two loads is
		// seen dirty; the other order would miss it.
		if !f.latch.HeldEX() && !f.Dirty() {
			continue
		}
		if !f.pin.tryPin() {
			// Dirty is read last: while it holds, the write has not
			// landed and the pid and recLSN read before it are the page's.
			pid, rec := f.PID(), wal.LSN(f.recLSN.Load())
			if pid == 0 || !f.Dirty() {
				continue // free, claimed, or its write has just landed
			}
			if flush {
				if !p.awaitTransit(pid) {
					runtime.Gosched() // frozen a moment ago, its transit not begun
				}
				goto again
			}
			fn(f, pid, rec, false)
			continue
		}
		writable := f.latch.TryLatchSH()
		for !writable && (flush || f.RecLSN() == wal.NullLSN) {
			time.Sleep(20 * time.Microsecond)
			writable = f.latch.TryLatchSH()
		}
		if pid := f.PID(); pid != 0 && f.Dirty() {
			fn(f, pid, f.RecLSN(), writable)
		}
		if writable {
			f.latch.UnlatchSH()
		}
		f.pin.unpin()
	}
}

// FlushAll writes every dirty page to the volume (e.g. at clean shutdown).
// It does not return while a write it left to an evictor is in flight.
func (p *Pool) FlushAll() error {
	p.cleaner.writing.Lock()
	defer p.cleaner.writing.Unlock()
	var firstErr error
	p.walkDirty(true, func(f *Frame, _ page.ID, _ wal.LSN, _ bool) {
		if err := p.writeBack(f); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// DirtyPageTable collects the (pid, recLSN) of every dirty frame — the
// checkpoint's dirty page table. The checkpoint-begin LSN it is passed has
// no use: the walk reports real recLSNs and needs no stand-in.
func (p *Pool) DirtyPageTable(_ wal.LSN) []wal.DirtyInfo {
	var out []wal.DirtyInfo
	p.walkDirty(false, func(_ *Frame, pid page.ID, rec wal.LSN, _ bool) {
		out = append(out, wal.DirtyInfo{Page: pid, RecLSN: rec})
	})
	return out
}

// CleanerSweep performs one full cleaning pass and publishes the
// checkpoint LSN. It is exported so tests and checkpoints can force a
// sweep synchronously.
func (p *Pool) CleanerSweep() {
	p.cleaner.writing.Lock()
	defer p.cleaner.writing.Unlock()
	// oldest starts at the log position the sweep starts at and falls to the
	// recLSN of the oldest page the sweep leaves dirty (leaving, being
	// modified, or its write failed): the checkpoint LSN must not pass it.
	oldest := wal.NullLSN
	if p.opts.CurLSN != nil {
		oldest = p.opts.CurLSN()
	}
	p.walkDirty(false, func(f *Frame, _ page.ID, rec wal.LSN, writable bool) {
		if writable && p.writeBack(f) == nil {
			p.cleanerIO.Add(1)
		} else {
			oldest = min(oldest, rec)
		}
	})
	if oldest != wal.NullLSN {
		p.cleaner.ckptLSN.Store(uint64(oldest))
	}
}

// CleanerCkptLSN returns the cleaner-published oldest-dirty bound for
// checkpoints, or NullLSN if no sweep has completed yet (callers fall back
// to scanning the pool).
func (p *Pool) CleanerCkptLSN() wal.LSN {
	return wal.LSN(p.cleaner.ckptLSN.Load())
}
