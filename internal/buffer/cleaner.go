package buffer

import (
	"runtime"
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
// by the cleaner, FlushAll and the checkpoint. Each goes to fn once with
// its pid and recLSN; held says the walk has it pinned and SH-latched
// across the call, so fn may write it. A frame the walk cannot have —
// frozen: leaving, its write-back not yet landed; EX-latched: being
// modified, recLSN NullLSN if the writer has logged but not yet dirtied
// it — is reported not held, for fn to account for conservatively, and
// never dropped (R5); with block the walk waits for it instead (on the
// transit entry, on the writer's latch).
func (p *Pool) walkDirty(block bool, fn func(f *Frame, pid page.ID, rec wal.LSN, held bool)) {
	for _, f := range p.frames {
	again:
		// The latch first: a writer sets the dirty bit before it lets go
		// of the EX latch, so one that slips between the two loads is
		// seen dirty; the other order would miss it.
		if !f.latch.HeldEX() && !f.Dirty() {
			continue
		}
		pinned, held := f.pin.tryPin(), false
		if pinned && block {
			f.latch.LatchSH()
			held = true
		} else if pinned {
			held = f.latch.TryLatchSH()
		}
		dirty := f.Dirty()
		if block && !pinned && dirty {
			if !p.awaitTransit(f.PID()) {
				runtime.Gosched() // frozen a moment ago, its transit not begun
			}
			goto again
		}
		// A frozen frame has no writer: clean, it holds nothing to report.
		if pid := f.PID(); pid != 0 && (dirty || pinned && !held) {
			fn(f, pid, f.RecLSN(), held)
		}
		if held {
			f.latch.UnlatchSH()
		}
		if pinned {
			f.pin.unpin()
		}
	}
}

// FlushAll writes every dirty page to the volume (e.g. at clean shutdown).
// It does not return while a write it left to an evictor is in flight.
func (p *Pool) FlushAll() error {
	var firstErr error
	p.walkDirty(true, func(f *Frame, _ page.ID, _ wal.LSN, _ bool) { // always held: the walk blocks
		if err := p.writeBack(f); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// DirtyPageTable collects the (pid, recLSN) of every dirty frame — the
// checkpoint's dirty page table. beginLSN is the checkpoint-begin LSN used
// as a conservative recLSN for frames being modified during the scan.
func (p *Pool) DirtyPageTable(beginLSN wal.LSN) []wal.DirtyInfo {
	var out []wal.DirtyInfo
	p.walkDirty(false, func(_ *Frame, pid page.ID, rec wal.LSN, held bool) {
		if !held && (rec == wal.NullLSN || rec > beginLSN) {
			rec = beginLSN
		}
		out = append(out, wal.DirtyInfo{Page: pid, RecLSN: rec})
	})
	return out
}

// CleanerSweep performs one full cleaning pass and publishes the
// checkpoint LSN. It is exported so tests and checkpoints can force a
// sweep synchronously.
func (p *Pool) CleanerSweep() {
	var sweepStart wal.LSN
	if p.opts.CurLSN != nil {
		sweepStart = p.opts.CurLSN()
	}
	// oldest is the recLSN of the oldest page the sweep left dirty (it
	// could not pin or latch it, or the write failed); the published
	// checkpoint LSN must not pass it. A writer that has logged but not
	// yet dirtied its page has a recLSN nobody knows: NullLSN, and this
	// sweep publishes nothing.
	oldest := wal.LSN(^uint64(0))
	p.walkDirty(false, func(f *Frame, _ page.ID, rec wal.LSN, held bool) {
		if held && p.writeBack(f) == nil {
			p.cleanerIO.Add(1)
		} else {
			oldest = min(oldest, rec)
		}
	})
	if ckpt := min(sweepStart, oldest); ckpt != wal.NullLSN {
		p.cleaner.ckptLSN.Store(uint64(ckpt))
	}
}

// CleanerCkptLSN returns the cleaner-published oldest-dirty bound for
// checkpoints, or NullLSN if no sweep has completed yet (callers fall back
// to scanning the pool).
func (p *Pool) CleanerCkptLSN() wal.LSN {
	return wal.LSN(p.cleaner.ckptLSN.Load())
}
