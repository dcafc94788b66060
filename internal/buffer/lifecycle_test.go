package buffer

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/sync2"
	"repro/internal/wal"
)

// Tests of the frame life-cycle's rules R1–R5 (frame.go). The orderings
// are forced with gates, not with timing: a test parks one device call,
// looks at the pool while it is parked, and opens the gate.

const testDeadline = 10 * time.Second

// gateVolume parks chosen Reads and Writes until the test releases them.
type gateVolume struct {
	disk.Volume
	mu    sync.Mutex
	gates map[gateKey]*gate
}

type gateKey struct {
	write bool
	pid   page.ID
}

type gate struct {
	parked chan struct{} // closed when the call arrives
	open   chan struct{} // closed by the test to let it through
}

func newGateVolume(v disk.Volume) *gateVolume {
	return &gateVolume{Volume: v, gates: map[gateKey]*gate{}}
}

// hold arms a one-shot gate on the next Write (or Read) of pid.
func (g *gateVolume) hold(write bool, pid page.ID) *gate {
	gt := &gate{parked: make(chan struct{}), open: make(chan struct{})}
	g.mu.Lock()
	g.gates[gateKey{write, pid}] = gt
	g.mu.Unlock()
	return gt
}

func (g *gateVolume) pass(write bool, pid page.ID) {
	g.mu.Lock()
	gt := g.gates[gateKey{write, pid}]
	delete(g.gates, gateKey{write, pid})
	g.mu.Unlock()
	if gt != nil {
		close(gt.parked)
		<-gt.open
	}
}

func (g *gateVolume) Read(pid page.ID, buf []byte) error {
	g.pass(false, pid)
	return g.Volume.Read(pid, buf)
}

func (g *gateVolume) Write(pid page.ID, buf []byte) error {
	g.pass(true, pid)
	return g.Volume.Write(pid, buf)
}

// checkedVolume fails the test when the pool breaks the volume's contract
// or R3: a Read that overlaps a Write of the same page, two overlapping
// Writes of one page, or a Read that returns a stamp older than the last
// completed Write's. It yields inside every call so that an overlap the
// pool allows actually happens, race detector or not.
type checkedVolume struct {
	disk.Volume
	t       testing.TB
	mu      sync.Mutex
	writing map[page.ID]int
	reading map[page.ID]int
	landed  map[page.ID]uint64 // stamp of the last completed write
}

func newCheckedVolume(t testing.TB, v disk.Volume) *checkedVolume {
	return &checkedVolume{Volume: v, t: t,
		writing: map[page.ID]int{}, reading: map[page.ID]int{}, landed: map[page.ID]uint64{}}
}

func (c *checkedVolume) Read(pid page.ID, buf []byte) error {
	c.mu.Lock()
	if c.writing[pid] > 0 {
		c.t.Errorf("Read of %v overlaps a Write of it", pid)
	}
	c.reading[pid]++
	want := c.landed[pid]
	c.mu.Unlock()
	runtime.Gosched()
	err := c.Volume.Read(pid, buf)
	c.mu.Lock()
	c.reading[pid]--
	c.mu.Unlock()
	if got := binary.LittleEndian.Uint64(buf[100:]); err == nil && got < want {
		c.t.Errorf("Read of %v returned stamp %d, older than the last completed write's %d", pid, got, want)
	}
	return err
}

func (c *checkedVolume) Write(pid page.ID, buf []byte) error {
	c.mu.Lock()
	if c.reading[pid] > 0 || c.writing[pid] > 0 {
		c.t.Errorf("Write of %v overlaps %d Reads and %d Writes of it", pid, c.reading[pid], c.writing[pid])
	}
	c.writing[pid]++
	c.mu.Unlock()
	runtime.Gosched()
	err := c.Volume.Write(pid, buf)
	c.mu.Lock()
	c.writing[pid]--
	if err == nil {
		c.landed[pid] = binary.LittleEndian.Uint64(buf[100:])
	}
	c.mu.Unlock()
	return err
}

// dirtyPage fixes pid, stamps it and dirties it under lsn.
func dirtyPage(t *testing.T, p *Pool, pid page.ID, val uint64, lsn wal.LSN) {
	t.Helper()
	f, err := p.Fix(pid, sync2.LatchEX)
	if err != nil {
		t.Fatal(err)
	}
	stamp(f, val)
	f.Page().SetLSN(uint64(lsn))
	f.MarkDirty(lsn)
	p.Unfix(f, sync2.LatchEX)
}

// await fails the test if ch does not close within the deadline.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(testDeadline):
		t.Fatalf("%s: still waiting after %v", what, testDeadline)
	}
}

// stillWaiting reports an error if ch closes while the test is holding
// the thing it must wait for.
func stillWaiting(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Errorf("%s returned while the write was still parked in the volume", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// checkNoOrphans is R4's invariant at quiescence: every frame that holds
// a pid is the frame the table maps that pid to.
func checkNoOrphans(t *testing.T, p *Pool) {
	t.Helper()
	for _, f := range p.frames {
		if pid := f.PID(); pid != 0 {
			if idx, ok := p.table.get(pid); !ok || idx != f.idx {
				t.Errorf("frame %d holds %v (dirty=%v, pin=%d) but the table says %d,%v",
					f.idx, pid, f.Dirty(), f.pin.get(), idx, ok)
			}
		}
	}
}

// TestFailedWriteBackOrphansNothing (R4): a victim whose write-back fails
// stays mapped and dirty. Single goroutine; at the parent commit the
// unmap preceded the write, so the failed victim kept its pid and its
// image unmapped — the next Fix of the page waited for its own transit
// entry forever, or re-read the old image from the volume.
func TestFailedWriteBackOrphansNothing(t *testing.T) {
	for name, opts := range variants() {
		for _, frames := range []int{2, 4} {
			opts := opts
			opts.Frames = frames
			t.Run(fmt.Sprintf("%s/%dframes", name, frames), func(t *testing.T) {
				v := disk.NewFault(newVol(t, 8))
				p := New(v, opts)
				defer p.Close()
				dirtyPage(t, p, 1, 777, 1)
				v.FailWritesAfter(0)
				for pid := page.ID(2); pid <= 6; pid++ {
					if f, err := p.Fix(pid, sync2.LatchSH); err == nil {
						p.Unfix(f, sync2.LatchSH)
					}
				}
				v.HealWrites()
				fixed := make(chan struct{})
				go func() {
					defer close(fixed)
					f, err := p.Fix(1, sync2.LatchSH)
					if err != nil {
						t.Error(err)
						return
					}
					if got := readStamp(f); got != 777 {
						t.Errorf("stamp = %d, want 777: the dirty image was lost", got)
					}
					p.Unfix(f, sync2.LatchSH)
				}()
				await(t, fixed, "Fix of the page whose write-back failed")
				checkNoOrphans(t, p)
				if err := p.FlushAll(); err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, page.Size)
				if err := v.Read(1, buf); err != nil {
					t.Fatal(err)
				}
				if got := binary.LittleEndian.Uint64(buf[100:]); got != 777 {
					t.Errorf("volume holds stamp %d after FlushAll, want 777", got)
				}
			})
		}
	}
}

// TestLeavingPageIsAccountedFor parks the eviction write of dirty page 1
// and looks at the pool: the checkpoint's dirty-page table and the
// cleaner's published LSN still cover the page (R5), FlushAll does not
// return over the outstanding write, and a Fix of the page waits for the
// write and then sees the newest image (R3, R4).
func TestLeavingPageIsAccountedFor(t *testing.T) {
	for name, opts := range variants() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			v := newGateVolume(newVol(t, 8))
			opts.Frames = 2
			opts.CurLSN = func() wal.LSN { return 100 }
			p := New(newCheckedVolume(t, v), opts)
			defer p.Close()
			dirtyPage(t, p, 1, 9, 5)
			write := v.hold(true, 1)
			evictor := make(chan struct{})
			go func() { // misses that push page 1 out
				defer close(evictor)
				for pid := page.ID(2); pid <= 4; pid++ {
					f, err := p.Fix(pid, sync2.LatchSH)
					if err != nil {
						t.Error(err)
						return
					}
					p.Unfix(f, sync2.LatchSH)
				}
			}()
			await(t, write.parked, "eviction write of page 1")

			var rec wal.LSN
			dpt := p.DirtyPageTable(100)
			for _, d := range dpt {
				if d.Page == 1 {
					rec = d.RecLSN
				}
			}
			if rec == wal.NullLSN || rec > 5 {
				t.Errorf("dirty-page table %v: page 1 (recLSN 5, write in flight) missing or too new", dpt)
			}
			p.CleanerSweep()
			if got := p.CleanerCkptLSN(); got == wal.NullLSN || got > 5 {
				t.Errorf("cleaner checkpoint LSN %v passes recLSN 5 of a page whose write is in flight", got)
			}

			flushed, fixed := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(flushed)
				if err := p.FlushAll(); err != nil {
					t.Error(err)
				}
			}()
			go func() {
				defer close(fixed)
				f, err := p.Fix(1, sync2.LatchSH)
				if err != nil {
					t.Error(err)
					return
				}
				if got := readStamp(f); got != 9 {
					t.Errorf("Fix after the eviction read stamp %d, want 9", got)
				}
				p.Unfix(f, sync2.LatchSH)
			}()
			stillWaiting(t, flushed, "FlushAll")
			stillWaiting(t, fixed, "Fix(1)")
			close(write.open)
			await(t, flushed, "FlushAll after the write landed")
			await(t, fixed, "Fix(1) after the write landed")
			await(t, evictor, "the evicting goroutine")
			checkNoOrphans(t, p)
		})
	}
}

// TestSweepPublishesBesideMisses: the cleaner's checkpoint LSN keeps up
// while fixers miss all around it. A frame whose load is in flight is
// clean and EX-latched, like a writer that has logged but not yet dirtied
// its page; the sweep may wait for either, it may not give up the round.
func TestSweepPublishesBesideMisses(t *testing.T) {
	for _, name := range []string{"baseline", "final"} { // TransitBypass off, on
		opts := variants()[name]
		t.Run(name, func(t *testing.T) {
			var lsn atomic.Uint64
			lsn.Store(1)
			opts.Frames = 32
			opts.CurLSN = func() wal.LSN { return wal.LSN(lsn.Load()) }
			// checkedVolume yields inside every call: loads stay in flight
			// across scheduling points.
			p := New(newCheckedVolume(t, newVol(t, 128)), opts)
			defer p.Close()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						f, err := p.Fix(page.ID(1+r.Intn(128)), sync2.LatchEX)
						if err != nil {
							continue // every frame pinned for a moment
						}
						l := wal.LSN(lsn.Add(1))
						stamp(f, uint64(l))
						f.Page().SetLSN(uint64(l))
						f.MarkDirty(l)
						p.Unfix(f, sync2.LatchEX)
					}
				}(w)
			}
			// A sweep either moves the checkpoint LSN or is held to it by a
			// page it had to leave dirty (leaving, or a writer queued for its
			// latch). A sweep that gives up beside every load in flight does
			// neither, 13 to 16 times of 16 here.
			const sweeps = 16
			gaveUp, last := 0, wal.NullLSN
			for i := 0; i < sweeps; i++ {
				for next := lsn.Load() + 50; lsn.Load() < next; { // a sweep per 50 updates
					runtime.Gosched()
				}
				p.CleanerSweep()
				got := p.CleanerCkptLSN()
				held := false
				for _, f := range p.frames {
					held = held || f.Dirty() && wal.LSN(f.recLSN.Load()) == got
				}
				if got == last && !held {
					gaveUp++
				}
				last = got
				p.RefillFreeLists()
			}
			close(stop)
			wg.Wait()
			if gaveUp > sweeps/4 {
				t.Errorf("%d of %d sweeps published nothing (checkpoint LSN %v, log at %v)", gaveUp, sweeps, last, lsn.Load())
			}
		})
	}
}

// parkingTable parks the first lookup of pid that finds nothing, after the
// lookup: its caller goes on with an answer that the test makes stale.
type parkingTable struct {
	pageTable
	pid    page.ID
	used   *atomic.Bool
	parked chan struct{}
	resume chan struct{}
}

func (h parkingTable) get(pid page.ID) (uint32, bool) {
	idx, ok := h.pageTable.get(pid)
	if pid == h.pid && !ok && !h.used.Swap(true) {
		close(h.parked)
		<-h.resume
	}
	return idx, ok
}

// TestStaleMissEvictsItsOwnPage (R1) is ROADMAP 0(a)'s lock-order
// inversion with one goroutine on both sides: a fixer looks page 1 up,
// finds nothing, and before it goes on the page is installed and dirtied
// by someone else and becomes the only evictable frame. At the parent
// commit the fixer registered its transit-in entry first and then, under
// the clock lock, waited for that same entry as the evictor of page 1.
func TestStaleMissEvictsItsOwnPage(t *testing.T) {
	for name, opts := range variants() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			opts.Frames = 2
			p := New(newCheckedVolume(t, newVol(t, 8)), opts)
			defer p.Close()
			hook := parkingTable{pageTable: p.table, pid: 1, used: new(atomic.Bool),
				parked: make(chan struct{}), resume: make(chan struct{})}
			p.table = hook
			pinned, err := p.Fix(2, sync2.LatchSH) // the other frame is not evictable
			if err != nil {
				t.Fatal(err)
			}
			fixed := make(chan struct{})
			go func() {
				defer close(fixed)
				f, err := p.Fix(1, sync2.LatchSH)
				if err != nil {
					t.Error(err)
					return
				}
				if got := readStamp(f); got != 31 {
					t.Errorf("stamp = %d, want 31", got)
				}
				p.Unfix(f, sync2.LatchSH)
			}()
			await(t, hook.parked, "the fixer's lookup of page 1")
			// FixNew, not Fix: the baseline's lookup holds the global pin
			// mutex while it is parked in the table.
			f, err := p.FixNew(1)
			if err != nil {
				t.Fatal(err)
			}
			f.Page().Init(1, page.TypeHeap, 1)
			stamp(f, 31)
			f.MarkDirty(3)
			p.Unfix(f, sync2.LatchEX)
			close(hook.resume)
			await(t, fixed, "Fix(1) whose only victim is page 1 itself")
			p.Unfix(pinned, sync2.LatchSH)
			checkNoOrphans(t, p)
		})
	}
}
