package buffer

import (
	"encoding/binary"
	"math/bits"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/hash"
	"repro/internal/page"
	"repro/internal/sync2"
	"repro/internal/wal"
)

// variant configurations spanning the paper's stages.
func variants() map[string]Options {
	return map[string]Options{
		"baseline": {
			Table: TableGlobalChain, AtomicPin: false, TransitPartitions: 1,
		},
		"bpool1": {
			Table: TablePerBucketChain, AtomicPin: true, TransitPartitions: 1,
		},
		"caching": {
			Table: TablePerBucketChain, AtomicPin: true, HotArray: 64, TransitPartitions: 1,
		},
		"final": {
			Table: TableCuckoo, AtomicPin: true, HotArray: 64,
			TransitPartitions: 128, TransitBypass: true, ClockHandRelease: true,
		},
	}
}

// newVol creates a volume with n initialized heap pages.
func newVol(t testing.TB, n int) *disk.MemVolume {
	t.Helper()
	v := disk.NewMem(0)
	if _, err := v.Grow(n); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, page.Size)
	pg, _ := page.Wrap(buf)
	for i := 1; i <= n; i++ {
		pg.Init(page.ID(i), page.TypeHeap, 1)
		if err := v.Write(page.ID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// stamp writes a recognizable value into a fixed page.
func stamp(f *Frame, val uint64) {
	binary.LittleEndian.PutUint64(f.Page().Bytes()[100:], val)
}

func readStamp(f *Frame) uint64 {
	return binary.LittleEndian.Uint64(f.Page().Bytes()[100:])
}

func TestFixUnfixRoundTrip(t *testing.T) {
	for name, opts := range variants() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			v := newVol(t, 10)
			opts.Frames = 8
			p := New(v, opts)
			defer p.Close()

			f, err := p.Fix(3, sync2.LatchEX)
			if err != nil {
				t.Fatal(err)
			}
			if f.PID() != 3 || f.Page().PID() != 3 {
				t.Fatalf("fixed wrong page: frame=%v page=%v", f.PID(), f.Page().PID())
			}
			stamp(f, 0xdead)
			f.Page().SetLSN(10)
			f.MarkDirty(10)
			p.Unfix(f, sync2.LatchEX)

			// Re-fix: cached value visible.
			f2, err := p.Fix(3, sync2.LatchSH)
			if err != nil {
				t.Fatal(err)
			}
			if readStamp(f2) != 0xdead {
				t.Fatal("modification lost on re-fix")
			}
			p.Unfix(f2, sync2.LatchSH)
			if st := p.Stats(); st.Hits+st.HotHits == 0 {
				t.Error("no hits recorded")
			}
		})
	}
}

func TestEvictionWritesBackAndReloads(t *testing.T) {
	for name, opts := range variants() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			v := newVol(t, 32)
			opts.Frames = 4 // tiny pool: forces evictions
			var flushedTo wal.LSN
			opts.FlushLog = func(l wal.LSN) error {
				if l > flushedTo {
					flushedTo = l
				}
				return nil
			}
			p := New(newCheckedVolume(t, v), opts)
			defer p.Close()

			// Dirty page 1 with a known LSN.
			f, err := p.Fix(1, sync2.LatchEX)
			if err != nil {
				t.Fatal(err)
			}
			stamp(f, 42)
			f.Page().SetLSN(77)
			f.MarkDirty(77)
			p.Unfix(f, sync2.LatchEX)

			// Thrash the pool to evict page 1.
			for i := 2; i <= 32; i++ {
				g, err := p.Fix(page.ID(i), sync2.LatchSH)
				if err != nil {
					t.Fatal(err)
				}
				p.Unfix(g, sync2.LatchSH)
			}
			// Reload page 1: the stamp must have survived via write-back.
			f2, err := p.Fix(1, sync2.LatchSH)
			if err != nil {
				t.Fatal(err)
			}
			if readStamp(f2) != 42 {
				t.Fatal("eviction lost dirty data")
			}
			p.Unfix(f2, sync2.LatchSH)
			// WAL rule: the log must have been flushed through LSN 77
			// before the write-back.
			if flushedTo < 77 {
				t.Errorf("WAL rule violated: flushed only to %v", flushedTo)
			}
			if st := p.Stats(); st.Writebacks == 0 || st.Evictions == 0 {
				t.Errorf("stats = %+v; expected evictions and writebacks", st)
			}
		})
	}
}

func TestFixNew(t *testing.T) {
	v := newVol(t, 4)
	first, err := v.Grow(1) // page 5 allocated on disk but never written
	if err != nil {
		t.Fatal(err)
	}
	opts := variants()["final"]
	opts.Frames = 8
	p := New(v, opts)
	defer p.Close()

	f, err := p.FixNew(first)
	if err != nil {
		t.Fatal(err)
	}
	f.Page().Init(first, page.TypeHeap, 9)
	stamp(f, 1234)
	f.MarkDirty(5)
	p.Unfix(f, sync2.LatchEX)

	// FixNew of an already-cached page must fail.
	if _, err := p.FixNew(first); err == nil {
		t.Fatal("duplicate FixNew succeeded")
	}

	f2, err := p.Fix(first, sync2.LatchSH)
	if err != nil {
		t.Fatal(err)
	}
	if readStamp(f2) != 1234 || f2.Page().Store() != 9 {
		t.Fatal("FixNew page content lost")
	}
	p.Unfix(f2, sync2.LatchSH)
}

func TestConcurrentFixesDistinctPages(t *testing.T) {
	for name, opts := range variants() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			v := newVol(t, 64)
			opts.Frames = 16
			p := New(v, opts)
			defer p.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						pid := page.ID(i%64 + 1)
						f, err := p.Fix(pid, sync2.LatchSH)
						if err != nil {
							t.Error(err)
							return
						}
						if f.Page().PID() != pid {
							t.Errorf("fixed %v got page %v", pid, f.Page().PID())
							p.Unfix(f, sync2.LatchSH)
							return
						}
						p.Unfix(f, sync2.LatchSH)
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestConcurrentWritersSamePage(t *testing.T) {
	for name, opts := range variants() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			v := newVol(t, 12)
			opts.Frames = 4
			p := New(newCheckedVolume(t, v), opts)
			defer p.Close()
			// All goroutines increment a counter on page 2 under EX latch,
			// with eviction pressure from other fixes.
			const g, n = 4, 100
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						f, err := p.Fix(2, sync2.LatchEX)
						if err != nil {
							t.Error(err)
							return
						}
						stamp(f, readStamp(f)+1)
						f.Page().SetLSN(uint64(i))
						f.MarkDirty(wal.LSN(i + 1))
						p.Unfix(f, sync2.LatchEX)
						// Pressure.
						pid := page.ID(w*2 + i%2 + 3)
						h, err := p.Fix(pid, sync2.LatchSH)
						if err != nil {
							t.Error(err)
							return
						}
						p.Unfix(h, sync2.LatchSH)
					}
				}(w)
			}
			wg.Wait()
			f, err := p.Fix(2, sync2.LatchSH)
			if err != nil {
				t.Fatal(err)
			}
			if got := readStamp(f); got != g*n {
				t.Fatalf("counter = %d, want %d (lost updates)", got, g*n)
			}
			p.Unfix(f, sync2.LatchSH)
		})
	}
}

func TestDirtyPageTable(t *testing.T) {
	v := newVol(t, 8)
	opts := variants()["final"]
	opts.Frames = 8
	p := New(v, opts)
	defer p.Close()
	for i := 1; i <= 3; i++ {
		f, err := p.Fix(page.ID(i), sync2.LatchEX)
		if err != nil {
			t.Fatal(err)
		}
		f.Page().SetLSN(uint64(i * 10))
		f.MarkDirty(wal.LSN(i * 10))
		p.Unfix(f, sync2.LatchEX)
	}
	dpt := p.DirtyPageTable(1000)
	if len(dpt) != 3 {
		t.Fatalf("dirty table has %d entries, want 3: %+v", len(dpt), dpt)
	}
	seen := map[page.ID]wal.LSN{}
	for _, d := range dpt {
		seen[d.Page] = d.RecLSN
	}
	for i := 1; i <= 3; i++ {
		if seen[page.ID(i)] != wal.LSN(i*10) {
			t.Errorf("page %d recLSN = %v, want %d", i, seen[page.ID(i)], i*10)
		}
	}
}

func TestCleanerSweepAndCkptLSN(t *testing.T) {
	v := newVol(t, 8)
	opts := variants()["final"]
	opts.Frames = 8
	cur := wal.LSN(500)
	opts.CurLSN = func() wal.LSN { return cur }
	p := New(v, opts)
	defer p.Close()

	f, err := p.Fix(1, sync2.LatchEX)
	if err != nil {
		t.Fatal(err)
	}
	stamp(f, 7)
	f.Page().SetLSN(100)
	f.MarkDirty(100)
	p.Unfix(f, sync2.LatchEX)

	if got := p.CleanerCkptLSN(); got != wal.NullLSN {
		t.Fatalf("ckpt LSN before any sweep = %v", got)
	}
	p.CleanerSweep()
	if got := p.CleanerCkptLSN(); got != 500 {
		t.Fatalf("ckpt LSN after sweep = %v, want 500", got)
	}
	// The page must now be clean and durable.
	if len(p.DirtyPageTable(1000)) != 0 {
		t.Fatal("sweep left dirty pages")
	}
	buf := make([]byte, page.Size)
	if err := v.Read(1, buf); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(buf[100:]) != 7 {
		t.Fatal("sweep did not write the page")
	}
	if p.Stats().CleanerIO == 0 {
		t.Error("cleaner IO not counted")
	}
}

func TestCleanerSkipsLatchedPages(t *testing.T) {
	v := newVol(t, 8)
	opts := variants()["final"]
	opts.Frames = 8
	opts.CurLSN = func() wal.LSN { return 900 }
	p := New(v, opts)
	defer p.Close()

	f, err := p.Fix(1, sync2.LatchEX)
	if err != nil {
		t.Fatal(err)
	}
	f.Page().SetLSN(50)
	f.MarkDirty(50)
	// Sweep while the page is EX-latched: it must be skipped and the
	// published LSN must not pass its recLSN.
	p.CleanerSweep()
	if got := p.CleanerCkptLSN(); got != 50 {
		t.Fatalf("ckpt LSN = %v, want 50 (bounded by skipped dirty page)", got)
	}
	p.Unfix(f, sync2.LatchEX)
	// A writer that holds the latch and has logged its update but not yet
	// dirtied the page: nobody knows its recLSN, so the sweep waits for the
	// latch instead of publishing past it (or publishing nothing).
	g, err := p.Fix(2, sync2.LatchEX)
	if err != nil {
		t.Fatal(err)
	}
	swept := make(chan struct{})
	go func() { defer close(swept); p.CleanerSweep() }()
	select {
	case <-swept:
		t.Fatalf("sweep returned (ckpt LSN %v) past a page that is being modified", p.CleanerCkptLSN())
	case <-time.After(20 * time.Millisecond):
	}
	g.MarkDirty(60)
	p.Unfix(g, sync2.LatchEX)
	await(t, swept, "sweep after the writer let go")
	// 60 if the sweep looked between MarkDirty and Unfix, 900 if it got
	// the latch and wrote the page.
	if got := p.CleanerCkptLSN(); got != 60 && got != 900 {
		t.Fatalf("ckpt LSN = %v, want 60 or 900", got)
	}
	p.CleanerSweep()
	if got := p.CleanerCkptLSN(); got != 900 {
		t.Fatalf("ckpt LSN = %v, want 900 once everything is clean", got)
	}
}

func TestBackgroundCleaner(t *testing.T) {
	v := newVol(t, 8)
	opts := variants()["final"]
	opts.Frames = 8
	p := New(v, opts)
	defer p.Close()
	f, err := p.Fix(2, sync2.LatchEX)
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty(5)
	p.Unfix(f, sync2.LatchEX)
	p.StartCleaner(time.Millisecond)
	deadline := time.After(2 * time.Second)
	for len(p.DirtyPageTable(100)) > 0 {
		select {
		case <-deadline:
			t.Fatal("cleaner never cleaned the page")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	p.StopCleaner()
	// Idempotent start/stop.
	p.StartCleaner(time.Hour)
	p.StartCleaner(time.Hour)
	p.StopCleaner()
	p.StopCleaner()
}

func TestDrop(t *testing.T) {
	v := newVol(t, 8)
	opts := variants()["final"]
	opts.Frames = 8
	p := New(v, opts)
	defer p.Close()
	f, err := p.Fix(4, sync2.LatchEX)
	if err != nil {
		t.Fatal(err)
	}
	stamp(f, 99)
	f.MarkDirty(1)
	p.Unfix(f, sync2.LatchEX)
	p.Drop(4)
	// The dirty data must NOT have been written back.
	buf := make([]byte, page.Size)
	if err := v.Read(4, buf); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(buf[100:]) == 99 {
		t.Fatal("Drop wrote the page back")
	}
	// Page is refetchable from disk (original zero stamp).
	f2, err := p.Fix(4, sync2.LatchSH)
	if err != nil {
		t.Fatal(err)
	}
	if readStamp(f2) == 99 {
		t.Fatal("dropped page still cached")
	}
	p.Unfix(f2, sync2.LatchSH)
}

func TestNoFreeFrames(t *testing.T) {
	v := newVol(t, 8)
	opts := variants()["bpool1"]
	opts.Frames = 2
	p := New(v, opts)
	defer p.Close()
	f1, err := p.Fix(1, sync2.LatchSH)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.Fix(2, sync2.LatchSH)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fix(3, sync2.LatchSH); err == nil {
		t.Fatal("fix with all frames pinned succeeded")
	}
	p.Unfix(f1, sync2.LatchSH)
	p.Unfix(f2, sync2.LatchSH)
	// Now it must succeed.
	f3, err := p.Fix(3, sync2.LatchSH)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f3, sync2.LatchSH)
}

func TestFixInvalidAndClosed(t *testing.T) {
	v := newVol(t, 4)
	p := New(v, Options{Frames: 4, Table: TableCuckoo, AtomicPin: true})
	if _, err := p.Fix(page.InvalidID, sync2.LatchSH); err == nil {
		t.Error("fix of invalid pid succeeded")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fix(1, sync2.LatchSH); err != ErrPoolClosed {
		t.Errorf("fix after close = %v", err)
	}
	if _, err := p.FixNew(1); err != ErrPoolClosed {
		t.Errorf("FixNew after close = %v", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestTableKindString(t *testing.T) {
	if TableGlobalChain.String() != "globalChain" ||
		TablePerBucketChain.String() != "perBucketChain" ||
		TableCuckoo.String() != "cuckoo" || TableKind(9).String() != "unknown" {
		t.Error("TableKind strings")
	}
}

// TestCuckooOverflowKeepsPinnedPagesReachable is the regression for the
// unbounded getOrInsert ↔ dropOrphan recursion: four pinned pages whose
// cuckoo candidate slots all fall into the same three slots of a 16-slot
// table, so placing the fourth must exhaust the cascade bound with every
// possible victim pinned. The cascade is deterministic, so re-inserting a
// displaced mapping displaces it again; the old remedy recursed until the
// stack overflowed (a fatal error — the small stack limit makes that
// quick). Now the table keeps the overflow itself and every page stays
// mapped: fixing them again must hit, never go to the (empty) volume.
func TestCuckooOverflowKeepsPinnedPagesReachable(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	const frames, seed = 4, 1
	h := hash.NewCombined(seed)
	slotsOf := func(pid page.ID) (m uint16) {
		for w := 0; w < 3; w++ {
			m |= 1 << (h.Sub(w, uint64(pid)) & (frames*4 - 1))
		}
		return m
	}
	var target uint16
	var pids []page.ID
	for pid := page.ID(1); len(pids) < frames; pid++ {
		m := slotsOf(pid)
		if target == 0 && bits.OnesCount16(m) == 3 {
			target = m
		}
		if target != 0 && m&^target == 0 {
			pids = append(pids, pid)
		}
	}
	p := New(disk.NewMem(0), Options{
		Frames: frames, Shards: 1, Seed: seed, Table: TableCuckoo, AtomicPin: true,
		TransitPartitions: 1, TransitBypass: true,
	})
	defer p.Close()
	held := make([]*Frame, len(pids))
	for i, pid := range pids {
		f, err := p.FixNew(pid)
		if err != nil {
			t.Fatalf("FixNew(%v): %v", pid, err)
		}
		held[i] = f
	}
	for _, f := range held {
		p.Unfix(f, sync2.LatchEX)
	}
	for i, pid := range pids {
		f, err := p.Fix(pid, sync2.LatchSH)
		if err != nil {
			t.Fatalf("Fix(%v) after the overflow: %v", pid, err)
		}
		if f != held[i] {
			t.Errorf("Fix(%v) returned a second frame for a cached page", pid)
		}
		p.Unfix(f, sync2.LatchSH)
	}
	if s := p.Stats(); s.Misses != 0 {
		t.Errorf("%d misses: a mapping was lost", s.Misses)
	}
}

// TestFixOptKeepsPageResident: a page read only through FixOpt (as B-tree
// inner nodes are under optimistic descents) must look referenced to the
// clock, or replacement evicts the pages read most. Two frames hold pages
// 1 and 2, a sweep has cleared both reference bits, and one of the pages
// is then read optimistically: the miss on page 3 must evict the other.
// Each page takes the read once, so whichever frame the hand reaches
// first is the optimistically read one in one of the two runs.
func TestFixOptKeepsPageResident(t *testing.T) {
	for _, read := range []page.ID{1, 2} {
		opts := variants()["final"]
		opts.Frames, opts.Shards = 2, 1
		p := New(newVol(t, 3), opts)
		for _, pid := range []page.ID{1, 2} {
			f, err := p.Fix(pid, sync2.LatchSH)
			if err != nil {
				t.Fatal(err)
			}
			p.Unfix(f, sync2.LatchSH)
		}
		for _, f := range p.frames {
			f.refbit.Store(false) // what a passing hand leaves
		}
		ref, ok := p.FixOpt(read)
		if !ok {
			t.Fatalf("FixOpt(%v) missed a resident page", read)
		}
		p.ReleaseOpt(ref)
		f, err := p.Fix(3, sync2.LatchSH)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, sync2.LatchSH)
		if _, ok := p.lookupFrame(read); !ok {
			t.Errorf("page %v, read through FixOpt, was evicted ahead of an unreferenced page", read)
		}
		p.Close()
	}
}
