package buffer

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/sync2"
	"repro/internal/wal"
)

// shardedOpts is the scalable configuration with an explicit shard count.
func shardedOpts(shards int) Options {
	o := variants()["final"]
	o.Shards = shards
	return o
}

func TestShardCount(t *testing.T) {
	cases := []struct {
		frames, requested, want int
	}{
		{16, 1, 1},      // explicit single hand
		{16, 4, 4},      // explicit sharding honored on tiny pools
		{16, 100, 8},    // clamped: every region holds >= 2 frames
		{16, 0, 1},      // auto on a tiny pool degrades to one shard
		{1, 0, 1},       // degenerate pool
		{1 << 20, 7, 7}, // odd explicit counts work (last region takes the remainder)
	}
	for _, c := range cases {
		if got := shardCount(c.frames, c.requested); got != c.want {
			t.Errorf("shardCount(%d, %d) = %d, want %d", c.frames, c.requested, got, c.want)
		}
	}
	// Auto sharding never exceeds GOMAXPROCS-scaled bounds or frames/64.
	if got := shardCount(4096, 0); got < 1 || got > 64 || got > 4096/minAutoShardFrames {
		t.Errorf("auto shardCount(4096) = %d out of bounds", got)
	}
}

func TestShardRegionsCoverFrames(t *testing.T) {
	v := newVol(t, 8)
	opts := shardedOpts(3)
	opts.Frames = 16
	p := New(v, opts)
	defer p.Close()
	if len(p.shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(p.shards))
	}
	covered := 0
	for i, s := range p.shards {
		if s.hi <= s.lo {
			t.Fatalf("shard %d empty region [%d,%d)", i, s.lo, s.hi)
		}
		covered += s.hi - s.lo
		for idx := s.lo; idx < s.hi; idx++ {
			if got := p.shardOfFrame(uint32(idx)); got != s {
				t.Fatalf("shardOfFrame(%d) = shard %d, want %d", idx, got.id, i)
			}
		}
	}
	if covered != 16 {
		t.Fatalf("regions cover %d frames, want 16", covered)
	}
	// A fresh pool starts fully free-listed.
	if _, free := p.occupancy(); free != 16 {
		t.Fatalf("fresh pool free-listed %d frames, want 16", free)
	}
}

// TestFreeListMissNoEvictionIO is the tentpole's acceptance check: with
// shards > 1, a miss that finds a free-list frame performs no eviction
// I/O and steals nothing from other shards.
func TestFreeListMissNoEvictionIO(t *testing.T) {
	v := newVol(t, 64)
	opts := shardedOpts(4)
	opts.Frames = 32
	p := New(v, opts)
	defer p.Close()

	before := p.Stats()
	for i := 1; i <= 16; i++ {
		f, err := p.Fix(page.ID(i), sync2.LatchSH)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, sync2.LatchSH)
	}
	after := p.Stats()
	if after.FreeListHits-before.FreeListHits != 16 {
		t.Errorf("free-list hits = %d, want 16", after.FreeListHits-before.FreeListHits)
	}
	if after.Writebacks != before.Writebacks || after.Evictions != before.Evictions {
		t.Errorf("free-list misses performed eviction work: %+v -> %+v", before, after)
	}
	if after.Steals != 0 {
		t.Errorf("free-list misses stole from other shards: %d", after.Steals)
	}
	if after.ScanFrames != 0 {
		t.Errorf("free-list misses ran a clock hand: %d scans", after.ScanFrames)
	}
}

func TestCleanerRefillsWatermarks(t *testing.T) {
	v := newVol(t, 96)
	opts := shardedOpts(2)
	opts.Frames = 32
	p := New(v, opts)
	defer p.Close()

	// Drain every free list (3x overcommit makes every shard's home
	// traffic exceed its region) and leave the whole pool dirty.
	for i := 1; i <= 96; i++ {
		f, err := p.Fix(page.ID(i), sync2.LatchEX)
		if err != nil {
			t.Fatal(err)
		}
		stamp(f, uint64(i))
		f.Page().SetLSN(uint64(i))
		f.MarkDirty(wal.LSN(i))
		p.Unfix(f, sync2.LatchEX)
	}
	st := p.Stats()
	sumFree := 0
	for _, sh := range st.Shards {
		sumFree += sh.FreeFrames
	}
	if sumFree != 0 {
		t.Fatalf("free lists not drained: %d", sumFree)
	}

	p.RefillFreeLists()

	st = p.Stats()
	for i, sh := range st.Shards {
		if sh.FreeFrames < p.shards[i].lowWater {
			t.Errorf("shard %d refilled to %d, low watermark %d", i, sh.FreeFrames, p.shards[i].lowWater)
		}
	}
	if st.CleanerFrees == 0 {
		t.Error("no cleaner-supplied frames counted")
	}
	// Dirty victims were written back (off any miss path), not dropped.
	if st.Writebacks == 0 {
		t.Error("refill evicted dirty pages without write-back")
	}
	buf := make([]byte, page.Size)
	evicted := 0
	for i := 1; i <= 96; i++ {
		if err := v.Read(page.ID(i), buf); err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(buf[100:]) == uint64(i) {
			evicted++
		}
	}
	if evicted == 0 {
		t.Error("no refill victim reached the volume")
	}
}

func TestDropFeedsFreeList(t *testing.T) {
	v := newVol(t, 16)
	opts := shardedOpts(2)
	opts.Frames = 8
	p := New(v, opts)
	defer p.Close()
	f, err := p.Fix(5, sync2.LatchEX)
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty(1)
	p.Unfix(f, sync2.LatchEX)
	before := 0
	for _, sh := range p.Stats().Shards {
		before += sh.FreeFrames
	}
	p.Drop(5)
	after := 0
	for _, sh := range p.Stats().Shards {
		after += sh.FreeFrames
	}
	if after != before+1 {
		t.Errorf("Drop fed %d frames to free lists, want 1", after-before)
	}
	// The frame is immediately reusable without a clock scan.
	scans := p.Stats().ScanFrames
	g, err := p.Fix(9, sync2.LatchSH)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(g, sync2.LatchSH)
	if got := p.Stats().ScanFrames; got != scans {
		t.Errorf("re-fix after Drop ran the clock (%d scans)", got-scans)
	}
}

func TestNoFreeFramesOccupancyError(t *testing.T) {
	v := newVol(t, 8)
	opts := shardedOpts(1)
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
	_, err = p.Fix(3, sync2.LatchSH)
	if !errors.Is(err, ErrNoFreeFrames) {
		t.Fatalf("err = %v, want ErrNoFreeFrames", err)
	}
	if !strings.Contains(err.Error(), "2/2 frames pinned") {
		t.Errorf("error lacks occupancy: %v", err)
	}
	p.Unfix(f1, sync2.LatchSH)
	p.Unfix(f2, sync2.LatchSH)
}

// TestAllocRetryRecovers exercises the recoverable ErrNoFreeFrames path:
// a fully pinned pool whose pins release mid-backoff succeeds without
// surfacing an error. The pin goes only once the allocator's first sweep
// has failed, so the retry is what recovers.
func TestAllocRetryRecovers(t *testing.T) {
	v := newVol(t, 8)
	opts := shardedOpts(1)
	opts.Frames = 2
	p := New(v, opts)
	defer p.Close()
	f1, _ := p.Fix(1, sync2.LatchSH)
	f2, _ := p.Fix(2, sync2.LatchSH)
	go func() {
		for p.exhaustedSweeps.Load() == 0 {
			runtime.Gosched()
		}
		p.Unfix(f1, sync2.LatchSH)
	}()
	f3, err := p.Fix(3, sync2.LatchSH)
	if err != nil {
		t.Fatalf("fix did not recover after pin release: %v", err)
	}
	p.Unfix(f3, sync2.LatchSH)
	p.Unfix(f2, sync2.LatchSH)
}

// TestShardedPoolStress drives a tiny sharded pool with concurrent
// Fix/FixOpt/Drop/FlushAll under -race: no lost updates, no
// double-mapped frames, and hot-array lookups never pin a recycled
// victim (every returned frame's identity matches the request).
func TestShardedPoolStress(t *testing.T) {
	const (
		frames   = 16
		shards   = 4
		hotPages = 8  // counters, never dropped
		allPages = 48 // pressure + drop targets beyond the hot set
		writers  = 4
		readers  = 4
		rounds   = 320 // multiple of hotPages: every counter gets rounds/hotPages hits per writer
	)
	v := newVol(t, allPages)
	opts := shardedOpts(shards)
	opts.Frames = frames
	p := New(newCheckedVolume(t, v), opts)
	defer p.Close()
	p.StartCleaner(100 * time.Microsecond)

	var wg sync.WaitGroup
	// Writers increment per-page counters under EX latches.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pid := page.ID(i%hotPages + 1)
				f, err := p.Fix(pid, sync2.LatchEX)
				if err != nil {
					t.Error(err)
					return
				}
				if f.PID() != pid || f.Page().PID() != pid {
					t.Errorf("EX fix of %v returned frame holding %v/%v", pid, f.PID(), f.Page().PID())
					p.Unfix(f, sync2.LatchEX)
					return
				}
				stamp(f, readStamp(f)+1)
				f.Page().SetLSN(uint64(i + 1))
				f.MarkDirty(1)
				p.Unfix(f, sync2.LatchEX)
			}
		}(w)
	}
	// Readers mix pinned and optimistic fixes across the whole range,
	// checking identity on every success.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pid := page.ID((r*31+i)%allPages + 1)
				if i%3 == 0 {
					if ref, ok := p.FixOpt(pid); ok {
						got := ref.Frame().PID()
						if p.Validate(ref) && got != pid {
							t.Errorf("validated optimistic ref of %v on frame holding %v", pid, got)
						}
						p.ReleaseOpt(ref)
					}
					continue
				}
				f, err := p.Fix(pid, sync2.LatchSH)
				if err != nil {
					t.Error(err)
					return
				}
				if f.PID() != pid || f.Page().PID() != pid {
					t.Errorf("SH fix of %v returned frame holding %v/%v", pid, f.PID(), f.Page().PID())
				}
				p.Unfix(f, sync2.LatchSH)
			}
		}(r)
	}
	// Droppers retire scratch pages (never the counter pages).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p.Drop(page.ID(hotPages + 1 + i%(allPages-hotPages)))
		}
	}()
	// A flusher sweeps everything repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/10; i++ {
			if err := p.FlushAll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	p.StopCleaner()

	// No double-mapped frames at quiescence.
	seen := map[page.ID]int{}
	for _, f := range p.frames {
		if pid := f.PID(); pid != 0 {
			seen[pid]++
		}
	}
	for pid, n := range seen {
		if n > 1 {
			t.Errorf("page %v cached in %d frames", pid, n)
		}
	}
	// No lost updates: every counter page reads writers*rounds/hotPages...
	// each writer hits each hot page rounds/hotPages times.
	want := uint64(writers * (rounds / hotPages))
	for i := 1; i <= hotPages; i++ {
		f, err := p.Fix(page.ID(i), sync2.LatchSH)
		if err != nil {
			t.Fatal(err)
		}
		if got := readStamp(f); got != want {
			t.Errorf("page %d counter = %d, want %d (lost updates)", i, got, want)
		}
		p.Unfix(f, sync2.LatchSH)
	}
}

// flakyReadVolume yields inside every read, widening the window in which
// a load's frame is published but its page not yet in it, and fails every
// nth read after poisoning the buffer: a failed load dumps its frame.
type flakyReadVolume struct {
	disk.Volume
	n     uint64
	reads atomic.Uint64
}

var errInjectedRead = errors.New("injected read failure")

func (v *flakyReadVolume) Read(pid page.ID, buf []byte) error {
	runtime.Gosched()
	if v.reads.Add(1)%v.n == 0 {
		clear(buf)
		return errInjectedRead
	}
	return v.Volume.Read(pid, buf)
}

// TestHotPinRacesEviction: the hot-page array pins an unpinned frame, so a
// stale slot can pin a frame that holds another page now, or one whose
// load is about to fail. Eight goroutines fix skewed page ids over a pool
// an eighth the size of the volume while the cleaner refills the free
// lists; each holds its first page EX while it fixes a second, higher one,
// so a stale slot that latched without checking the pid first would
// latch its own goroutine's frame. Every fix must return a frame holding
// the page it asked for — the pid and the stamp the page was written with.
func TestHotPinRacesEviction(t *testing.T) {
	const (
		frames  = 64
		pages   = 512
		workers = 8
		rounds  = 400
	)
	mem := newVol(t, pages)
	buf := make([]byte, page.Size)
	for pid := page.ID(1); pid <= pages; pid++ {
		if err := mem.Read(pid, buf); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(buf[100:], uint64(pid))
		if err := mem.Write(pid, buf); err != nil {
			t.Fatal(err)
		}
	}
	opts := shardedOpts(4)
	opts.Frames, opts.HotArray = frames, pages
	p := New(&flakyReadVolume{Volume: mem, n: 4}, opts)
	p.StartCleaner(100 * time.Microsecond)

	// fix fixes pid and checks the frame; it reports false when the load
	// failed by injection.
	fix := func(pid page.ID, mode sync2.LatchMode) (*Frame, bool) {
		f, err := p.Fix(pid, mode)
		if err != nil {
			if !errors.Is(err, errInjectedRead) {
				t.Error(err)
			}
			return nil, false
		}
		if f.PID() != pid || readStamp(f) != uint64(pid) {
			t.Errorf("fix of %v returned a frame holding %v, page stamp %d", pid, f.PID(), readStamp(f))
		}
		return f, true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			skewed := func() page.ID { return page.ID(1 + rng.Intn(1+rng.Intn(pages))) }
			for i := 0; i < rounds; i++ {
				a, b := skewed(), skewed()
				if a > b {
					a, b = b, a
				}
				fa, ok := fix(a, sync2.LatchEX)
				if !ok {
					continue
				}
				fa.MarkDirty(1) // the cleaner and evictors write it back
				if b != a {
					if fb, ok := fix(b, sync2.LatchSH); ok {
						p.Unfix(fb, sync2.LatchSH)
					}
				}
				p.Unfix(fa, sync2.LatchEX)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		// Not Close: the pool's walks would wait on the stuck latches.
		t.Fatal("fixes stuck: a fix waits on a latch its own goroutine holds")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.HotHits == 0 || st.Evictions == 0 {
		t.Errorf("%d hot hits, %d evictions: the race was not run", st.HotHits, st.Evictions)
	}
}
