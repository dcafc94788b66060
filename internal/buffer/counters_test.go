package buffer

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/sync2"
)

// countingVolume counts the page reads, each of them one load.
type countingVolume struct {
	disk.Volume
	reads atomic.Uint64
}

func (c *countingVolume) Read(pid page.ID, buf []byte) error {
	c.reads.Add(1)
	return c.Volume.Read(pid, buf)
}

// TestHitCountersExact: with one goroutine every Fix either finds its page
// or loads it, so the hits the frames count sum to the fixes that read
// nothing, and Misses is the number of reads. The script mixes a hot set
// with a sweep over more pages than the pool holds.
func TestHitCountersExact(t *testing.T) {
	const pages, frames, fixes = 40, 16, 600
	for name, opts := range variants() {
		t.Run(name, func(t *testing.T) {
			v := &countingVolume{Volume: newVol(t, pages)}
			opts.Frames = frames
			p := New(v, opts)
			defer p.Close()
			for i := 0; i < fixes; i++ {
				pid, mode := page.ID(1+i%5), sync2.LatchSH
				if i%3 == 0 {
					pid, mode = page.ID(1+(i*7)%pages), sync2.LatchEX
				}
				f, err := p.Fix(pid, mode)
				if err != nil {
					t.Fatal(err)
				}
				p.Unfix(f, mode)
			}
			st, reads := p.Stats(), v.reads.Load()
			if st.Misses != reads {
				t.Errorf("Misses = %d, the volume saw %d reads", st.Misses, reads)
			}
			if hits := st.Hits + st.HotHits; hits != fixes-reads {
				t.Errorf("Hits %d + HotHits %d = %d, want %d fixes less %d loads", st.Hits, st.HotHits, hits, fixes, reads)
			}
			// With a hot array a hit goes through it unless another page took
			// its slot; without one every hit is a table hit.
			if hot := st.HotHits > 0; hot != (opts.HotArray > 0) || (!hot && st.Hits == 0) {
				t.Errorf("Hits %d, HotHits %d with a hot array of %d", st.Hits, st.HotHits, opts.HotArray)
			}
		})
	}
}

// span is a field's place in its struct.
type span struct {
	name      string
	off, size uintptr
}

// gap is the number of bytes between two fields that do not overlap, and
// negative when they do.
func gap(a, b span) int {
	if a.off > b.off {
		a, b = b, a
	}
	return int(b.off) - int(a.off+a.size)
}

// TestPoolLayout guards the padding in Pool: every fix reads the
// read-mostly fields, and a miss or an eviction writes the counters, so no
// cache line may hold both. A heap object is only 8-byte aligned, so where
// the lines fall is unknown: the two sets are kept 64 bytes apart.
func TestPoolLayout(t *testing.T) {
	var p Pool
	readMostly := []span{
		{"opts", unsafe.Offsetof(p.opts), unsafe.Sizeof(p.opts)},
		{"frames", unsafe.Offsetof(p.frames), unsafe.Sizeof(p.frames)},
		{"table", unsafe.Offsetof(p.table), unsafe.Sizeof(p.table)},
		{"hot", unsafe.Offsetof(p.hot), unsafe.Sizeof(p.hot)},
		{"closed", unsafe.Offsetof(p.closed), unsafe.Sizeof(p.closed)},
	}
	counters := []span{
		{"misses", unsafe.Offsetof(p.misses), unsafe.Sizeof(p.misses)},
		{"evictions", unsafe.Offsetof(p.evictions), unsafe.Sizeof(p.evictions)},
		{"writebacks", unsafe.Offsetof(p.writebacks), unsafe.Sizeof(p.writebacks)},
		{"cleanerIO", unsafe.Offsetof(p.cleanerIO), unsafe.Sizeof(p.cleanerIO)},
		{"transitWait", unsafe.Offsetof(p.transitWait), unsafe.Sizeof(p.transitWait)},
		{"transitConflicts", unsafe.Offsetof(p.transitConflicts), unsafe.Sizeof(p.transitConflicts)},
		{"pinRetries", unsafe.Offsetof(p.pinRetries), unsafe.Sizeof(p.pinRetries)},
		{"exhaustedSweeps", unsafe.Offsetof(p.exhaustedSweeps), unsafe.Sizeof(p.exhaustedSweeps)},
	}
	for _, r := range readMostly {
		for _, c := range counters {
			if g := gap(r, c); g < 64 {
				t.Errorf("read-mostly %s is %d bytes from counter %s, want at least 64", r.name, g, c.name)
			}
		}
	}
}
