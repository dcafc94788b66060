package space

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/sync2"
)

func newMgr(opts Options) (*Manager, *disk.MemVolume) {
	v := disk.NewMem(0)
	return NewManager(v, opts), v
}

func fullOpts() Options {
	return Options{
		Mutex: sync2.KindMCS, ExtentCache: true, LastPageCache: true,
	}
}

func TestCreateStoreAndAlloc(t *testing.T) {
	m, v := newMgr(fullOpts())
	s1 := m.CreateStore(KindHeap)
	s2 := m.CreateStore(KindBTree)
	if s1 == s2 {
		t.Fatal("duplicate store ids")
	}
	if k, err := m.StoreKindOf(s2); err != nil || k != KindBTree {
		t.Fatalf("StoreKindOf = %v, %v", k, err)
	}
	if _, err := m.StoreKindOf(999); !errors.Is(err, ErrNoSuchStore) {
		t.Errorf("unknown store err = %v", err)
	}
	pid, err := m.AllocPage(s1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pid != 1 {
		t.Fatalf("first page = %v, want 1", pid)
	}
	if v.NumPages() != ExtentSize {
		t.Fatalf("volume grew to %d pages, want one extent (%d)", v.NumPages(), ExtentSize)
	}
	// Fill the extent: pages 2..8 come from the same extent without growth.
	for i := 2; i <= ExtentSize; i++ {
		p, err := m.AllocPage(s1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p != page.ID(i) {
			t.Fatalf("page %d = %v", i, p)
		}
	}
	if v.NumPages() != ExtentSize {
		t.Fatal("volume grew before extent was full")
	}
	// Ninth page: new extent.
	p9, err := m.AllocPage(s1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p9 != ExtentSize+1 {
		t.Fatalf("ninth page = %v", p9)
	}
	if got := m.Stats().ExtentsGrown; got != 2 {
		t.Errorf("ExtentsGrown = %d, want 2", got)
	}
}

func TestSeparateStoresSeparateExtents(t *testing.T) {
	m, _ := newMgr(fullOpts())
	s1 := m.CreateStore(KindHeap)
	s2 := m.CreateStore(KindHeap)
	p1, _ := m.AllocPage(s1, nil)
	p2, _ := m.AllocPage(s2, nil)
	if extentOf(p1) == extentOf(p2) {
		t.Fatal("two stores share an extent")
	}
	if err := m.CheckPage(s1, p1, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckPage(s1, p2, nil); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("cross-store CheckPage = %v", err)
	}
	if _, err := m.StoreOf(page.ID(999), nil); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("unallocated StoreOf = %v", err)
	}
}

func TestExtentCache(t *testing.T) {
	m, _ := newMgr(fullOpts())
	s := m.CreateStore(KindHeap)
	pid, _ := m.AllocPage(s, nil)
	var cache ExtentCache
	if err := m.CheckPage(s, pid, &cache); err != nil {
		t.Fatal(err)
	}
	misses := m.Stats().CacheMisses
	// Repeated checks on the same extent must hit the cache.
	for i := 0; i < 100; i++ {
		if err := m.CheckPage(s, pid, &cache); err != nil {
			t.Fatal(err)
		}
	}
	m.FoldCacheHits(&cache)
	st := m.Stats()
	if st.CacheMisses != misses {
		t.Errorf("cache misses grew: %d -> %d", misses, st.CacheMisses)
	}
	if st.CacheHits < 100 {
		t.Errorf("cache hits = %d, want >= 100", st.CacheHits)
	}
	// Disabled cache: every check is a miss.
	m2, _ := newMgr(Options{Mutex: sync2.KindBlocking})
	s2 := m2.CreateStore(KindHeap)
	pid2, _ := m2.AllocPage(s2, nil)
	var c2 ExtentCache
	for i := 0; i < 10; i++ {
		if err := m2.CheckPage(s2, pid2, &c2); err != nil {
			t.Fatal(err)
		}
	}
	if m2.Stats().CacheHits != 0 {
		t.Error("disabled cache recorded hits")
	}
}

func TestFreePageAndExtentReuse(t *testing.T) {
	m, v := newMgr(fullOpts())
	s := m.CreateStore(KindHeap)
	var pids []page.ID
	for i := 0; i < ExtentSize; i++ {
		p, err := m.AllocPage(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p)
	}
	for _, p := range pids {
		m.FreePage(p)
	}
	// The fully-freed extent must be reusable by another store without
	// growing the volume.
	grown := v.NumPages()
	s2 := m.CreateStore(KindHeap)
	p, err := m.AllocPage(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumPages() != grown {
		t.Fatal("volume grew despite a free extent")
	}
	if err := m.CheckPage(s2, p, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Frees; got != ExtentSize {
		t.Errorf("frees = %d", got)
	}
}

func noInit(page.ID) error { return nil }

func TestLastPageCacheVsWalk(t *testing.T) {
	// With the cache: one walk while the hint is cold, then none.
	m, _ := newMgr(fullOpts())
	s := m.CreateStore(KindHeap)
	var last page.ID
	for i := 0; i < 20; i++ {
		last, _ = m.Extend(s, last, nil, nil, noInit)
	}
	got, err := m.LastPage(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != last {
		t.Fatalf("LastPage = %v, want %v", got, last)
	}
	if m.Stats().LastPageWalks != 1 {
		t.Errorf("walks with cache on = %d, want 1 (the cold hint)", m.Stats().LastPageWalks)
	}
	// Without the cache: every call walks.
	m2, _ := newMgr(Options{Mutex: sync2.KindBlocking})
	s2 := m2.CreateStore(KindHeap)
	var last2 page.ID
	for i := 0; i < 20; i++ {
		last2, _ = m2.AllocPage(s2, nil)
	}
	for i := 0; i < 5; i++ {
		got, err := m2.LastPage(s2)
		if err != nil {
			t.Fatal(err)
		}
		if got != last2 {
			t.Fatalf("LastPage = %v, want %v", got, last2)
		}
	}
	if m2.Stats().LastPageWalks != 5 {
		t.Errorf("walks with cache off = %d, want 5", m2.Stats().LastPageWalks)
	}
	// SetLastPage hint.
	m.SetLastPage(s, 3)
	if got, _ := m.LastPage(s); got != 3 {
		t.Errorf("hinted LastPage = %v, want 3", got)
	}
	if _, err := m.LastPage(999); !errors.Is(err, ErrNoSuchStore) {
		t.Errorf("LastPage unknown store = %v", err)
	}
}

// TestExtendOncePerPageFull: inserters that all found the same page full
// grow the store by one page, and every one of them is handed that page.
// A cold hint is filled from the walk instead of allocating.
func TestExtendOncePerPageFull(t *testing.T) {
	m, _ := newMgr(fullOpts())
	s := m.CreateStore(KindHeap)
	first, _ := m.AllocPage(s, nil) // e.g. restored by recovery: hint cold
	if got, _ := m.Extend(s, 0, nil, nil, noInit); got != first {
		t.Fatalf("cold Extend = %v, want the walked page %v", got, first)
	}
	const g = 8
	got := make([]page.ID, g)
	var inits atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], _ = m.Extend(s, first, nil, nil, func(page.ID) error {
				inits.Add(1)
				return nil
			})
		}(w)
	}
	wg.Wait()
	if inits.Load() != 1 || m.Stats().Allocs != 2 {
		t.Fatalf("%d inits, %d allocations for one page-full; want 1 and 2", inits.Load(), m.Stats().Allocs)
	}
	for w, p := range got {
		if p != got[0] || p == first {
			t.Fatalf("caller %d got %v, caller 0 got %v (full page %v)", w, p, got[0], first)
		}
	}
	// The allocator's extent cache learns the fresh page's extent.
	var cache ExtentCache
	p, _ := m.Extend(s, got[0], &cache, nil, noInit)
	misses := m.Stats().CacheMisses
	if err := m.CheckPage(s, p, &cache); err != nil || m.Stats().CacheMisses != misses {
		t.Fatalf("CheckPage of a page this cache allocated: err %v, misses %d -> %d", err, misses, m.Stats().CacheMisses)
	}
	// A failed init publishes nothing.
	bad := errors.New("format failed")
	if _, err := m.Extend(s, p, nil, nil, func(page.ID) error { return bad }); !errors.Is(err, bad) {
		t.Fatalf("Extend with failing init = %v", err)
	}
	if h, _ := m.LastPage(s); h != p {
		t.Fatalf("hint after a failed init = %v, want %v", h, p)
	}
}

// TestLastPageConcurrent: LastPage reads the hint and the directory
// without the mutex while writers allocate and publish and new stores are
// created. A reader sees 0 or a page of its store, and the hint ends at
// the page published last.
func TestLastPageConcurrent(t *testing.T) {
	m, _ := newMgr(fullOpts())
	s := m.CreateStore(KindHeap)
	const writers, pages, readers = 4, 200, 4
	var pubMu sync.Mutex
	var lastPub page.ID
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pages; i++ {
				pid, err := m.AllocPage(s, noInit)
				if err != nil {
					t.Error(err)
					return
				}
				pubMu.Lock()
				m.SetLastPage(s, pid)
				lastPub = pid
				pubMu.Unlock()
				if i%50 == 0 {
					m.CreateStore(KindHeap) // a directory copy under the readers
				}
			}
		}()
	}
	done := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				pid, err := m.LastPage(s)
				if err != nil {
					t.Error(err)
					return
				}
				if pid == 0 {
					continue
				}
				if err := m.CheckPage(s, pid, nil); err != nil {
					t.Errorf("LastPage = %v: %v", pid, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if got, _ := m.LastPage(s); got != lastPub {
		t.Fatalf("final hint = %v, want the last published %v", got, lastPub)
	}
}

func TestPagesEnumeration(t *testing.T) {
	m, _ := newMgr(fullOpts())
	s := m.CreateStore(KindHeap)
	want := map[page.ID]bool{}
	for i := 0; i < 20; i++ {
		p, err := m.AllocPage(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = true
	}
	pages, err := m.Pages(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 20 {
		t.Fatalf("Pages returned %d, want 20", len(pages))
	}
	for i := 1; i < len(pages); i++ {
		if pages[i] <= pages[i-1] {
			t.Fatal("Pages not ascending")
		}
	}
	for _, p := range pages {
		if !want[p] {
			t.Fatalf("unexpected page %v", p)
		}
	}
	if _, err := m.Pages(12345); !errors.Is(err, ErrNoSuchStore) {
		t.Errorf("Pages unknown store = %v", err)
	}
}

func TestRootAccessors(t *testing.T) {
	m, _ := newMgr(fullOpts())
	s := m.CreateStore(KindBTree)
	if r, err := m.Root(s); err != nil || r != 0 {
		t.Fatalf("fresh root = %v, %v", r, err)
	}
	if err := m.SetRoot(s, 42); err != nil {
		t.Fatal(err)
	}
	if r, _ := m.Root(s); r != 42 {
		t.Fatalf("root = %v", r)
	}
	if err := m.SetRoot(999, 1); !errors.Is(err, ErrNoSuchStore) {
		t.Errorf("SetRoot unknown = %v", err)
	}
	if _, err := m.Root(999); !errors.Is(err, ErrNoSuchStore) {
		t.Errorf("Root unknown = %v", err)
	}
}

func TestLatchInCSCallback(t *testing.T) {
	for _, inCS := range []bool{true, false} {
		opts := fullOpts()
		opts.LatchInCS = inCS
		m, _ := newMgr(opts)
		s := m.CreateStore(KindHeap)
		called := false
		pid, err := m.AllocPage(s, func(p page.ID) error {
			called = true
			if p == 0 {
				t.Error("callback got zero pid")
			}
			return nil
		})
		if err != nil || !called {
			t.Fatalf("inCS=%v: err=%v called=%v", inCS, err, called)
		}
		if err := m.CheckPage(s, pid, nil); err != nil {
			t.Fatal(err)
		}
		// Callback failure frees the page again.
		failErr := errors.New("fix failed")
		_, err = m.AllocPage(s, func(page.ID) error { return failErr })
		if !errors.Is(err, failErr) {
			t.Fatalf("inCS=%v: error not propagated: %v", inCS, err)
		}
	}
}

func TestConcurrentAllocation(t *testing.T) {
	for _, kind := range []sync2.Kind{sync2.KindBlocking, sync2.KindTATAS, sync2.KindMCS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			opts := fullOpts()
			opts.Mutex = kind
			m, _ := newMgr(opts)
			// Two stores, so an extent one allocator grew the volume for
			// can be taken by the other store's.
			stores := []uint32{m.CreateStore(KindHeap), m.CreateStore(KindHeap)}
			const g, n = 8, 50
			var mu sync.Mutex
			seen := map[page.ID]uint32{}
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(s uint32) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						p, err := m.AllocPage(s, nil)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						if _, dup := seen[p]; dup {
							t.Errorf("page %v allocated twice", p)
						}
						seen[p] = s
						mu.Unlock()
					}
				}(stores[w%2])
			}
			wg.Wait()
			if len(seen) != g*n {
				t.Fatalf("allocated %d distinct pages, want %d", len(seen), g*n)
			}
			for p, s := range seen {
				if got, err := m.StoreOf(p, nil); err != nil || got != s {
					t.Errorf("page %v allocated to store %d belongs to %d (%v)", p, s, got, err)
				}
			}
			if m.Stats().Allocs != g*n {
				t.Errorf("alloc counter = %d", m.Stats().Allocs)
			}
		})
	}
}

// TestAllocMatchesFullScan: allocLocked's scan bounds change what a page
// allocation costs, never which page it picks. Random allocations and
// frees over three stores are checked against the unbounded search: the
// last non-full extent of the store, else the first free extent, else a
// new one at the end of the volume.
func TestAllocMatchesFullScan(t *testing.T) {
	m, v := newMgr(fullOpts())
	stores := []uint32{m.CreateStore(KindHeap), m.CreateStore(KindHeap), m.CreateStore(KindBTree)}
	want := func(s *storeInfo) page.ID {
		for i := len(s.extents) - 1; i >= 0; i-- {
			e := s.extents[i]
			for bit := 0; bit < ExtentSize; bit++ {
				if m.extents[e].bitmap&(1<<bit) == 0 {
					return extentFirstPage(e) + page.ID(bit)
				}
			}
		}
		for e := range m.extents {
			if m.extents[e].store == 0 {
				return extentFirstPage(uint32(e))
			}
		}
		return page.ID(v.NumPages() + 1)
	}
	rng := rand.New(rand.NewSource(1))
	var live []page.ID
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			j := rng.Intn(len(live))
			m.FreePage(live[j])
			live = append(live[:j], live[j+1:]...)
			continue
		}
		st := stores[rng.Intn(len(stores))]
		exp := want(m.dir()[st])
		got, err := m.AllocPage(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != exp {
			t.Fatalf("op %d: AllocPage(store %d) = %v, the full scan picks %v", i, st, got, exp)
		}
		live = append(live, got)
	}
}

func TestStoresList(t *testing.T) {
	m, _ := newMgr(fullOpts())
	a := m.CreateStore(KindHeap)
	b := m.CreateStore(KindBTree)
	ids := m.Stores()
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("Stores = %v", ids)
	}
	if KindHeap.String() != "heap" || KindBTree.String() != "btree" {
		t.Error("kind strings")
	}
}

// gateGrowVolume parks a Grow, once armed, until it is let go.
type gateGrowVolume struct {
	disk.Volume
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (v *gateGrowVolume) Grow(n int) (page.ID, error) {
	if v.armed.Swap(false) {
		close(v.entered)
		<-v.release
	}
	return v.Volume.Grow(n)
}

// TestGrowOutsideMutex: a store whose extents are full grows the volume
// without the space mutex, so another store's allocation goes on while the
// device call is in flight.
func TestGrowOutsideMutex(t *testing.T) {
	v := &gateGrowVolume{Volume: disk.NewMem(0), entered: make(chan struct{}), release: make(chan struct{})}
	m := NewManager(v, fullOpts())
	a, b := m.CreateStore(KindHeap), m.CreateStore(KindHeap)
	for i := 0; i < ExtentSize; i++ { // a fills its extent
		if _, err := m.AllocPage(a, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AllocPage(b, nil); err != nil { // b has room left, and no extent is free
		t.Fatal(err)
	}
	v.armed.Store(true)
	grew := make(chan page.ID, 1)
	go func() {
		p, err := m.AllocPage(a, nil)
		if err != nil {
			t.Error(err)
		}
		grew <- p
	}()
	<-v.entered
	other := make(chan page.ID, 1)
	go func() {
		p, err := m.AllocPage(b, nil)
		if err != nil {
			t.Error(err)
		}
		other <- p
	}()
	select {
	case <-other:
	case <-time.After(5 * time.Second):
		t.Error("an allocation with room waited for another store's volume growth")
	}
	close(v.release)
	if p := <-grew; p != 2*ExtentSize+1 {
		t.Errorf("a's ninth page = %v, want the grown extent's first, %v", p, 2*ExtentSize+1)
	}
}
