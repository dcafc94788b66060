// Package space implements the free-space and metadata manager (§2.2.6):
// 8-page extents, a store directory, and page allocation — along with the
// exact critical-section variants the paper's Figure 6 studies (pthread
// mutex → T&T&S → MCS → refactored latch-outside-critical-section) and the
// caches §6.2.2/§7.4/§7.6 add (thread-local extent-membership cache,
// extent-id cache, last-page cache).
//
// Allocation metadata is fully derivable from page headers (every page
// records its owning store and type, and B-tree roots carry a header
// flag), so crash recovery rebuilds this manager by scanning the volume
// after redo instead of logging allocation operations.
package space

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/sync2"
)

// ExtentSize is the number of consecutive pages per extent ("Shore
// allocates extents of 8 pages", §6.2.2).
const ExtentSize = 8

// Errors returned by the manager.
var (
	ErrNoSuchStore = errors.New("space: no such store")
	ErrNotOwned    = errors.New("space: page not owned by store")
)

// StoreKind tags what a store holds.
type StoreKind uint8

// Store kinds.
const (
	KindHeap StoreKind = iota
	KindBTree
)

// String names the kind.
func (k StoreKind) String() string {
	if k == KindBTree {
		return "btree"
	}
	return "heap"
}

// Options configures the manager; each knob is one Figure 6 / §7 variant.
type Options struct {
	// Mutex is the primitive protecting the allocation tables: the Figure 6
	// sweep uses Blocking (pthread), TATAS (T&T&S) and MCS.
	Mutex sync2.Kind
	// LatchInCS reproduces the pre-refactor bug: the page fix (latch
	// acquire, possibly blocking on I/O) happens inside the allocation
	// critical section. The §6.1 refactor moves it outside.
	LatchInCS bool
	// ExtentCache enables the extent-id → store cache consulted before the
	// critical section (§7.4).
	ExtentCache bool
	// LastPageCache enables O(1) last-page lookup instead of walking the
	// extent list (§7.6's O(n²) fix).
	LastPageCache bool
}

// storeInfo is the in-memory directory entry for one store.
type storeInfo struct {
	id uint32
	// guarded by mu:
	kind    StoreKind
	extents []uint32 // extent numbers owned, ascending
	full    int      // extents[:full] are full: allocLocked's scan stops there
	root    page.ID  // B-tree root (KindBTree only)
	// hint is the page appends go to (LastPageCache), read without mu.
	// Extend publishes a page only once its allocator has formatted it.
	hint atomic.Uint64
	// grow queues Extend's callers, so a store grows by one page per
	// page-full however many inserters found it full.
	grow sync.Mutex
}

// extentInfo records ownership and allocation of one extent.
type extentInfo struct {
	store  uint32 // owning store id, 0 = free extent
	bitmap uint8  // bit i set = page i of the extent is allocated
}

// Stats reports allocation activity and critical-section contention.
type Stats struct {
	Allocs        uint64
	Frees         uint64
	ExtentsGrown  uint64
	CacheHits     uint64 // thread-local extent-cache hits (checks avoided)
	CacheMisses   uint64
	LastPageWalks uint64 // O(n) walks taken because the cache is off/cold
	Lock          sync2.Stats
}

// Manager is the free-space and metadata manager.
type Manager struct {
	opts Options
	vol  disk.Volume
	mu   sync2.Locker
	// stores is the store directory. It is copied on write under mu
	// (CreateStore and RestoreStore are rare), so a lookup needs no lock.
	stores atomic.Pointer[map[uint32]*storeInfo]
	// guarded by mu:
	extents []extentInfo
	owned   uint32 // extents[:owned] all have a store: the free search starts there
	nextID  uint32

	allocs        atomic.Uint64
	frees         atomic.Uint64
	extentsGrown  atomic.Uint64
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	lastPageWalks atomic.Uint64
}

// NewManager creates a manager over vol.
func NewManager(vol disk.Volume, opts Options) *Manager {
	m := &Manager{opts: opts, vol: vol, mu: sync2.New(opts.Mutex), nextID: 1}
	m.stores.Store(&map[uint32]*storeInfo{})
	return m
}

// dir returns the current store directory; it must not be modified.
func (m *Manager) dir() map[uint32]*storeInfo { return *m.stores.Load() }

// store looks store id up in the directory without mu.
func (m *Manager) store(id uint32) (*storeInfo, error) {
	if s, ok := m.dir()[id]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrNoSuchStore, id)
}

// addStoreLocked publishes a directory holding s as well. Caller holds mu.
func (m *Manager) addStoreLocked(s *storeInfo) {
	dir := maps.Clone(m.dir())
	dir[s.id] = s
	m.stores.Store(&dir)
}

// extentFirstPage returns the first page ID of extent e (extent 0 covers
// pages 1..8).
func extentFirstPage(e uint32) page.ID { return page.ID(uint64(e)*ExtentSize + 1) }

// extentOf returns the extent number holding pid.
func extentOf(pid page.ID) uint32 { return uint32((uint64(pid) - 1) / ExtentSize) }

// CreateStore registers a new store and returns its id.
func (m *Manager) CreateStore(kind StoreKind) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextID
	m.nextID++
	m.addStoreLocked(&storeInfo{id: id, kind: kind})
	return id
}

// StoreKindOf returns the kind of store id.
func (m *Manager) StoreKindOf(id uint32) (StoreKind, error) {
	s, err := m.store(id)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return s.kind, nil
}

// Stores returns all store ids, ascending.
func (m *Manager) Stores() []uint32 {
	dir := m.dir()
	out := make([]uint32, 0, len(dir))
	for id := range dir {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetRoot records the B-tree root page of store id.
func (m *Manager) SetRoot(id uint32, root page.ID) error {
	s, err := m.store(id)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.root = root
	return nil
}

// Root returns the B-tree root page of store id (0 if unset).
func (m *Manager) Root(id uint32) (page.ID, error) {
	s, err := m.store(id)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return s.root, nil
}

// AllocPage allocates one page for store. If fixInCS is non-nil and the
// manager was built with LatchInCS, the callback (typically a buffer-pool
// FixNew, which can block on latches and I/O) runs while the allocation
// mutex is held — the pre-refactor behaviour of Figure 6; otherwise the
// caller is expected to fix the page after AllocPage returns.
func (m *Manager) AllocPage(store uint32, fixInCS func(page.ID) error) (page.ID, error) {
	s, err := m.store(store)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	pid, err := m.allocLocked(s)
	if err != nil {
		m.mu.Unlock()
		return 0, err
	}
	if m.opts.LatchInCS && fixInCS != nil {
		// The infamous pattern: page latch acquired inside the allocation
		// critical section.
		err := fixInCS(pid)
		m.mu.Unlock()
		if err != nil {
			m.freePage(pid)
			return 0, err
		}
		m.allocs.Add(1)
		return pid, nil
	}
	m.mu.Unlock()
	if fixInCS != nil {
		if err := fixInCS(pid); err != nil {
			m.freePage(pid)
			return 0, err
		}
	}
	m.allocs.Add(1)
	return pid, nil
}

// allocLocked finds a free slot in the store's extents or grows the
// volume by one extent. Caller holds mu. Both searches start at a bound
// below which they would find nothing (s.full, m.owned), so growing a
// store by an extent costs O(1) and not a scan of every extent — the
// page chosen is the same.
func (m *Manager) allocLocked(s *storeInfo) (page.ID, error) {
	// Shore "tends to fill one extent completely before moving on": scan
	// the store's extents from the back.
	for i := len(s.extents) - 1; i >= s.full; i-- {
		e := s.extents[i]
		if m.extents[e].bitmap != 0xff {
			return m.claimInExtent(e), nil
		}
	}
	s.full = len(s.extents)
	// No room: grab a free extent or grow the volume.
	for e := m.owned; e < uint32(len(m.extents)); e++ {
		if m.extents[e].store == 0 {
			m.owned = e + 1
			m.extents[e].store = s.id
			s.extents = append(s.extents, e)
			sort.Slice(s.extents, func(i, j int) bool { return s.extents[i] < s.extents[j] })
			s.full = 0
			return m.claimInExtent(e), nil
		}
	}
	m.owned = uint32(len(m.extents))
	first, err := m.vol.Grow(ExtentSize)
	if err != nil {
		return 0, err
	}
	e := extentOf(first)
	for uint32(len(m.extents)) <= e {
		m.extents = append(m.extents, extentInfo{})
	}
	m.extents[e].store = s.id
	s.extents = append(s.extents, e)
	m.extentsGrown.Add(1)
	return m.claimInExtent(e), nil
}

// claimInExtent marks the first free page of extent e allocated.
func (m *Manager) claimInExtent(e uint32) page.ID {
	for bit := 0; bit < ExtentSize; bit++ {
		if m.extents[e].bitmap&(1<<bit) == 0 {
			m.extents[e].bitmap |= 1 << bit
			return extentFirstPage(e) + page.ID(bit)
		}
	}
	panic("space: claimInExtent on full extent")
}

// FreePage returns pid to the free pool.
func (m *Manager) FreePage(pid page.ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.freePageLocked(pid)
	m.frees.Add(1)
}

func (m *Manager) freePage(pid page.ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.freePageLocked(pid)
}

func (m *Manager) freePageLocked(pid page.ID) {
	e := extentOf(pid)
	if uint64(e) >= uint64(len(m.extents)) {
		return
	}
	bit := (uint64(pid) - 1) % ExtentSize
	m.extents[e].bitmap &^= 1 << bit
	s, ok := m.dir()[m.extents[e].store]
	if ok {
		s.hint.CompareAndSwap(uint64(pid), 0)
		s.full = 0
	}
	// A fully free extent returns to the pool.
	if m.extents[e].bitmap == 0 {
		if ok {
			for i, se := range s.extents {
				if se == e {
					s.extents = append(s.extents[:i], s.extents[i+1:]...)
					break
				}
			}
		}
		m.extents[e].store = 0
		m.owned = min(m.owned, e)
	}
}

// ExtentCache is a caller-owned (conceptually thread-local) cache of the
// most recent extent-membership lookups — the §6.2.2 fix that "cut the
// number of page checks by over 95%". The zero value is ready to use.
type ExtentCache struct {
	extent uint32
	store  uint32
	valid  bool
}

// StoreOf returns the store owning pid, consulting cache (if enabled and
// non-nil) before entering the critical section.
func (m *Manager) StoreOf(pid page.ID, cache *ExtentCache) (uint32, error) {
	e := extentOf(pid)
	if m.opts.ExtentCache && cache != nil && cache.valid && cache.extent == e {
		m.cacheHits.Add(1)
		return cache.store, nil
	}
	m.cacheMisses.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if uint64(e) >= uint64(len(m.extents)) || m.extents[e].store == 0 {
		return 0, fmt.Errorf("%w: %v", ErrNotOwned, pid)
	}
	st := m.extents[e].store
	m.remember(cache, e, st)
	return st, nil
}

// remember fills cache with extent e's owner, if the cache is on.
func (m *Manager) remember(cache *ExtentCache, e, store uint32) {
	if m.opts.ExtentCache && cache != nil {
		*cache = ExtentCache{extent: e, store: store, valid: true}
	}
}

// CheckPage verifies pid belongs to store — the per-insert membership
// check of §6.2.2 problem 1.
func (m *Manager) CheckPage(store uint32, pid page.ID, cache *ExtentCache) error {
	got, err := m.StoreOf(pid, cache)
	if err != nil {
		return err
	}
	if got != store {
		return fmt.Errorf("%w: %v belongs to store %d, not %d", ErrNotOwned, pid, got, store)
	}
	return nil
}

// LastPage returns the page appends to store go to. With LastPageCache it
// is the hint, read without mu — 0 until Extend has published a page —
// and the caller re-validates it under the page latch. Without the cache
// it walks the extent list under mu every call: the O(n) step that made
// page allocation O(n²) before §7.6.
func (m *Manager) LastPage(store uint32) (page.ID, error) {
	s, err := m.store(store)
	if err != nil {
		return 0, err
	}
	if m.opts.LastPageCache {
		return page.ID(s.hint.Load()), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.walkLocked(s), nil
}

// walkLocked returns the store's highest allocated page by walking its
// extents. Caller holds mu.
func (m *Manager) walkLocked(s *storeInfo) page.ID {
	m.lastPageWalks.Add(1)
	var last page.ID
	for _, e := range s.extents {
		bm := m.extents[e].bitmap
		for bit := 0; bit < ExtentSize; bit++ {
			if bm&(1<<bit) != 0 {
				p := extentFirstPage(e) + page.ID(bit)
				if p > last {
					last = p
				}
			}
		}
	}
	return last
}

// SetLastPage publishes pid as the store's last-page hint.
func (m *Manager) SetLastPage(store uint32, pid page.ID) {
	if s, err := m.store(store); err == nil && m.opts.LastPageCache {
		s.hint.Store(uint64(pid))
	}
}

// Extend returns the next page for appends to store once the caller found
// page full full (0: LastPage gave it none). With LastPageCache it is one
// allocation per page-full: callers queue on the store's grow lock, and
// one that finds the hint moved past full (or, on a cold hint, the walk
// finds a page) gets that page back without allocating. A fresh page is
// passed to fix (inside the allocation critical section with LatchInCS,
// as AllocPage does) and then to format, and only then published — a
// reader of the hint never fixes a page before its allocator has. The
// fresh page's extent goes into cache. The caller learns a page is fresh
// from its callbacks having run.
func (m *Manager) Extend(store uint32, full page.ID, cache *ExtentCache, fix, format func(page.ID) error) (page.ID, error) {
	s, err := m.store(store)
	if err != nil {
		return 0, err
	}
	if m.opts.LastPageCache {
		s.grow.Lock()
		defer s.grow.Unlock()
		h := page.ID(s.hint.Load())
		if h == 0 {
			m.mu.Lock()
			h = m.walkLocked(s)
			m.mu.Unlock()
			s.hint.CompareAndSwap(0, uint64(h))
		}
		if h != 0 && h != full {
			return h, nil
		}
	}
	pid, err := m.AllocPage(store, fix)
	if err != nil {
		return 0, err
	}
	if err := format(pid); err != nil {
		return 0, err
	}
	m.SetLastPage(store, pid)
	m.remember(cache, extentOf(pid), store)
	return pid, nil
}

// Pages returns the allocated pages of store in ascending order (heap scan
// order: extents are allocated sequentially for locality).
func (m *Manager) Pages(store uint32) ([]page.ID, error) {
	s, err := m.store(store)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []page.ID
	for _, e := range s.extents {
		bm := m.extents[e].bitmap
		for bit := 0; bit < ExtentSize; bit++ {
			if bm&(1<<bit) != 0 {
				out = append(out, extentFirstPage(e)+page.ID(bit))
			}
		}
	}
	return out, nil
}

// RestoreStore re-registers a store with a known id during recovery (the
// directory is rebuilt by scanning page headers after redo). It keeps the
// id generator above every restored id.
func (m *Manager) RestoreStore(id uint32, kind StoreKind) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.dir()[id]; ok {
		s.kind = kind
	} else {
		m.addStoreLocked(&storeInfo{id: id, kind: kind})
	}
	if id >= m.nextID {
		m.nextID = id + 1
	}
}

// RestorePage marks pid allocated to store during recovery.
func (m *Manager) RestorePage(pid page.ID, store uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := extentOf(pid)
	for uint32(len(m.extents)) <= e {
		m.extents = append(m.extents, extentInfo{})
	}
	if m.extents[e].store == 0 {
		m.extents[e].store = store
		if s, ok := m.dir()[store]; ok {
			s.extents = append(s.extents, e)
			sort.Slice(s.extents, func(i, j int) bool { return s.extents[i] < s.extents[j] })
			s.full = 0
		}
	}
	bit := (uint64(pid) - 1) % ExtentSize
	m.extents[e].bitmap |= 1 << bit
}

// CoverVolume extends the extent table to cover the whole volume so that
// extents holding only free pages are still tracked after recovery.
func (m *Manager) CoverVolume() {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.vol.NumPages()
	if n == 0 {
		return
	}
	last := extentOf(page.ID(n))
	for uint32(len(m.extents)) <= last {
		m.extents = append(m.extents, extentInfo{})
	}
}

// Stats returns a counter snapshot.
func (m *Manager) Stats() Stats {
	return Stats{
		Allocs:        m.allocs.Load(),
		Frees:         m.frees.Load(),
		ExtentsGrown:  m.extentsGrown.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
		LastPageWalks: m.lastPageWalks.Load(),
		Lock:          m.mu.Stats(),
	}
}
