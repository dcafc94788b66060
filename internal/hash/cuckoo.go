package hash

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Cuckoo table geometry. Keys are at most 40 bits and values at most 24
// bits so that an occupied entry packs into one uint64, giving lock-free
// atomic lookups — the property the paper exploits: "updates and searches
// only interfere with each other when they actually touch the same value"
// (§6.2.3).
const (
	cuckooWays    = 3  // N hash functions -> N candidate slots
	cuckooMaxKick = 64 // eviction-cascade bound before declaring overflow
	keyBits       = 40
	valBits       = 24

	// MaxKey is the largest key storable in a Cuckoo table. Keys are
	// stored +1 (zero marks an empty slot), so the top raw value is
	// reserved.
	MaxKey = uint64(1)<<keyBits - 2
	// MaxValue is the largest value storable in a Cuckoo table.
	MaxValue = uint32(1)<<valBits - 1
)

// Errors returned by Cuckoo operations.
var (
	ErrKeyRange = errors.New("hash: key exceeds 40-bit cuckoo key space")
	ErrValRange = errors.New("hash: value exceeds 24-bit cuckoo value space")
)

// pack encodes key (stored +1 so zero means empty) and val in one word.
func pack(key uint64, val uint32) uint64 {
	return (key+1)<<valBits | uint64(val)
}

func unpack(e uint64) (key uint64, val uint32) {
	return (e >> valBits) - 1, uint32(e) & MaxValue
}

// Cuckoo is a 3-ary cuckoo hash table mapping small integer keys (page IDs)
// to small integer values (frame indexes). Lookups are wait-free single
// atomic loads per candidate slot; mutations serialize on one writer mutex,
// which is acceptable for a buffer-pool index because hits vastly outnumber
// misses (the paper: "Most buffer pool searches (80-90%) hit").
//
// A collision occurs only when all N candidate slots for a key are full and
// is resolved by relocating a victim to one of its other N-1 slots,
// cascading if necessary. A cascade that exceeds its bound parks the final
// victim in a small overflow stash that lookups consult after the ways.
// The paper ends such cascades by evicting "particularly troublesome
// pages"; that needs the victim's frame to be evictable, and a cascade is
// deterministic — walking a cycle it hands back the very key it was asked
// to insert, whose page is pinned by the loader — so here the table never
// loses an entry and its user never has to repair one.
type Cuckoo struct {
	h     Combined
	slots []atomic.Uint64 // one flat array; each way indexes the whole array
	mask  uint64
	mu    sync.Mutex // serializes Insert/Delete
	size  atomic.Int64
	// stash holds the packed entries no bounded cascade could place; nil
	// when empty, which is nearly always. Copy-on-write under mu, so Get
	// stays wait-free. Delete moves an entry home when it frees one of its
	// candidate slots.
	stash atomic.Pointer[[]uint64]
}

// NewCuckoo creates a table with at least capacity slots (rounded up to a
// power of two) using hash functions seeded from seed.
func NewCuckoo(capacity int, seed int64) *Cuckoo {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Cuckoo{
		h:     NewCombined(seed),
		slots: make([]atomic.Uint64, n),
		mask:  uint64(n - 1),
	}
}

// idx returns the candidate slot index of key under hash function way.
func (c *Cuckoo) idx(way int, key uint64) uint64 {
	return c.h.Sub(way, key) & c.mask
}

// Get returns the value stored for key. It is wait-free.
func (c *Cuckoo) Get(key uint64) (uint32, bool) {
	for w := 0; w < cuckooWays; w++ {
		e := c.slots[c.idx(w, key)].Load()
		if e != 0 {
			if k, v := unpack(e); k == key {
				return v, true
			}
		}
	}
	for _, e := range c.stashed() {
		if k, v := unpack(e); k == key {
			return v, true
		}
	}
	return 0, false
}

// setStash publishes a new stash (nil when empty). Caller holds c.mu.
func (c *Cuckoo) setStash(s []uint64) {
	if len(s) == 0 {
		c.stash.Store(nil)
		return
	}
	c.stash.Store(&s)
}

// stashed returns the current stash, which is never modified in place.
func (c *Cuckoo) stashed() []uint64 {
	if s := c.stash.Load(); s != nil {
		return *s
	}
	return nil
}

// stashWithout returns a copy of the stash with entry j removed.
func stashWithout(s []uint64, j int) []uint64 {
	return slices.Delete(slices.Clone(s), j, j+1)
}

func checkRange(key uint64, val uint32) error {
	if key > MaxKey {
		return fmt.Errorf("%w: %d", ErrKeyRange, key)
	}
	if val > MaxValue {
		return fmt.Errorf("%w: %d", ErrValRange, val)
	}
	return nil
}

// insertLocked performs the insert/replace/cascade while c.mu is held.
func (c *Cuckoo) insertLocked(key uint64, val uint32) {
	// Replace in place if present.
	for w := 0; w < cuckooWays; w++ {
		i := c.idx(w, key)
		if e := c.slots[i].Load(); e != 0 {
			if k, _ := unpack(e); k == key {
				c.slots[i].Store(pack(key, val))
				return
			}
		}
	}
	for j, e := range c.stashed() {
		if k, _ := unpack(e); k == key {
			s := slices.Clone(c.stashed())
			s[j] = pack(key, val)
			c.setStash(s)
			return
		}
	}
	// Use any empty candidate slot.
	for w := 0; w < cuckooWays; w++ {
		i := c.idx(w, key)
		if c.slots[i].Load() == 0 {
			c.slots[i].Store(pack(key, val))
			c.size.Add(1)
			return
		}
	}
	// Cascade: displace the occupant of a candidate slot and walk.
	curKey, curVal := key, val
	way := 0
	for kick := 0; kick < cuckooMaxKick; kick++ {
		i := c.idx(way, curKey)
		old := c.slots[i].Load()
		c.slots[i].Store(pack(curKey, curVal))
		if old == 0 {
			c.size.Add(1)
			return
		}
		curKey, curVal = unpack(old)
		// Try the victim's other slots before cascading further.
		for w := 0; w < cuckooWays; w++ {
			j := c.idx(w, curKey)
			if c.slots[j].Load() == 0 {
				c.slots[j].Store(pack(curKey, curVal))
				c.size.Add(1)
				return
			}
		}
		// Displace from a rotating way to avoid short cycles.
		way = (way + 1) % cuckooWays
	}
	// Cascade bound exceeded: the final victim (possibly key itself, when
	// the walk closed a cycle) goes to the stash.
	c.setStash(append(slices.Clone(c.stashed()), pack(curKey, curVal)))
	c.size.Add(1)
}

// Insert stores key→val. If key is present its value is replaced.
func (c *Cuckoo) Insert(key uint64, val uint32) error {
	if err := checkRange(key, val); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, val)
	return nil
}

// GetOrInsert atomically looks key up and, if absent, inserts val. It
// returns the value now associated with key and whether this call inserted
// it. Buffer-pool miss paths use this to close the window in which a
// concurrent cascade makes an entry transiently invisible to lock-free Get.
func (c *Cuckoo) GetOrInsert(key uint64, val uint32) (got uint32, inserted bool, err error) {
	if err := checkRange(key, val); err != nil {
		return 0, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.Get(key); ok {
		return v, false, nil
	}
	c.insertLocked(key, val)
	return val, true, nil
}

// Delete removes key and reports whether it was present.
func (c *Cuckoo) Delete(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for w := 0; w < cuckooWays; w++ {
		i := c.idx(w, key)
		if e := c.slots[i].Load(); e != 0 {
			if k, _ := unpack(e); k == key {
				c.slots[i].Store(0)
				c.size.Add(-1)
				c.unstashInto(i)
				return true
			}
		}
	}
	for j, e := range c.stashed() {
		if k, _ := unpack(e); k == key {
			c.setStash(stashWithout(c.stashed(), j))
			c.size.Add(-1)
			return true
		}
	}
	return false
}

// unstashInto moves a stashed entry into the just-freed slot i if i is
// one of its candidates, so the stash drains as the table churns.
func (c *Cuckoo) unstashInto(i uint64) {
	for j, e := range c.stashed() {
		k, _ := unpack(e)
		for w := 0; w < cuckooWays; w++ {
			if c.idx(w, k) == i {
				c.slots[i].Store(e)
				c.setStash(stashWithout(c.stashed(), j))
				return
			}
		}
	}
}

// Len returns the number of stored entries.
func (c *Cuckoo) Len() int { return int(c.size.Load()) }

// Capacity returns the number of slots.
func (c *Cuckoo) Capacity() int { return len(c.slots) }

// Range calls fn for each entry until fn returns false. The iteration is a
// racy snapshot: entries inserted or removed concurrently may or may not be
// observed, which is fine for its users (page-cleaner sweeps, stats).
func (c *Cuckoo) Range(fn func(key uint64, val uint32) bool) {
	for i := range c.slots {
		if e := c.slots[i].Load(); e != 0 {
			k, v := unpack(e)
			if !fn(k, v) {
				return
			}
		}
	}
	for _, e := range c.stashed() {
		if k, v := unpack(e); !fn(k, v) {
			return
		}
	}
}
