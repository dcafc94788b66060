package lock

// Cache is a transaction-private cache of held lock modes: a small
// open-addressed hash map from Name to the supremum of every mode the
// transaction has been granted on that name. The engine consults it
// before the shared lock table, so re-acquiring a lock the transaction
// already holds (the database and store intent locks of every row
// access, re-reads of the same row) costs a private probe instead of a
// bucket-latch round trip — the §7.5 lesson that the lock table becomes
// the dominant shared structure once the other hotspots are gone.
//
// A Cache is owned by a single transaction and is not safe for
// concurrent use; it only ever grows while the transaction runs (2PL
// releases nothing before end-of-transaction), and Reset empties it for
// the next transaction, keeping the table.
type Cache struct {
	slots []cacheSlot
	mask  uint64
	n     int
}

type cacheSlot struct {
	name Name
	mode Mode
	live bool
}

// cacheInitSlots sizes the first allocation: big enough for the intent
// locks plus a handful of row locks without growing, small enough that
// short transactions stay cheap.
const cacheInitSlots = 32

// Get returns the mode cached for n (NL if the transaction holds no
// lock on n).
func (c *Cache) Get(n Name) Mode {
	if c.n == 0 {
		return NL
	}
	for i := n.hashKey() & c.mask; ; i = (i + 1) & c.mask {
		s := &c.slots[i]
		if !s.live {
			return NL
		}
		if s.name == n {
			return s.mode
		}
	}
}

// Put records a grant of m on n, folding it into any cached mode via
// Supremum (matching the lock manager's conversion rule, so the cache
// always mirrors the granted mode exactly). It reports whether n is new
// to the cache — i.e. whether this is the transaction's first grant on
// the name and it must be recorded for release.
func (c *Cache) Put(n Name, m Mode) (fresh bool) {
	if c.slots == nil {
		c.slots = make([]cacheSlot, cacheInitSlots)
		c.mask = cacheInitSlots - 1
	} else if 4*(c.n+1) > 3*len(c.slots) {
		c.grow()
	}
	for i := n.hashKey() & c.mask; ; i = (i + 1) & c.mask {
		s := &c.slots[i]
		if !s.live {
			*s = cacheSlot{name: n, mode: m, live: true}
			c.n++
			return true
		}
		if s.name == n {
			s.mode = Supremum(s.mode, m)
			return false
		}
	}
}

// Reset forgets every cached name. It keeps the table unless a big
// transaction grew it past cacheKeepSlots, which every later one would
// pay to clear.
func (c *Cache) Reset() {
	switch {
	case len(c.slots) > cacheKeepSlots:
		*c = Cache{}
	case c.n > 0:
		clear(c.slots)
		c.n = 0
	}
}

// cacheKeepSlots is the largest table Reset keeps: a New Order's locks
// fit with room to spare.
const cacheKeepSlots = 1024

// Len returns the number of distinct names cached.
func (c *Cache) Len() int { return c.n }

// grow doubles the table and rehashes every live slot.
func (c *Cache) grow() {
	old := c.slots
	c.slots = make([]cacheSlot, 2*len(old))
	c.mask = uint64(len(c.slots) - 1)
	for i := range old {
		s := &old[i]
		if !s.live {
			continue
		}
		for j := s.name.hashKey() & c.mask; ; j = (j + 1) & c.mask {
			if !c.slots[j].live {
				c.slots[j] = *s
				break
			}
		}
	}
}
