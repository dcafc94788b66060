package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/sync2"
)

// Env is the tree's view of the storage manager: page access through the
// buffer pool, page allocation through the free-space manager, and
// physiological logging. The core package implements it; tests use a
// lightweight fake.
type Env interface {
	// Fix pins+latches a page.
	Fix(pid page.ID, mode sync2.LatchMode) (*buffer.Frame, error)
	// FixNew claims a frame for a freshly allocated page (EX-latched).
	FixNew(pid page.ID) (*buffer.Frame, error)
	// Unfix releases latch and pin.
	Unfix(f *buffer.Frame, mode sync2.LatchMode)
	// AllocPage allocates a page for store.
	AllocPage(store uint32) (page.ID, error)
	// Log records op against f's page (with optional logical undo; the
	// zero Logical = redo-only), applies it, stamps the page LSN and marks
	// the frame dirty. The frame must be EX-latched by the caller. Nothing
	// undo references is retained.
	Log(t Txn, f *buffer.Frame, op pageop.Op, undo pageop.Logical) error
}

// Txn is the transaction a tree mutation is logged for. The tree only
// hands it on to Env.Log, so the environment gets its transaction back
// without looking it up by id.
type Txn interface{ ID() uint64 }

// OptEnv is the optional optimistic extension of Env: pin-free,
// latch-free page references validated after the fact. buffer.Pool
// implements it directly. Trees with an OptEnv descend inner levels
// without writing any shared memory (optimistic latch coupling); leaves
// keep classic SH/EX latching and the Lehman-Yao move-right rules.
type OptEnv interface {
	// FixOpt returns an optimistic reference to pid; ok=false when the
	// page is absent, mid-load/eviction, or write-latched.
	FixOpt(pid page.ID) (buffer.OptRef, bool)
	// Validate reports whether all reads through the reference saw a
	// consistent, current image.
	Validate(buffer.OptRef) bool
	// ReleaseOpt ends the reference (must always be called).
	ReleaseOpt(buffer.OptRef)
}

// OLCStats counts descent outcomes per access policy (see Access). One
// instance is typically shared by every tree an engine opens, so the
// counters are engine-wide.
type OLCStats struct {
	OptDescents  atomic.Uint64 // Optimistic descents to a latched leaf whose inner levels stayed speculative
	Restarts     atomic.Uint64 // operations restarted from the root (failed validation, unreadable node, root grew), any policy
	Fallbacks    atomic.Uint64 // Optimistic operations that exhausted their restarts and ran Latched
	OptLeafReads atomic.Uint64 // Optimistic leaf reads (Search, one per Scan leaf) over speculative inner levels; the leaf is latched only when it could not be read as a validated copy

	// LatchedDescents counts classic pinned descents — the latch traffic
	// OLC and PLP exist to avoid; the Owner* counters are the Optimistic
	// ones for the partition-owner policy.
	LatchedDescents atomic.Uint64 // pinned SH descents (fallbacks included)
	OwnerDescents   atomic.Uint64 // Owner descents to a latched leaf completed without inner latches
	OwnerReads      atomic.Uint64 // Owner leaf reads (Search, one per Scan leaf), as OptLeafReads
	OwnerWrites     atomic.Uint64 // Owner mutation descents (insert/update/delete); moves with OwnerDescents
	OwnerScans      atomic.Uint64 // Owner range scans
	OwnerFallbacks  atomic.Uint64 // Owner operations that exhausted their restarts and ran Latched

	// Cursor outcomes, any policy. A hit is an operation that reached its
	// leaf from the transaction's Cursor and so is in none of the descent
	// counters above; a miss went on to descend and is.
	CursorHits        atomic.Uint64
	CursorMisses      atomic.Uint64
	InsertPointSplits atomic.Uint64 // leaf splits cut at the insertion point instead of the middle
	ImageSplits       atomic.Uint64 // splits that moved entries, and so logged page images
}

// OLCSnapshot is a point-in-time copy of OLCStats.
type OLCSnapshot struct {
	OptDescents  uint64
	Restarts     uint64
	Fallbacks    uint64
	OptLeafReads uint64

	LatchedDescents uint64
	OwnerDescents   uint64
	OwnerReads      uint64
	OwnerWrites     uint64
	OwnerScans      uint64
	OwnerFallbacks  uint64

	CursorHits        uint64
	CursorMisses      uint64
	InsertPointSplits uint64
	ImageSplits       uint64
}

// Snapshot copies the counters.
func (s *OLCStats) Snapshot() OLCSnapshot {
	return OLCSnapshot{
		OptDescents:  s.OptDescents.Load(),
		Restarts:     s.Restarts.Load(),
		Fallbacks:    s.Fallbacks.Load(),
		OptLeafReads: s.OptLeafReads.Load(),

		LatchedDescents: s.LatchedDescents.Load(),
		OwnerDescents:   s.OwnerDescents.Load(),
		OwnerReads:      s.OwnerReads.Load(),
		OwnerWrites:     s.OwnerWrites.Load(),
		OwnerScans:      s.OwnerScans.Load(),
		OwnerFallbacks:  s.OwnerFallbacks.Load(),

		CursorHits:        s.CursorHits.Load(),
		CursorMisses:      s.CursorMisses.Load(),
		InsertPointSplits: s.InsertPointSplits.Load(),
		ImageSplits:       s.ImageSplits.Load(),
	}
}

// maxOptRestarts bounds how often an operation restarts from the root
// after a failed validation before it falls back to the Latched policy.
const maxOptRestarts = 3

// maxOptHops bounds one speculative walk's node visits (descent plus
// sideways moves); exceeding it restarts rather than chasing a cycle on
// torn images.
const maxOptHops = 64

// Access is the latch policy of one tree operation. Every operation runs
// the same descent; the policy decides how nodes are read on the way
// down and which counters record the outcome.
//
//	            inner nodes      leaf, Search/Scan   leaf, mutations   counters
//	Latched     pinned SH        pinned SH           pinned EX         LatchedDescents
//	Optimistic  validated copy*  validated copy**    pinned EX         OptDescents, OptLeafReads, Fallbacks
//	Owner       validated copy*  validated copy**    pinned EX         OwnerDescents+OwnerWrites, OwnerReads, OwnerScans, OwnerFallbacks
//
// A validated copy is a speculative read of an unpinned, unlatched page
// image (OptEnv) that counts only if the frame's latch version did not
// move meanwhile; it writes no shared memory. (*) A node that is not
// resident is read under a pinned SH latch, which loads it, and the walk
// goes on speculatively below it. (**) A leaf that cannot be read as a
// validated copy (not resident, write-latched, or changed under the
// read) is read under a pinned SH latch instead. A failed validation of
// an inner node restarts the operation from the root (Restarts); after
// maxOptRestarts of them it falls back to Latched, which always
// succeeds.
//
// Optimistic is for trees shared between threads (optimistic latch
// coupling). Owner is the same mechanism counted separately for PLP
// segment trees driven by their partition's goroutine, the segment's
// only writer: its validations cannot fail while that discipline holds,
// and the single-leaf EX latch a mutation still takes is a write fence
// for the page cleaner and for other threads' validated copies, not for
// tree consistency. A tree without an OptEnv runs every policy as
// Latched.
type Access uint8

const (
	Latched Access = iota
	Optimistic
	Owner
)

// descent records a descent that ended in a latched leaf.
func (s *OLCStats) descent(a Access) {
	switch a {
	case Latched:
		s.LatchedDescents.Add(1)
	case Optimistic:
		s.OptDescents.Add(1)
	case Owner:
		s.OwnerDescents.Add(1)
		s.OwnerWrites.Add(1)
	}
}

// leafRead records a leaf read over speculative inner levels.
func (s *OLCStats) leafRead(a Access) {
	if a == Owner {
		s.OwnerReads.Add(1)
	} else {
		s.OptLeafReads.Add(1)
	}
}

// fallback records an operation giving up on speculation.
func (s *OLCStats) fallback(a Access) {
	if a == Owner {
		s.OwnerFallbacks.Add(1)
	} else {
		s.Fallbacks.Add(1)
	}
}

// Tree is a B-link tree rooted at a fixed page.
type Tree struct {
	env   Env
	opt   OptEnv // nil: every policy runs as Latched
	stats *OLCStats
	store uint32
	root  page.ID
}

// Create allocates and initializes an empty tree for store. opt and
// stats are as for Open.
func Create(env Env, opt OptEnv, stats *OLCStats, tx Txn, store uint32) (*Tree, error) {
	rootPid, err := env.AllocPage(store)
	if err != nil {
		return nil, err
	}
	t := Open(env, opt, stats, store, rootPid)
	if err := t.writeFreshNode(tx, rootPid, nodeHeader{flags: flagLeaf | flagRoot}, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing tree. opt serves the Optimistic and Owner
// policies (nil: everything runs Latched); stats must not be nil and is
// typically shared by every tree an engine opens.
func Open(env Env, opt OptEnv, stats *OLCStats, store uint32, root page.ID) *Tree {
	return &Tree{env: env, opt: opt, stats: stats, store: store, root: root}
}

// Root returns the root page id (stable for the life of the tree).
func (t *Tree) Root() page.ID { return t.root }

// Store returns the owning store id.
func (t *Tree) Store() uint32 { return t.store }

// Cursor is what one transaction remembers about one tree between its
// operations: the leaf the last one ended on. Point operations try the
// remembered leaf before walking down from the root (latchLeaf,
// readLeafOpt). A Cursor belongs to one goroutine; the zero value
// remembers nothing and a nil *Cursor turns it off. It may be stale in any
// way: it is a hint, checked under the leaf's latch. (Where inserts run is
// the leaf's to remember, not the transaction's: see splitPoint.)
type Cursor struct {
	at leafMemo // the leaf the last operation ended on
}

// leafMemo is a remembered leaf with a filter its owner applies without
// touching the page: the first eight bytes, as a number, of the lowest
// key the leaf was seen to cover and of its high key. A key in the leaf's
// range has its prefix in [lo, hi]; any other goes straight to the root
// instead of paying a fix to learn the same.
type leafMemo struct {
	leaf   page.ID // 0: none
	lo, hi uint64
}

func keyPrefix(k []byte) uint64 {
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// memoOf describes leaf pid (image p, header h) after an operation on key
// ended there. Safe on a torn image, whose memo must be discarded.
func memoOf(pid page.ID, p *page.Page, h nodeHeader, key []byte) leafMemo {
	m := leafMemo{leaf: pid, lo: keyPrefix(key), hi: math.MaxUint64}
	if first, err := entryKey(p, 1); err == nil {
		m.lo = min(m.lo, keyPrefix(first))
	}
	if h.highKey != nil {
		m.hi = keyPrefix(h.highKey)
	}
	return m
}

// remember records that an operation on key ended on leaf f (header h).
func (c *Cursor) remember(f *buffer.Frame, h nodeHeader, key []byte) {
	if c != nil {
		c.at = memoOf(f.Page().PID(), f.Page(), h, key)
	}
}

// missed reports whether an operation about to descend had a remembered
// leaf that did not serve it.
func (c *Cursor) missed() bool { return c != nil && c.at.leaf != 0 }

// hint returns the remembered leaf if key may be on it, else 0.
func (c *Cursor) hint(key []byte) page.ID {
	if c == nil || c.at.leaf == 0 {
		return 0
	}
	if k := keyPrefix(key); k < c.at.lo || k > c.at.hi {
		return 0
	}
	return c.at.leaf
}

func checkKV(key, value []byte) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, len(key))
	}
	if len(value) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes", ErrValueTooLarge, len(value))
	}
	return nil
}

// moveRight advances from a latched node to its right sibling while key is
// beyond the node's high key, at most maxHops times; it returns the
// (possibly new) latched frame, its header (whose highKey aliases the
// page, like every header read under a latch) and the hops taken. Stopped
// by the bound, it returns a node key is still beyond. On error nothing
// stays latched.
func (t *Tree) moveRight(f *buffer.Frame, hdr nodeHeader, key []byte, mode sync2.LatchMode, maxHops int) (*buffer.Frame, nodeHeader, int, error) {
	hops := 0
	for ; hops < maxHops && needsMoveRight(hdr, key); hops++ {
		right := hdr.right
		if right == 0 {
			t.env.Unfix(f, mode)
			return nil, nodeHeader{}, hops, fmt.Errorf("%w: high key without right sibling", ErrCorruptNode)
		}
		rf, err := t.env.Fix(right, mode)
		t.env.Unfix(f, mode)
		if err != nil {
			return nil, nodeHeader{}, hops, err
		}
		f = rf
		if hdr, err = peekHeader(f.Page()); err != nil {
			t.env.Unfix(f, mode)
			return nil, nodeHeader{}, hops, err
		}
	}
	return f, hdr, hops, nil
}

// attempt is the one restart-then-fall-back loop: it runs try under a
// until it reports ok, speculating while a allows it and maxOptRestarts
// are not used up, then with speculation off. It returns the policy the
// successful try ran under. Errors from try were observed on validated or
// latched reads, so they are real and end the loop.
func (t *Tree) attempt(a Access, try func(speculate bool) (ok bool, err error)) (Access, error) {
	if t.opt == nil {
		a = Latched
	}
	for restarts := 0; ; restarts++ {
		if a != Latched && restarts == maxOptRestarts {
			t.stats.fallback(a)
			a = Latched
		}
		ok, err := try(a != Latched)
		if err != nil {
			return a, err
		}
		if ok {
			return a, nil
		}
		t.stats.Restarts.Add(1)
	}
}

// nodePath is the page id of the parent at each level above a descent's
// leaf, deepest last (for split propagation), in a fixed array on the
// caller's stack. A deeper tree records its upper levels only;
// insertIntoBranch descends from wherever it is started.
type nodePath struct {
	n   int
	ids [8]page.ID
}

func (p *nodePath) push(pid page.ID) {
	if p.n < len(p.ids) {
		p.ids[p.n] = pid
		p.n++
	}
}

// descend returns the leaf responsible for key latched in mode, and where
// key is (or belongs) in it. It tries c's remembered leaf first and
// otherwise walks from the root, recording the ancestors in *path (nil
// when the caller never splits; left empty when the cursor hit). c, when
// not nil, remembers the leaf.
func (t *Tree) descend(a Access, c *Cursor, key []byte, mode sync2.LatchMode, path *nodePath) (f *buffer.Frame, hdr nodeHeader, slot int, exact bool, err error) {
	if pid := c.hint(key); pid != 0 {
		var ok bool
		if f, hdr, slot, exact, ok, err = t.latchLeaf(pid, key, mode, true); err != nil || ok {
			if ok {
				t.stats.CursorHits.Add(1)
				c.remember(f, hdr, key)
			}
			return
		}
	}
	if c.missed() {
		t.stats.CursorMisses.Add(1)
	}
	a, err = t.attempt(a, func(speculate bool) (ok bool, err error) {
		if path != nil {
			path.n = 0
		}
		pid, ok, err := t.walk(key, speculate, true, path)
		if !ok || err != nil {
			return false, err
		}
		f, hdr, slot, exact, ok, err = t.latchLeaf(pid, key, mode, false)
		return ok, err
	})
	if err != nil {
		return nil, nodeHeader{}, 0, false, err
	}
	t.stats.descent(a)
	c.remember(f, hdr, key)
	return
}

// maxHintHops bounds the sideways moves from a remembered leaf: one split
// since it was remembered is the common case, a second is cheap, and a
// cursor further off than that is better served by the root.
const maxHintHops = 2

// walk is the root-to-leaf loop. It follows key down to leaf level
// without touching the leaf's latch and returns where the leaf-level
// search starts: the leaf itself, or the covering child of a level-1
// branch (which is a leaf, permanently — only the root ever changes
// level, and the root is nobody's child). Ancestors are pushed onto
// *path when path is not nil. ok=false (with nil error) means restart.
func (t *Tree) walk(key []byte, speculate, pin bool, path *nodePath) (page.ID, bool, error) {
	pid := t.root
	for hop := 0; !speculate || hop < maxOptHops; hop++ {
		s, ok, err := t.readStep(pid, key, speculate, pin)
		if !ok || err != nil {
			return 0, false, err
		}
		if s.leaf {
			return pid, true, nil
		}
		if !s.sideways {
			if path != nil {
				path.push(pid)
			}
			if s.level == 1 {
				return s.next, true, nil
			}
		}
		pid = s.next
	}
	return 0, false, nil
}

// readStep reads node pid the way the policy allows and computes the
// descent step for key from it: as a validated copy when speculate is
// set; under a pinned SH latch, released before returning (B-link
// move-right repairs any split that slips in before the next node is
// fixed), when speculation is off or the page cannot be referenced
// optimistically (absent, in flux, write-latched) and pin is set.
// ok=false means the node could not be read that way: restart.
func (t *Tree) readStep(pid page.ID, key []byte, speculate, pin bool) (s step, ok bool, err error) {
	if speculate {
		if ref, got := t.opt.FixOpt(pid); got {
			// Everything extracted before Validate is potentially torn:
			// nodeStep returns plain values, never aliases, and its error
			// means something only once the image is known consistent.
			s, err = nodeStep(ref.Page(), key)
			valid := t.opt.Validate(ref)
			t.opt.ReleaseOpt(ref)
			if !valid {
				return step{}, false, nil
			}
			return s, true, err
		}
		if !pin {
			return step{}, false, nil
		}
	}
	f, err := t.env.Fix(pid, sync2.LatchSH)
	if err != nil {
		return step{}, false, err
	}
	s, err = nodeStep(f.Page(), key)
	t.env.Unfix(f, sync2.LatchSH)
	return s, true, err
}

// latchLeaf is how every operation that ends in a latched leaf gets
// there: fix pid in mode, read the header under the latch (no copy: its
// highKey aliases the page), give up (ok=false, nothing held) if the page
// is not a leaf — the root grew a level since it was looked at — move
// right per Lehman-Yao, and find key's place.
//
// hinted says pid is a cursor's remembered leaf rather than the end of a
// walk. Such a leaf is used only on proof, under the latch, that it
// covers key. A page never leaves its tree and a node's low bound never
// changes (deletion is lazy, there are no merges, a split only lowers the
// left node's high key), so the remembered page is still a leaf of this
// tree unless it is the root and grew, and can only lie left or right of
// key's leaf. Key is below the high key by the move-right check, taken at
// most maxHintHops times; key is at or above the low bound, which no node
// stores, if the leaf holds key or an entry below it, or if it was
// reached by moving right from a leaf whose high key — this one's low
// bound — key is not below. No proof: ok=false.
func (t *Tree) latchLeaf(pid page.ID, key []byte, mode sync2.LatchMode, hinted bool) (f *buffer.Frame, hdr nodeHeader, slot int, exact, ok bool, err error) {
	if f, err = t.env.Fix(pid, mode); err != nil {
		return nil, nodeHeader{}, 0, false, false, err
	}
	if hdr, err = peekHeader(f.Page()); err != nil || !hdr.isLeaf() {
		t.env.Unfix(f, mode)
		return nil, nodeHeader{}, 0, false, false, err
	}
	maxHops := math.MaxInt
	if hinted {
		maxHops = maxHintHops
	}
	var hops int
	if f, hdr, hops, err = t.moveRight(f, hdr, key, mode, maxHops); err != nil {
		return nil, nodeHeader{}, 0, false, false, err
	}
	if !needsMoveRight(hdr, key) {
		slot, exact, err = searchEntries(f.Page(), key)
		if proven := !hinted || hops > 0 || exact || slot > 1; err == nil && proven {
			return f, hdr, slot, exact, true, nil
		}
	}
	t.env.Unfix(f, mode)
	return nil, nodeHeader{}, 0, false, false, err
}

// step is one descent step computed from a node image: leaf reports
// arrival, sideways a Lehman-Yao move-right to next, otherwise next is
// the child covering the key (with level, the node's own, telling the
// caller what next is).
type step struct {
	next           page.ID
	level          uint8
	leaf, sideways bool
}

// nodeStep computes the descent step for key from a node image. All
// extracted data is by-value, so a speculative caller may discard it
// after a failed validation; on such reads an error usually just means
// the image was torn.
func nodeStep(p *page.Page, key []byte) (step, error) {
	h, err := peekHeader(p)
	if err != nil {
		return step{}, err
	}
	switch {
	case h.isLeaf():
		return step{level: h.level, leaf: true}, nil
	case needsMoveRight(h, key):
		if h.right == 0 {
			return step{}, fmt.Errorf("%w: high key without right sibling", ErrCorruptNode)
		}
		return step{next: h.right, level: h.level, sideways: true}, nil
	default:
		next, err := branchChildFor(p, h, key)
		return step{next: next, level: h.level}, err
	}
}

// viewLeaf runs read over an image of the leaf responsible for key, with
// the slot key is (exact) or belongs at: a validated copy under the
// speculative policies (nothing pinned, nothing latched), the SH-latched
// page under Latched. c's remembered leaf is tried first, the same way.
// read may run more than once and on a torn image, so it must only copy
// values out through the bounds-checked accessors and reset what it
// collects on entry; its results, error included, count only when
// viewLeaf returns. h.highKey aliases the page.
func (t *Tree) viewLeaf(a Access, c *Cursor, key []byte, read leafReader) error {
	if t.opt == nil {
		a = Latched
	}
	hint := c // for descend to try; a speculative policy tries it here
	if a != Latched {
		hint = nil
		if pid := c.hint(key); pid != 0 {
			if ok, err := t.readLeafOpt(pid, true, c, key, read); ok || err != nil {
				if ok {
					t.stats.CursorHits.Add(1)
					t.stats.leafRead(a)
				}
				return err
			}
		}
		if c.missed() {
			t.stats.CursorMisses.Add(1)
		}
	}
	ran, err := t.attempt(a, func(speculate bool) (bool, error) {
		if speculate {
			pid, ok, err := t.walk(key, true, true, nil)
			if !ok || err != nil {
				return false, err
			}
			if ok, err := t.readLeafOpt(pid, false, c, key, read); ok || err != nil {
				return ok, err
			}
			// The leaf is cold, write-latched or changed under the read:
			// read it latched, as a mutation would, rather than walk again
			// to meet the same leaf.
			f, hdr, slot, exact, ok, err := t.latchLeaf(pid, key, sync2.LatchSH, false)
			if !ok || err != nil {
				return false, err
			}
			defer t.env.Unfix(f, sync2.LatchSH)
			c.remember(f, hdr, key)
			return true, read(f.Page(), hdr, slot, exact)
		}
		f, hdr, slot, exact, err := t.descend(Latched, hint, key, sync2.LatchSH, nil)
		if err != nil {
			return false, err
		}
		defer t.env.Unfix(f, sync2.LatchSH)
		if hint == nil {
			c.remember(f, hdr, key) // descend did not
		}
		return true, read(f.Page(), hdr, slot, exact)
	})
	if err == nil && ran != Latched {
		t.stats.leafRead(ran)
	}
	return err
}

// leafReader is viewLeaf's callback: p is the leaf image, h its header,
// slot the first entry at or above the key, exact whether it is the key.
type leafReader func(p *page.Page, h nodeHeader, slot int, exact bool) error

// readLeafOpt is the pin-free leaf read: starting at leaf pid, move right
// past concurrent splits, run read, and only then validate. A concurrent
// writer on the leaf fails the validation (it holds the frame EX, bumping
// the latch version), so a successful read saw a pre-writer or
// post-writer image, never a torn one. hinted is as for latchLeaf: few
// hops, and no read without proof that the leaf covers key. c, when not
// nil, remembers the leaf the read ran on.
func (t *Tree) readLeafOpt(pid page.ID, hinted bool, c *Cursor, key []byte, read leafReader) (bool, error) {
	hops := maxOptHops
	if hinted {
		hops = maxHintHops
	}
	for hop := 0; hop <= hops; hop++ {
		ref, got := t.opt.FixOpt(pid)
		if !got {
			return false, nil
		}
		h, err := peekHeader(ref.Page())
		right, arrived := h.right, false
		sideways := err == nil && h.isLeaf() && needsMoveRight(h, key)
		var at leafMemo
		if err == nil && h.isLeaf() && !sideways {
			var slot int
			var exact bool
			slot, exact, err = searchEntries(ref.Page(), key)
			if err == nil && !(hinted && hop == 0 && !exact && slot == 1) {
				if arrived = true; c != nil {
					at = memoOf(pid, ref.Page(), h, key)
				}
				err = read(ref.Page(), h, slot, exact)
			}
		}
		valid := t.opt.Validate(ref)
		t.opt.ReleaseOpt(ref)
		switch {
		case !valid:
			return false, nil
		case err != nil:
			return false, err
		case arrived:
			if c != nil {
				c.at = at
			}
			return true, nil
		case !sideways:
			return false, nil // not a leaf (the root grew a level under the walk), or no proof
		case right == 0:
			return false, fmt.Errorf("%w: high key without right sibling", ErrCorruptNode)
		}
		pid = right
	}
	return false, nil
}

// Search returns a copy of the value stored for key. c may be nil.
func (t *Tree) Search(a Access, c *Cursor, key []byte) (val []byte, found bool, err error) {
	found, err = t.View(a, c, key, func(v []byte) { val = append(val[:0:0], v...) })
	if !found {
		val = nil
	}
	return val, found, err
}

// View calls view with the value stored for key and reports whether there
// is one. view sees the leaf's bytes, under its latch or on an image that
// may yet fail validation: it must copy what it keeps, and it may run more
// than once (the last call is the one that counts) or run and still have
// View answer not found, whose caller then ignores what it copied. c may
// be nil.
func (t *Tree) View(a Access, c *Cursor, key []byte, view func(v []byte)) (found bool, err error) {
	if err := checkKV(key, nil); err != nil {
		return false, err
	}
	err = t.viewLeaf(a, c, key, func(p *page.Page, _ nodeHeader, slot int, exact bool) error {
		found = false
		if !exact {
			return nil
		}
		rec, err := p.Record(slot)
		if err != nil {
			return err
		}
		_, v, err := decodeLeafEntry(rec)
		if err != nil {
			return err
		}
		view(v)
		found = true
		return nil
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// Insert adds key→value; ErrDuplicateKey if present. The operation is
// logged with a logical undo (delete key), so aborting the transaction
// removes the key even if splits moved it. c may be nil.
func (t *Tree) Insert(a Access, c *Cursor, tx Txn, key, value []byte) error {
	return t.insert(a, c, tx, key, value, true)
}

// InsertNoUndo adds key→value with redo-only logging. Recovery's logical
// undo path uses it (a CLR-covered action must not generate further undo).
func (t *Tree) InsertNoUndo(a Access, tx Txn, key, value []byte) error {
	return t.insert(a, nil, tx, key, value, false)
}

func (t *Tree) insert(a Access, c *Cursor, tx Txn, key, value []byte, withUndo bool) error {
	if err := checkKV(key, value); err != nil {
		return err
	}
	// The entry is scratch: Log copies it into the record and the page.
	scratch := entryScratch.Get().(*[]byte)
	defer entryScratch.Put(scratch)
	entry := appendLeafEntry((*scratch)[:0], key, value)
	*scratch = entry
	var path nodePath
	for {
		f, hdr, slot, exact, err := t.descend(a, c, key, sync2.LatchEX, &path)
		if err != nil {
			return err
		}
		if exact {
			t.env.Unfix(f, sync2.LatchEX)
			return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
		}
		if f.Page().CanFit(len(entry)) {
			var undo pageop.Logical
			if withUndo {
				undo = pageop.Logical{Kind: pageop.LogicalBTreeDelete, Store: t.store, Key: key}
			}
			err := t.env.Log(tx, f, pageop.Op{Kind: pageop.KindInsertAt, Slot: uint16(slot), Data: entry}, undo)
			if err == nil {
				f.SetInsertHint(uint16(slot))
			}
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		// Leaf full: split, then retry the insert. The retry finds its
		// leaf through the cursor when there is one (the split leaf or
		// its new right sibling), else by descending again.
		if err := t.splitNode(tx, f, hdr, path.ids[:path.n], &pendingInsert{key: key, slot: slot}); err != nil {
			return err
		}
	}
}

// Update replaces the value for key. Logged as a patch of the bytes that
// differ, with a logical undo that puts the old ones back. c may be nil.
func (t *Tree) Update(a Access, c *Cursor, tx Txn, key, value []byte) error {
	return t.update(a, c, tx, key, 0, 0, value, true)
}

// UpdateNoUndo puts mid between the first off and the last suf bytes of
// key's value, with redo-only logging: the action of a logical update undo
// (see pageop.Logical for why it may safely run twice).
func (t *Tree) UpdateNoUndo(a Access, tx Txn, key []byte, off, suf int, mid []byte) error {
	return t.update(a, nil, tx, key, off, suf, mid, false)
}

func (t *Tree) update(a Access, c *Cursor, tx Txn, key []byte, off, suf int, mid []byte, withUndo bool) error {
	if err := checkKV(key, mid); err != nil {
		return err
	}
	var path nodePath
	for {
		f, hdr, slot, exact, err := t.descend(a, c, key, sync2.LatchEX, &path)
		if err != nil {
			return err
		}
		if !exact {
			t.env.Unfix(f, sync2.LatchEX)
			return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		rec, err := f.Page().Record(slot)
		if err != nil {
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		_, oldVal, err := decodeLeafEntry(rec)
		if err == nil && off+suf > len(oldVal) {
			err = fmt.Errorf("btree: update keeps %d+%d bytes of a %d-byte value", off, suf, len(oldVal))
		}
		if err != nil {
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		// Only the bytes that differ are logged; rec still aliases the page.
		valAt := len(rec) - len(oldVal)
		op := pageop.Patch(uint16(slot), valAt+off, oldVal[off:len(oldVal)-suf], mid)
		// The new entry may be larger than the old: split unless the page
		// takes it as Apply would, compacting dead space if it must.
		if err := pageop.Check(f.Page(), op); errors.Is(err, page.ErrPageFull) {
			if err := t.splitNode(tx, f, hdr, path.ids[:path.n], nil); err != nil {
				return err
			}
			continue
		}
		var undo pageop.Logical
		if withUndo {
			pre := int(op.Off) - valAt
			undo = pageop.Logical{Kind: pageop.LogicalBTreeUpdate, Store: t.store, Key: key,
				Off: uint16(pre), Suf: uint16(len(oldVal) - pre - len(op.Old)), Value: op.Old}
		}
		err = t.env.Log(tx, f, op, undo)
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}
}

// Delete removes key, returning its old value. Logged with logical undo
// re-inserting the key. Underflowed leaves are left in place (lazy
// deletion; no merges), which keeps sibling pointers stable — and is what
// lets a Cursor trust a remembered leaf. c may be nil.
func (t *Tree) Delete(a Access, c *Cursor, tx Txn, key []byte) ([]byte, error) {
	return t.delete(a, c, tx, key, true)
}

// DeleteNoUndo is Delete with redo-only logging (for recovery undo).
func (t *Tree) DeleteNoUndo(a Access, tx Txn, key []byte) ([]byte, error) {
	return t.delete(a, nil, tx, key, false)
}

func (t *Tree) delete(a Access, c *Cursor, tx Txn, key []byte, withUndo bool) ([]byte, error) {
	if err := checkKV(key, nil); err != nil {
		return nil, err
	}
	f, _, slot, exact, err := t.descend(a, c, key, sync2.LatchEX, nil)
	if err != nil {
		return nil, err
	}
	if !exact {
		t.env.Unfix(f, sync2.LatchEX)
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	rec, err := f.Page().Record(slot)
	if err != nil {
		t.env.Unfix(f, sync2.LatchEX)
		return nil, err
	}
	_, oldVal, err := decodeLeafEntry(rec)
	if err != nil {
		t.env.Unfix(f, sync2.LatchEX)
		return nil, err
	}
	var undo pageop.Logical
	if withUndo {
		undo = pageop.Logical{Kind: pageop.LogicalBTreeInsert, Store: t.store, Key: key, Value: oldVal}
	}
	// Removing the slot leaves the entry's bytes where they are, so oldVal
	// stays readable until the latch goes.
	err = t.env.Log(tx, f, pageop.Op{Kind: pageop.KindRemoveAt, Slot: uint16(slot), Old: rec}, undo)
	if err == nil {
		oldVal = append([]byte(nil), oldVal...)
	}
	t.env.Unfix(f, sync2.LatchEX)
	if err != nil {
		return nil, err
	}
	return oldVal, nil
}

// Scan calls fn for each key in [from, to) in ascending order until fn
// returns false. nil from starts at the smallest key; nil to means no
// upper bound. The range is read one leaf at a time through viewLeaf —
// the entries in range are copied out of the leaf image, into one buffer
// per leaf, and emitted after it is let go, so fn receives copies it may
// retain and may re-enter the tree. Splits between leaf reads are
// benign: the next leaf is found by descending to the previous one's
// high key, below which everything has been emitted and at or above
// which nothing has.
func (t *Tree) Scan(a Access, from, to []byte, fn func(key, value []byte) bool) error {
	if a == Owner && t.opt != nil {
		t.stats.OwnerScans.Add(1)
	}
	lo := from
	if lo == nil {
		lo = []byte{0}
	}
	var pairs [][2][]byte
	for {
		var buf, next []byte // next: the leaf's high key; nil once the scan is complete
		err := t.viewLeaf(a, nil, lo, func(p *page.Page, h nodeHeader, slot int, _ bool) error {
			pairs, next = pairs[:0], nil
			// Size the copy first, so that a leaf takes one allocation: a
			// re-run reuses the buffer of the run before, which fn has not
			// seen. A torn image may size it wrong; append still copies.
			n, end, size := numEntries(p), slot, 0
			for ; end <= n; end++ {
				rec, err := p.Record(end)
				if err != nil {
					return err
				}
				k, _, err := decodeLeafEntry(rec)
				if err != nil {
					return err
				}
				if to != nil && bytes.Compare(k, to) >= 0 {
					break
				}
				size += len(rec)
			}
			more := end > n && len(h.highKey) > 0 && (to == nil || bytes.Compare(h.highKey, to) < 0)
			if more {
				size += len(h.highKey)
			}
			if cap(buf) < size {
				buf = make([]byte, 0, size)
			}
			buf = buf[:0]
			for ; slot < end; slot++ {
				rec, err := p.Record(slot)
				if err != nil {
					return err
				}
				at := len(buf)
				buf = append(buf, rec...)
				k, v, err := decodeLeafEntry(buf[at:len(buf):len(buf)])
				if err != nil {
					return err
				}
				pairs = append(pairs, [2][]byte{k, v})
			}
			if more {
				at := len(buf)
				buf = append(buf, h.highKey...)
				next = buf[at:]
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, kv := range pairs {
			if !fn(kv[0], kv[1]) {
				return nil
			}
		}
		if next == nil {
			return nil
		}
		lo = next
	}
}
