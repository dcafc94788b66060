package btree

import (
	"fmt"
	"math"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/sync2"
)

// Structure modification (split) logic. Splits follow the Lehman-Yao
// recipe, ordered so that the log is crash-consistent at every prefix:
//
//  1. The new right node is built on a freshly allocated page with
//     redo-only records. Until step 2 it is unreachable, so a crash here
//     leaks at most one page.
//  2. The (existing) left node is rewritten with ONE atomic record:
//     entries above the split point removed, right pointer and high key
//     set. After this instant every reader finds moved keys by following
//     the right link.
//  3. The separator is inserted into the parent (itself a plain,
//     independently crash-safe insert; if it is missing after a crash,
//     B-link searches still succeed via move-right).
//
// Where a node splits is splitPoint's decision. A leaf that splits at its
// end — the shape every ascending insert stream produces — moves no
// entry, and is logged as what it is: step 1 is a format record and the
// right node's header (what Create writes for an empty tree), step 2 one
// update of the left node's header record, which holds both the right
// pointer and the high key. Every other split moves entries and logs a
// page image of each node, less the free gap between slot directory and
// record heap (pageop.Image). Either way step 2 is one record.
//
// All split records are redo-only: structure modifications are never
// undone (aborting transactions undo their *keys* logically instead).

// pendingInsert is the leaf insert a split makes room for.
type pendingInsert struct {
	key  []byte
	slot int // where key goes in the full leaf
}

// splitPoint returns how many of the n entries of full node f stay left.
// A leaf whose pending insert continues a run — it goes right after the
// leaf's previous insert, whichever transaction made it (the frame's
// insert hint), or past the last entry — splits at the insertion point:
// the run goes on into free space and what it leaves behind stays packed,
// where a cut in the middle would leave every leaf the run passes half
// empty for ever (InnoDB's and PostgreSQL's sequential-insert rule). A
// stream of one-key transactions is a run too: after one such cut it
// inserts at the end of its own leaf. Anything else splits in the middle.
func (t *Tree) splitPoint(f *buffer.Frame, n int, ins *pendingInsert) int {
	if ins != nil && ins.slot > 1 && (ins.slot == n+1 || ins.slot == int(f.InsertHint())+1) {
		t.stats.InsertPointSplits.Add(1)
		return ins.slot - 1
	}
	return n / 2
}

// snapshotEntries copies the n entries of p, which alias page memory a
// split is about to rewrite.
func snapshotEntries(p *page.Page, n int) ([][]byte, error) {
	entries := make([][]byte, 0, n)
	for i := 1; i <= n; i++ {
		rec, err := p.Record(i)
		if err != nil {
			return nil, err
		}
		entries = append(entries, append([]byte(nil), rec...))
	}
	return entries, nil
}

// splitNode splits the EX-latched full node f (consuming its latch) and
// propagates the separator to the parent. path holds the page ids of the
// ancestors visited during the descent, deepest last; it may be short or
// empty (a leaf reached through a cursor), and the parent is then found
// from the root. ins is the leaf insert that found f full, nil for any
// other cause.
func (t *Tree) splitNode(txID uint64, f *buffer.Frame, hdr nodeHeader, path []page.ID, ins *pendingInsert) error {
	p := f.Page()
	n := numEntries(p)
	unfix := func(err error) error { // every way out releases the node
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}
	if n < 2 {
		return unfix(fmt.Errorf("%w: split of node with %d entries", ErrCorruptNode, n))
	}
	if hdr.isRoot() {
		return t.splitRoot(txID, f, hdr)
	}
	// hdr was read under the latch without a copy; p is about to change.
	hdr.highKey = append([]byte(nil), hdr.highKey...)
	mid := t.splitPoint(f, n, ins)
	if mid == n && len(ins.key)-len(hdr.highKey) > p.FreeSpace() {
		// Nothing would move, the separator would be the pending key, and
		// the left header cannot take it as its high key in place
		// (page.Update needs the growth in free space): move the last
		// entry, whose key is then the separator and whose room the header
		// can have.
		mid = n - 1
	}
	// A split that moves nothing reads no entry; its separator is the
	// pending key itself.
	var entries [][]byte
	sepKey := []byte(nil)
	if mid == n {
		sepKey = append(sepKey, ins.key...)
	} else {
		var err error
		if entries, err = snapshotEntries(p, n); err != nil {
			return unfix(err)
		}
		k, err := entryKeyFromRecord(entries[mid])
		if err != nil {
			return unfix(err)
		}
		sepKey = append(sepKey, k...)
	}

	// Step 1: build the new right node.
	newPid, err := t.env.AllocPage(t.store)
	if err != nil {
		return unfix(err)
	}
	rightHdr := nodeHeader{
		flags:   hdr.flags &^ flagRoot,
		level:   hdr.level,
		right:   hdr.right,
		highKey: hdr.highKey,
	}
	var rightEntries [][]byte
	switch {
	case mid == n:
	case hdr.isLeaf():
		rightEntries = entries[mid:]
	default:
		// Branch split: the separator moves up; its child becomes the new
		// node's leftmost child.
		_, sepChild, err := decodeBranchEntry(entries[mid])
		if err != nil {
			return unfix(err)
		}
		rightHdr.leftChild = sepChild
		rightEntries = entries[mid+1:]
	}
	if err := t.writeFreshNode(txID, newPid, rightHdr, rightEntries); err != nil {
		return unfix(err)
	}

	// Step 2: atomically rewrite the left node.
	leftHdr := nodeHeader{
		flags:     hdr.flags,
		level:     hdr.level,
		right:     newPid,
		leftChild: hdr.leftChild,
		highKey:   sepKey,
	}
	var op pageop.Op
	if mid < n {
		t.stats.ImageSplits.Add(1)
		op = pageop.Image(buildNodeImage(p.PID(), t.store, leftHdr, entries[:mid]))
	} else { // nothing moved: only the header's right pointer and high key change
		oldHdr, err := p.Record(0)
		if err != nil {
			return unfix(err)
		}
		op = pageop.Patch(0, 0, oldHdr, leftHdr.encode())
	}
	if err := unfix(t.env.Log(txID, f, op, pageop.Logical{})); err != nil {
		return err
	}

	// Step 3: propagate the separator to the level above the split node.
	parent := t.root
	var parentPath []page.ID
	if len(path) > 0 {
		parent = path[len(path)-1]
		parentPath = path[:len(path)-1]
	}
	return t.insertIntoBranch(txID, parent, parentPath, hdr.level+1, sepKey, newPid)
}

// entryKeyFromRecord extracts the key from a raw entry record.
func entryKeyFromRecord(rec []byte) ([]byte, error) {
	if len(rec) < 2 {
		return nil, fmt.Errorf("%w: short entry", ErrCorruptNode)
	}
	kl := int(rec[0]) | int(rec[1])<<8
	if len(rec) < 2+kl {
		return nil, fmt.Errorf("%w: truncated entry", ErrCorruptNode)
	}
	return rec[2 : 2+kl], nil
}

// writeFreshNode formats a new page as a node with hdr and entries,
// logging redo-only records: one page image covering format, header and
// entries, or, for a node without entries, the format and the header as
// the two small records they are. The node is unreachable until a later
// record links it, so the pair need not be atomic.
func (t *Tree) writeFreshNode(txID uint64, pid page.ID, hdr nodeHeader, entries [][]byte) error {
	f, err := t.env.FixNew(pid)
	if err != nil {
		return err
	}
	defer t.env.Unfix(f, sync2.LatchEX)
	if len(entries) > 0 {
		return t.env.Log(txID, f, pageop.Image(buildNodeImage(pid, t.store, hdr, entries)), pageop.Logical{})
	}
	if err := t.env.Log(txID, f, pageop.Op{Kind: pageop.KindFormat, PType: page.TypeBTree, Store: t.store}, pageop.Logical{}); err != nil {
		return err
	}
	return t.env.Log(txID, f, pageop.Op{Kind: pageop.KindInsertAt, Slot: 0, Data: hdr.encode()}, pageop.Logical{})
}

// buildNodeImage constructs the full page bytes of a node.
func buildNodeImage(pid page.ID, store uint32, hdr nodeHeader, entries [][]byte) []byte {
	buf := make([]byte, page.Size)
	p, err := page.Wrap(buf)
	if err != nil {
		panic(err) // buf is page.Size by construction
	}
	p.Init(pid, page.TypeBTree, store)
	if err := p.InsertAt(0, hdr.encode()); err != nil {
		panic(fmt.Sprintf("btree: node image header: %v", err))
	}
	for i, e := range entries {
		if err := p.InsertAt(i+1, e); err != nil {
			panic(fmt.Sprintf("btree: node image entry %d: %v", i, err))
		}
	}
	return buf
}

// splitRoot splits the EX-latched full root (consuming the latch). The
// root page id stays stable: its contents move into two fresh children and
// the root becomes (or stays) a branch one level up.
func (t *Tree) splitRoot(txID uint64, f *buffer.Frame, hdr nodeHeader) error {
	p := f.Page()
	n := numEntries(p)
	unfix := func(err error) error { // every way out releases the node
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}
	entries, err := snapshotEntries(p, n)
	if err != nil {
		return unfix(err)
	}
	mid := n / 2
	sepKey, err := entryKeyFromRecord(entries[mid])
	if err != nil {
		return unfix(err)
	}
	sepKey = append([]byte(nil), sepKey...)

	leftPid, err := t.env.AllocPage(t.store)
	if err != nil {
		return unfix(err)
	}
	rightPid, err := t.env.AllocPage(t.store)
	if err != nil {
		return unfix(err)
	}

	childFlags := hdr.flags &^ flagRoot
	rightHdr := nodeHeader{flags: childFlags, level: hdr.level, right: 0, highKey: nil}
	var rightEntries [][]byte
	if hdr.isLeaf() {
		rightEntries = entries[mid:]
	} else {
		_, sepChild, err := decodeBranchEntry(entries[mid])
		if err != nil {
			return unfix(err)
		}
		rightHdr.leftChild = sepChild
		rightEntries = entries[mid+1:]
	}
	leftHdr := nodeHeader{
		flags:     childFlags,
		level:     hdr.level,
		right:     rightPid,
		leftChild: hdr.leftChild,
		highKey:   sepKey,
	}
	// Children are unreachable until the root image lands; order between
	// them is irrelevant.
	if err := t.writeFreshNode(txID, leftPid, leftHdr, entries[:mid]); err != nil {
		return unfix(err)
	}
	if err := t.writeFreshNode(txID, rightPid, rightHdr, rightEntries); err != nil {
		return unfix(err)
	}
	// Atomic root rewrite: one level up, pointing at the two children.
	rootHdr := nodeHeader{
		flags:     flagRoot,
		level:     hdr.level + 1,
		leftChild: leftPid,
	}
	t.stats.ImageSplits.Add(1)
	img := buildNodeImage(p.PID(), t.store, rootHdr, [][]byte{encodeBranchEntry(sepKey, rightPid)})
	return unfix(t.env.Log(txID, f, pageop.Image(img), pageop.Logical{}))
}

// insertIntoBranch inserts a separator (sepKey → child) into the branch at
// level targetLevel responsible for sepKey, starting the walk at pid
// (usually the parent recorded during descent). It moves right past
// concurrent splits, descends if the hint is too high (e.g. the root after
// it grew levels), restarts from the root if the hint is stale-low, and
// splits the branch itself if full.
func (t *Tree) insertIntoBranch(txID uint64, pid page.ID, path []page.ID, targetLevel uint8, sepKey []byte, child page.ID) error {
	entry := encodeBranchEntry(sepKey, child)
	for {
		f, err := t.env.Fix(pid, sync2.LatchEX)
		if err != nil {
			return err
		}
		hdr, err := peekHeader(f.Page())
		if err != nil {
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		f, hdr, _, err = t.moveRight(f, hdr, sepKey, sync2.LatchEX, math.MaxInt)
		if err != nil {
			return err
		}
		if hdr.level < targetLevel {
			// Stale hint below the target level: restart from the root.
			t.env.Unfix(f, sync2.LatchEX)
			pid = t.root
			path = nil
			continue
		}
		if hdr.level > targetLevel {
			// Too high (e.g. the root grew): descend one level.
			next, err := branchChildFor(f.Page(), hdr, sepKey)
			if err != nil {
				t.env.Unfix(f, sync2.LatchEX)
				return err
			}
			path = append(path, f.Page().PID())
			t.env.Unfix(f, sync2.LatchEX)
			pid = next
			continue
		}
		slot, exact, err := searchEntries(f.Page(), sepKey)
		if err != nil {
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		if exact {
			// Separator already present (retry after partial failure).
			t.env.Unfix(f, sync2.LatchEX)
			return nil
		}
		if f.Page().CanFit(len(entry)) {
			err := t.env.Log(txID, f, pageop.Op{Kind: pageop.KindInsertAt, Slot: uint16(slot), Data: entry}, pageop.Logical{})
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		// Branch full: split it (consumes the latch), then retry.
		if err := t.splitNode(txID, f, hdr, path, nil); err != nil {
			return err
		}
	}
}
