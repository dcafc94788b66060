package btree

import (
	"fmt"

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
//  2. The (existing) left node is rewritten with ONE atomic page-image
//     record: entries above the split point removed, right pointer and
//     high key set. After this instant every reader finds moved keys by
//     following the right link.
//  3. The separator is inserted into the parent (itself a plain,
//     independently crash-safe insert; if it is missing after a crash,
//     B-link searches still succeed via move-right).
//
// All split records are redo-only: structure modifications are never
// undone (aborting transactions undo their *keys* logically instead).

// splitNode splits the EX-latched full node f (consuming its latch) and
// propagates the separator to the parent. path holds the page ids of the
// ancestors visited during the descent, deepest last.
func (t *Tree) splitNode(txID uint64, f *buffer.Frame, hdr nodeHeader, path []page.ID) error {
	p := f.Page()
	n := numEntries(p)
	if n < 2 {
		t.env.Unfix(f, sync2.LatchEX)
		return fmt.Errorf("%w: split of node with %d entries", ErrCorruptNode, n)
	}
	if hdr.isRoot() {
		return t.splitRoot(txID, f, hdr)
	}

	// Snapshot the entries (they alias page memory we are about to
	// rewrite).
	entries := make([][]byte, 0, n)
	for i := 1; i <= n; i++ {
		rec, err := p.Record(i)
		if err != nil {
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		entries = append(entries, append([]byte(nil), rec...))
	}
	mid := n / 2
	sepKey, err := entryKeyFromRecord(entries[mid])
	if err != nil {
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}
	sepKey = append([]byte(nil), sepKey...)

	// Step 1: build the new right node.
	newPid, err := t.env.AllocPage(t.store)
	if err != nil {
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}
	rightHdr := nodeHeader{
		flags:   hdr.flags &^ flagRoot,
		level:   hdr.level,
		right:   hdr.right,
		highKey: hdr.highKey,
	}
	var rightEntries [][]byte
	if hdr.isLeaf() {
		rightEntries = entries[mid:]
	} else {
		// Branch split: the separator moves up; its child becomes the new
		// node's leftmost child.
		_, sepChild, err := decodeBranchEntry(entries[mid])
		if err != nil {
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		rightHdr.leftChild = sepChild
		rightEntries = entries[mid+1:]
	}
	if err := t.writeFreshNode(txID, newPid, rightHdr, rightEntries); err != nil {
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}

	// Step 2: atomically rewrite the left node.
	leftHdr := nodeHeader{
		flags:     hdr.flags,
		level:     hdr.level,
		right:     newPid,
		leftChild: hdr.leftChild,
		highKey:   sepKey,
	}
	img := buildNodeImage(p.PID(), t.store, leftHdr, entries[:mid])
	err = t.env.Log(txID, f, pageop.Op{Kind: pageop.KindPageImage, Data: img}, pageop.Logical{})
	t.env.Unfix(f, sync2.LatchEX)
	if err != nil {
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
// logging redo-only records.
func (t *Tree) writeFreshNode(txID uint64, pid page.ID, hdr nodeHeader, entries [][]byte) error {
	f, err := t.env.FixNew(pid)
	if err != nil {
		return err
	}
	defer t.env.Unfix(f, sync2.LatchEX)
	img := buildNodeImage(pid, t.store, hdr, entries)
	// One image record covers format + header + all entries atomically.
	return t.env.Log(txID, f, pageop.Op{Kind: pageop.KindPageImage, Data: img}, pageop.Logical{})
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
	entries := make([][]byte, 0, n)
	for i := 1; i <= n; i++ {
		rec, err := p.Record(i)
		if err != nil {
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		entries = append(entries, append([]byte(nil), rec...))
	}
	mid := n / 2
	sepKey, err := entryKeyFromRecord(entries[mid])
	if err != nil {
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}
	sepKey = append([]byte(nil), sepKey...)

	leftPid, err := t.env.AllocPage(t.store)
	if err != nil {
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}
	rightPid, err := t.env.AllocPage(t.store)
	if err != nil {
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}

	childFlags := hdr.flags &^ flagRoot
	rightHdr := nodeHeader{flags: childFlags, level: hdr.level, right: 0, highKey: nil}
	var rightEntries [][]byte
	if hdr.isLeaf() {
		rightEntries = entries[mid:]
	} else {
		_, sepChild, err := decodeBranchEntry(entries[mid])
		if err != nil {
			t.env.Unfix(f, sync2.LatchEX)
			return err
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
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}
	if err := t.writeFreshNode(txID, rightPid, rightHdr, rightEntries); err != nil {
		t.env.Unfix(f, sync2.LatchEX)
		return err
	}
	// Atomic root rewrite: one level up, pointing at the two children.
	rootHdr := nodeHeader{
		flags:     flagRoot,
		level:     hdr.level + 1,
		leftChild: leftPid,
	}
	img := buildNodeImage(p.PID(), t.store, rootHdr, [][]byte{encodeBranchEntry(sepKey, rightPid)})
	err = t.env.Log(txID, f, pageop.Op{Kind: pageop.KindPageImage, Data: img}, pageop.Logical{})
	t.env.Unfix(f, sync2.LatchEX)
	return err
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
		hdr, err := readHeader(f.Page())
		if err != nil {
			t.env.Unfix(f, sync2.LatchEX)
			return err
		}
		f, hdr, err = t.moveRight(f, hdr, sepKey, sync2.LatchEX)
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
		if err := t.splitNode(txID, f, hdr, path); err != nil {
			return err
		}
	}
}
