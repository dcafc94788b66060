package btree

import (
	"bytes"
	"fmt"

	"repro/internal/page"
	"repro/internal/sync2"
)

// Verify walks the whole tree checking structural invariants:
//
//   - every node's entries are strictly sorted;
//   - every key lies below the node's high key (when present);
//   - leaf sibling chains are ordered left-to-right and connected;
//   - all leaves are at level 0 and levels decrease by one per descent;
//   - branch children cover the ranges their separators promise — a child
//     together with any right siblings it split off whose separators a
//     crash kept from the parent.
//
// It returns the total number of keys in the tree. Verify takes SH
// latches node by node; concurrent writers may run, but the strongest
// guarantees come from quiescent trees (tests).
func (t *Tree) Verify() (keys int, err error) {
	return t.verifySubtree(t.root, nil, nil, -1)
}

// verifySubtree checks what a parent's pointer to pid stands for: the
// node and, when its high key stops short of high — the bound the parent
// has for it — the chain of right siblings up to that bound. Those are
// splits whose separator never reached the parent (a crash between the
// left node's rewrite and the parent's insert); searches reach them by
// moving right, and so does this.
func (t *Tree) verifySubtree(pid page.ID, low, high []byte, wantLevel int) (int, error) {
	total := 0
	for {
		n, right, hk, err := t.verifyNode(pid, low, high, wantLevel)
		if err != nil {
			return 0, err
		}
		total += n
		if hk == nil || (high != nil && bytes.Compare(hk, high) >= 0) {
			return total, nil
		}
		if right == 0 {
			return 0, fmt.Errorf("%w: %v has a high key but no right sibling", ErrCorruptNode, pid)
		}
		pid, low = right, hk
	}
}

// verifyNode checks node pid and the subtrees below it, and returns the
// key count with the node's right sibling and high key. low/high bound
// its key space (nil = unbounded); wantLevel is the expected level (-1 =
// any, for the root). The node's latch is released before its children
// are visited.
func (t *Tree) verifyNode(pid page.ID, low, high []byte, wantLevel int) (keys int, right page.ID, highKey []byte, err error) {
	type child struct {
		pid page.ID
		low []byte
	}
	var hdr nodeHeader
	var children []child
	bound := high // effective upper bound: the tighter of high and the node's high key
	err = func() error {
		f, err := t.env.Fix(pid, sync2.LatchSH)
		if err != nil {
			return err
		}
		defer t.env.Unfix(f, sync2.LatchSH)
		p := f.Page()
		if p.Type() != page.TypeBTree {
			return fmt.Errorf("%w: %v is not a btree page", ErrCorruptNode, pid)
		}
		if hdr, err = readHeader(p); err != nil {
			return err
		}
		if wantLevel >= 0 && int(hdr.level) != wantLevel {
			return fmt.Errorf("%w: %v at level %d, want %d", ErrCorruptNode, pid, hdr.level, wantLevel)
		}
		if hdr.highKey != nil && (bound == nil || bytes.Compare(hdr.highKey, bound) < 0) {
			bound = hdr.highKey
		}
		if !hdr.isLeaf() {
			if hdr.leftChild == 0 {
				return fmt.Errorf("%w: branch %v without left child", ErrCorruptNode, pid)
			}
			children = append(children, child{pid: hdr.leftChild, low: low})
		}
		keys = numEntries(p)
		var prev []byte
		for i := 1; i <= keys; i++ {
			k, err := entryKey(p, i)
			if err != nil {
				return err
			}
			switch {
			case prev != nil && bytes.Compare(prev, k) >= 0:
				return fmt.Errorf("%w: %v entries out of order (%q >= %q)", ErrCorruptNode, pid, prev, k)
			case low != nil && bytes.Compare(k, low) < 0:
				return fmt.Errorf("%w: %v key %q below low bound %q", ErrCorruptNode, pid, k, low)
			case bound != nil && bytes.Compare(k, bound) >= 0:
				return fmt.Errorf("%w: %v key %q at/above bound %q", ErrCorruptNode, pid, k, bound)
			}
			prev = append([]byte(nil), k...)
			if !hdr.isLeaf() {
				rec, err := p.Record(i)
				if err != nil {
					return err
				}
				_, c, err := decodeBranchEntry(rec)
				if err != nil {
					return err
				}
				children = append(children, child{pid: c, low: prev})
			}
		}
		return nil
	}()
	if err != nil {
		return 0, 0, nil, err
	}
	if !hdr.isLeaf() {
		keys = 0
		for i, c := range children {
			hi := bound
			if i+1 < len(children) {
				hi = children[i+1].low
			}
			sub, err := t.verifySubtree(c.pid, c.low, hi, int(hdr.level)-1)
			if err != nil {
				return 0, 0, nil, fmt.Errorf("child %d of %v: %w", i, pid, err)
			}
			keys += sub
		}
	}
	return keys, hdr.right, hdr.highKey, nil
}

// CountViaScan returns the number of keys a full Scan reaches; comparing
// it with Verify's count catches leaves that descents cannot reach or
// reach twice.
func (t *Tree) CountViaScan() (int, error) {
	n := 0
	err := t.Scan(nil, nil, func(k, v []byte) bool {
		n++
		return true
	})
	return n, err
}
