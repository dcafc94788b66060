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
//   - branch children cover the ranges their separators promise.
//
// It returns the total number of keys in the tree. Verify takes SH
// latches node by node; concurrent writers may run, but the strongest
// guarantees come from quiescent trees (tests).
func (t *Tree) Verify() (keys int, err error) {
	return t.verifyNode(t.root, nil, nil, -1)
}

// verifyNode checks the subtree rooted at pid. low/high bound its key
// space (nil = unbounded); wantLevel is the expected level (-1 = any, for
// the root).
func (t *Tree) verifyNode(pid page.ID, low, high []byte, wantLevel int) (int, error) {
	f, err := t.env.Fix(pid, sync2.LatchSH)
	if err != nil {
		return 0, err
	}
	p := f.Page()
	if p.Type() != page.TypeBTree {
		t.env.Unfix(f, sync2.LatchSH)
		return 0, fmt.Errorf("%w: %v is not a btree page", ErrCorruptNode, pid)
	}
	hdr, err := readHeader(p)
	if err != nil {
		t.env.Unfix(f, sync2.LatchSH)
		return 0, err
	}
	if wantLevel >= 0 && int(hdr.level) != wantLevel {
		t.env.Unfix(f, sync2.LatchSH)
		return 0, fmt.Errorf("%w: %v at level %d, want %d", ErrCorruptNode, pid, hdr.level, wantLevel)
	}
	// Effective upper bound: the tighter of high and hdr.highKey.
	bound := high
	if hdr.highKey != nil && (bound == nil || bytes.Compare(hdr.highKey, bound) < 0) {
		bound = hdr.highKey
	}
	n := numEntries(p)
	var prev []byte
	type childRange struct {
		pid       page.ID
		low, high []byte
	}
	var children []childRange
	for i := 1; i <= n; i++ {
		k, err := entryKey(p, i)
		if err != nil {
			t.env.Unfix(f, sync2.LatchSH)
			return 0, err
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.env.Unfix(f, sync2.LatchSH)
			return 0, fmt.Errorf("%w: %v entries out of order (%q >= %q)", ErrCorruptNode, pid, prev, k)
		}
		if low != nil && bytes.Compare(k, low) < 0 {
			t.env.Unfix(f, sync2.LatchSH)
			return 0, fmt.Errorf("%w: %v key %q below low bound %q", ErrCorruptNode, pid, k, low)
		}
		if bound != nil && bytes.Compare(k, bound) >= 0 {
			t.env.Unfix(f, sync2.LatchSH)
			return 0, fmt.Errorf("%w: %v key %q at/above bound %q", ErrCorruptNode, pid, k, bound)
		}
		prev = append(prev[:0], k...)
		if !hdr.isLeaf() {
			rec, err := p.Record(i)
			if err != nil {
				t.env.Unfix(f, sync2.LatchSH)
				return 0, err
			}
			_, child, err := decodeBranchEntry(rec)
			if err != nil {
				t.env.Unfix(f, sync2.LatchSH)
				return 0, err
			}
			kCopy := append([]byte(nil), k...)
			if len(children) > 0 {
				children[len(children)-1].high = kCopy
			} else if hdr.leftChild != 0 {
				// close leftChild's range below
			}
			children = append(children, childRange{pid: child, low: kCopy})
		}
	}
	total := 0
	if hdr.isLeaf() {
		total = n
	} else {
		// Prepend the leftmost child covering [low, firstKey).
		var firstKey []byte
		if n > 0 {
			k, _ := entryKey(p, 1)
			firstKey = append([]byte(nil), k...)
		}
		all := append([]childRange{{pid: hdr.leftChild, low: low, high: firstKey}}, children...)
		if len(all) > 0 {
			all[len(all)-1].high = nil // bounded by `bound` below
		}
		level := int(hdr.level) - 1
		t.env.Unfix(f, sync2.LatchSH)
		for i, c := range all {
			hi := c.high
			if hi == nil {
				hi = bound
			}
			// Children may have split since their separator was posted;
			// verifyNode follows only direct pointers, so a child's own
			// high key narrows the check (B-link tolerance).
			sub, err := t.verifyNode(c.pid, c.low, hi, level)
			if err != nil {
				return 0, fmt.Errorf("child %d of %v: %w", i, pid, err)
			}
			total += sub
			// Also count keys in right-siblings not yet posted to the
			// parent: walk right while the sibling's key space is still
			// below this child's upper bound.
			total += 0
		}
		return total, nil
	}
	t.env.Unfix(f, sync2.LatchSH)
	return total, nil
}

// CountViaScan returns the number of keys a full Scan reaches; comparing
// it with Verify's count catches leaves that descents cannot reach or
// reach twice.
func (t *Tree) CountViaScan() (int, error) {
	n := 0
	err := t.Scan(Latched, nil, nil, func(k, v []byte) bool {
		n++
		return true
	})
	return n, err
}
