// Package btree implements the storage manager's B+Tree index as a
// Lehman-Yao B-link tree (the paper's reference [22]): every node carries a
// right-sibling pointer and a high key, so readers recover from concurrent
// splits by "moving right" instead of holding multi-node latch chains, and
// structure modifications become crash-consistent with a single atomic
// page-image log record per modified existing page.
//
// Node layout on a slotted page (page.TypeBTree):
//
//	slot 0:   node header — flags, level, right sibling, leftmost child,
//	          high key (variable length)
//	slot 1..: entries sorted by key
//	          leaf:     keyLen u16 | key | value
//	          internal: keyLen u16 | key | child u64
//
// Leaves are level 0. An internal node's leftmost child covers keys below
// its first separator; entry i covers [key_i, key_{i+1}).
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/page"
)

// Size limits for keys and values so any two entries plus the header fit a
// page.
const (
	MaxKeySize   = 1024
	MaxValueSize = 2048
)

// Errors returned by tree operations.
var (
	ErrKeyTooLarge   = errors.New("btree: key too large")
	ErrValueTooLarge = errors.New("btree: value too large")
	ErrDuplicateKey  = errors.New("btree: duplicate key")
	ErrKeyNotFound   = errors.New("btree: key not found")
	ErrCorruptNode   = errors.New("btree: corrupt node")
)

// header flags.
const (
	flagLeaf = 1 << 0
	flagRoot = 1 << 1
)

// nodeHeader is the decoded slot-0 record.
type nodeHeader struct {
	flags     uint8
	level     uint8
	right     page.ID // right sibling (0 = rightmost)
	leftChild page.ID // internal nodes: child for keys < first separator
	highKey   []byte  // upper bound (exclusive); nil = +infinity (rightmost)
}

func (h nodeHeader) isLeaf() bool { return h.flags&flagLeaf != 0 }
func (h nodeHeader) isRoot() bool { return h.flags&flagRoot != 0 }

// encode serializes the header record.
func (h nodeHeader) encode() []byte {
	b := make([]byte, 18+len(h.highKey))
	b[0] = h.flags
	b[1] = h.level
	binary.LittleEndian.PutUint64(b[2:], uint64(h.right))
	binary.LittleEndian.PutUint64(b[10:], uint64(h.leftChild))
	copy(b[18:], h.highKey)
	return b
}

// decodeHeaderAlias decodes the header with highKey aliasing b — the one
// place the layout (flags, level, right, leftChild, highKey) is read.
func decodeHeaderAlias(b []byte) (nodeHeader, error) {
	if len(b) < 18 {
		return nodeHeader{}, fmt.Errorf("%w: short header", ErrCorruptNode)
	}
	h := nodeHeader{
		flags:     b[0],
		level:     b[1],
		right:     page.ID(binary.LittleEndian.Uint64(b[2:])),
		leftChild: page.ID(binary.LittleEndian.Uint64(b[10:])),
	}
	if len(b) > 18 {
		h.highKey = b[18:]
	}
	return h, nil
}

func decodeHeader(b []byte) (nodeHeader, error) {
	h, err := decodeHeaderAlias(b)
	if err != nil {
		return nodeHeader{}, err
	}
	if h.highKey != nil {
		h.highKey = append([]byte(nil), h.highKey...)
	}
	return h, nil
}

// readHeader loads the header from a node page.
func readHeader(p *page.Page) (nodeHeader, error) {
	rec, err := p.Record(0)
	if err != nil {
		return nodeHeader{}, fmt.Errorf("%w: missing header record", ErrCorruptNode)
	}
	return decodeHeader(rec)
}

// peekHeader is readHeader without the high-key copy: highKey aliases
// page memory. For hot paths that only compare against it and extract
// scalars before the page can change (under a latch, or before an
// optimistic validation whose failure discards every result).
func peekHeader(p *page.Page) (nodeHeader, error) {
	rec, err := p.Record(0)
	if err != nil {
		return nodeHeader{}, fmt.Errorf("%w: missing header record", ErrCorruptNode)
	}
	return decodeHeaderAlias(rec)
}

// entry encoding --------------------------------------------------------

// appendLeafEntry appends key→value's leaf entry record to b.
func appendLeafEntry(b, key, value []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	return append(append(b, key...), value...)
}

// entryScratch holds the buffers inserts encode their leaf entries in.
var entryScratch = sync.Pool{New: func() any { return new([]byte) }}

// decodeLeafEntry splits a leaf record into key and value (both aliased).
func decodeLeafEntry(rec []byte) (key, value []byte, err error) {
	if len(rec) < 2 {
		return nil, nil, fmt.Errorf("%w: short leaf entry", ErrCorruptNode)
	}
	kl := int(binary.LittleEndian.Uint16(rec))
	if len(rec) < 2+kl {
		return nil, nil, fmt.Errorf("%w: truncated leaf key", ErrCorruptNode)
	}
	return rec[2 : 2+kl], rec[2+kl:], nil
}

// LeafValue returns the value of a leaf entry record (aliased) — what the
// version store keeps of an entry that is about to change.
func LeafValue(rec []byte) ([]byte, error) {
	_, v, err := decodeLeafEntry(rec)
	return v, err
}

// encodeBranchEntry builds an internal (branch) entry record.
func encodeBranchEntry(key []byte, child page.ID) []byte {
	b := make([]byte, 2+len(key)+8)
	binary.LittleEndian.PutUint16(b, uint16(len(key)))
	copy(b[2:], key)
	binary.LittleEndian.PutUint64(b[2+len(key):], uint64(child))
	return b
}

// decodeBranchEntry splits a branch record into separator key and child.
func decodeBranchEntry(rec []byte) (key []byte, child page.ID, err error) {
	if len(rec) < 10 {
		return nil, 0, fmt.Errorf("%w: short branch entry", ErrCorruptNode)
	}
	kl := int(binary.LittleEndian.Uint16(rec))
	if len(rec) < 2+kl+8 {
		return nil, 0, fmt.Errorf("%w: truncated branch key", ErrCorruptNode)
	}
	return rec[2 : 2+kl], page.ID(binary.LittleEndian.Uint64(rec[2+kl:])), nil
}

// entryKey extracts the key of entry slot i (1-based entries).
func entryKey(p *page.Page, i int) ([]byte, error) {
	rec, err := p.Record(i)
	if err != nil {
		return nil, err
	}
	return entryKeyFromRecord(rec)
}

// numEntries returns the number of key entries on the node (slots beyond
// the header).
func numEntries(p *page.Page) int {
	n := p.NumSlots() - 1
	if n < 0 {
		return 0
	}
	return n
}

// searchEntries binary-searches entries for key. It returns the slot of
// the first entry with entryKey >= key (possibly numEntries+1 == one past
// the last slot) and whether an exact match was found at that slot.
func searchEntries(p *page.Page, key []byte) (slot int, exact bool, err error) {
	lo, hi := 1, numEntries(p)+1 // slot range [1, n+1)
	for lo < hi {
		mid := (lo + hi) / 2
		k, err := entryKey(p, mid)
		if err != nil {
			return 0, false, err
		}
		switch bytes.Compare(k, key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true, nil
		default:
			hi = mid
		}
	}
	return lo, false, nil
}

// branchChildFor returns the child covering key within this internal node
// (not consulting the right sibling — callers handle move-right first).
func branchChildFor(p *page.Page, hdr nodeHeader, key []byte) (page.ID, error) {
	slot, exact, err := searchEntries(p, key)
	if err != nil {
		return 0, err
	}
	if exact {
		rec, err := p.Record(slot)
		if err != nil {
			return 0, err
		}
		_, child, err := decodeBranchEntry(rec)
		return child, err
	}
	if slot == 1 {
		if hdr.leftChild == 0 {
			return 0, fmt.Errorf("%w: branch without left child", ErrCorruptNode)
		}
		return hdr.leftChild, nil
	}
	rec, err := p.Record(slot - 1)
	if err != nil {
		return 0, err
	}
	_, child, err := decodeBranchEntry(rec)
	return child, err
}

// PageIsRoot reports whether a page.TypeBTree page holds a root node. The
// recovery pass uses it to rediscover index roots from page contents.
func PageIsRoot(p *page.Page) bool {
	hdr, err := readHeader(p)
	return err == nil && hdr.isRoot()
}

// needsMoveRight reports whether key lies beyond this node's key space.
func needsMoveRight(hdr nodeHeader, key []byte) bool {
	return hdr.highKey != nil && bytes.Compare(key, hdr.highKey) >= 0
}
