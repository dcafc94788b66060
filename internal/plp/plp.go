// Package plp holds the segment catalog behind physiological partitioning
// (PLP): the routing keyspace size and the per-routing-key B-tree segment
// roots of every partitioned index.
//
// Each routing key (a TPC-C warehouse) gets its own segment tree per
// partitioned index, fixed at index creation. Which DORA partition owns a
// routing key is not recorded here: dora.Executor.Route computes it, and
// routing a key to its segment never needs the owner, so a reopen with a
// different partition count rewrites nothing and moves no key between
// trees.
//
// A Map value is immutable after construction; WithTable returns a new
// Map, so the engine publishes it through an atomic pointer and readers
// need no lock.
package plp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sort"
)

// ErrCorrupt reports an undecodable serialized catalog.
var ErrCorrupt = errors.New("plp: corrupt segment catalog")

// magic versions the serialized form. PLP1, which also carried ownership
// bounds and a map version, is refused.
const magic = "PLP2"

// Map is one immutable version of the segment catalog.
type Map struct {
	keys   int                 // routing keyspace size; routing keys are 1..keys
	tables map[uint32][]uint64 // store → segment root pages, indexed by routing key - 1
}

// New builds an empty catalog over keys routing keys.
func New(keys int) *Map {
	return &Map{keys: keys, tables: map[uint32][]uint64{}}
}

// Keys returns the routing keyspace size.
func (m *Map) Keys() int { return m.keys }

// Tables returns the registered partitioned stores, sorted.
func (m *Map) Tables() []uint32 {
	out := make([]uint32, 0, len(m.tables))
	for s := range m.tables {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Roots returns store's segment roots (indexed by routing key - 1), or
// nil when store is not a partitioned index.
func (m *Map) Roots(store uint32) []uint64 { return m.tables[store] }

// WithTable returns a copy of m with store registered to roots (one
// segment root per routing key).
func (m *Map) WithTable(store uint32, roots []uint64) (*Map, error) {
	if len(roots) != m.keys {
		return nil, fmt.Errorf("plp: store %d registered %d segment roots, keyspace is %d", store, len(roots), m.keys)
	}
	// Root slices are never written after registration, so the copy
	// shares them.
	n := &Map{keys: m.keys, tables: maps.Clone(m.tables)}
	n.tables[store] = append([]uint64(nil), roots...)
	return n, nil
}

// Encode serializes the map deterministically (tables sorted by store),
// so byte-identical recovery is testable by comparison.
func (m *Map) Encode() []byte {
	out := make([]byte, 0, 4+4+4+len(m.tables)*(4+8*m.keys))
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint32(out, uint32(m.keys))
	stores := m.Tables()
	out = binary.BigEndian.AppendUint32(out, uint32(len(stores)))
	for _, s := range stores {
		out = binary.BigEndian.AppendUint32(out, s)
		for _, r := range m.tables[s] {
			out = binary.BigEndian.AppendUint64(out, r)
		}
	}
	return out
}

// Decode parses a serialized map.
func Decode(data []byte) (*Map, error) {
	r := reader{data: data}
	if string(r.bytes(4)) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	keys := int64(r.u32())
	ntables := int64(r.u32())
	if r.err || keys <= 0 {
		return nil, fmt.Errorf("%w: keys=%d", ErrCorrupt, keys)
	}
	// Size every allocation by the bytes actually present, so a corrupt
	// count cannot ask for gigabytes.
	size := 4 + 8*keys // one table: store id, then a root per key
	if ntables > r.left()/size || ntables*size != r.left() {
		return nil, fmt.Errorf("%w: %d table bytes for %d tables of %d keys", ErrCorrupt, r.left(), ntables, keys)
	}
	tables := make(map[uint32][]uint64, ntables)
	for i := int64(0); i < ntables; i++ {
		store := r.u32()
		if _, dup := tables[store]; dup {
			return nil, fmt.Errorf("%w: store %d registered twice", ErrCorrupt, store)
		}
		roots := make([]uint64, keys)
		for j := range roots {
			roots[j] = r.u64()
		}
		tables[store] = roots
	}
	return &Map{keys: int(keys), tables: tables}, nil
}

// reader is a bounds-checked big-endian cursor.
type reader struct {
	data []byte
	off  int
	err  bool
}

func (r *reader) bytes(n int) []byte {
	if r.off+n > len(r.data) {
		r.err = true
		return make([]byte, n)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// left returns the unread byte count.
func (r *reader) left() int64 { return int64(len(r.data) - r.off) }

func (r *reader) u32() uint32 { return binary.BigEndian.Uint32(r.bytes(4)) }
func (r *reader) u64() uint64 { return binary.BigEndian.Uint64(r.bytes(8)) }
