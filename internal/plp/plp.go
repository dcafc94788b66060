// Package plp holds the partition map behind physiological partitioning
// (PLP): the assignment of routing keys to DORA partitions, and the
// per-routing-key B-tree segment roots of every partitioned index.
//
// Each routing key (a TPC-C warehouse) gets its own segment tree per
// partitioned index, fixed at index creation; the map assigns contiguous
// routing-key ranges to partitions through a bounds array, an even split
// fixed while the engine is open. Routing a key to its segment never
// needs the ownership assignment, so a reopen with a different partition
// count (Repartition) rewrites the bounds and moves no key between trees.
//
// A Map value is immutable after construction; mutations return a new
// Map (WithTable, Repartition), so the engine publishes it through an
// atomic pointer and readers need no lock.
package plp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// ErrCorrupt reports an undecodable serialized map.
var ErrCorrupt = errors.New("plp: corrupt partition map")

// magic versions the serialized form.
const magic = "PLP1"

// Map is one immutable version of the partition map.
type Map struct {
	keys    int                 // routing keyspace size; routing keys are 1..keys
	bounds  []uint32            // len parts+1; partition p owns keys [bounds[p], bounds[p+1])
	version uint64              // bumped by every ownership change
	tables  map[uint32][]uint64 // store → segment root pages, indexed by routing key - 1
}

// New builds the initial map: keys routing keys split evenly (contiguous
// ranges) across parts partitions, version 1, no tables registered.
func New(keys, parts int) *Map {
	if parts > keys {
		parts = keys
	}
	if parts < 1 {
		parts = 1
	}
	bounds := evenBounds(keys, parts)
	return &Map{keys: keys, bounds: bounds, version: 1, tables: map[uint32][]uint64{}}
}

// evenBounds splits [1, keys+1) into parts contiguous ranges.
func evenBounds(keys, parts int) []uint32 {
	bounds := make([]uint32, parts+1)
	for p := 0; p <= parts; p++ {
		bounds[p] = uint32(1 + p*keys/parts)
	}
	return bounds
}

// Keys returns the routing keyspace size.
func (m *Map) Keys() int { return m.keys }

// Parts returns the partition count.
func (m *Map) Parts() int { return len(m.bounds) - 1 }

// Version returns the map version (bumped by every ownership change).
func (m *Map) Version() uint64 { return m.version }

// Owner returns the partition owning routing key rk. Out-of-range keys
// clamp to the nearest partition, so a router built on Owner is total.
func (m *Map) Owner(rk uint32) int {
	if rk < m.bounds[0] {
		return 0
	}
	// First partition whose range starts above rk, minus one.
	p := sort.Search(m.Parts(), func(i int) bool { return m.bounds[i+1] > rk })
	if p >= m.Parts() {
		return m.Parts() - 1
	}
	return p
}

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
// segment root per routing key). Registration does not bump the version:
// it changes the catalog, not ownership.
func (m *Map) WithTable(store uint32, roots []uint64) (*Map, error) {
	if len(roots) != m.keys {
		return nil, fmt.Errorf("plp: store %d registered %d segment roots, keyspace is %d", store, len(roots), m.keys)
	}
	n := m.clone()
	n.tables[store] = append([]uint64(nil), roots...)
	return n, nil
}

// Repartition returns a copy of m redistributed evenly over parts
// partitions (used when an engine reopens with a different partition
// count than the persisted map), with a bumped version.
func (m *Map) Repartition(parts int) *Map {
	if parts > m.keys {
		parts = m.keys
	}
	if parts < 1 {
		parts = 1
	}
	n := m.clone()
	n.bounds = evenBounds(m.keys, parts)
	n.version++
	return n
}

// clone copies m (deep enough that the copy's maps/slices are private).
func (m *Map) clone() *Map {
	n := &Map{
		keys:    m.keys,
		bounds:  append([]uint32(nil), m.bounds...),
		version: m.version,
		tables:  make(map[uint32][]uint64, len(m.tables)),
	}
	for s, roots := range m.tables {
		n.tables[s] = append([]uint64(nil), roots...)
	}
	return n
}

// Encode serializes the map deterministically (tables sorted by store),
// so byte-identical recovery is testable by comparison.
func (m *Map) Encode() []byte {
	size := 4 + 8 + 4 + 4 + 4*len(m.bounds) + 4
	for range m.tables {
		size += 4 + 8*m.keys
	}
	out := make([]byte, 0, size)
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint64(out, m.version)
	out = binary.BigEndian.AppendUint32(out, uint32(m.keys))
	out = binary.BigEndian.AppendUint32(out, uint32(m.Parts()))
	for _, b := range m.bounds {
		out = binary.BigEndian.AppendUint32(out, b)
	}
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
	version := r.u64()
	keys := int64(r.u32())
	parts := int64(r.u32())
	if r.err || keys <= 0 || parts <= 0 || parts > keys {
		return nil, fmt.Errorf("%w: keys=%d parts=%d", ErrCorrupt, keys, parts)
	}
	// Size every allocation by the bytes actually present, so a corrupt
	// count cannot ask for gigabytes.
	if r.left() < 4*(parts+1)+4 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	bounds := make([]uint32, parts+1)
	for i := range bounds {
		bounds[i] = r.u32()
	}
	if bounds[0] != 1 || bounds[parts] != uint32(keys+1) {
		return nil, fmt.Errorf("%w: bounds %v do not cover keyspace 1..%d", ErrCorrupt, bounds, keys)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return nil, fmt.Errorf("%w: bounds %v not monotonic", ErrCorrupt, bounds)
		}
	}
	ntables := int64(r.u32())
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
	return &Map{keys: int(keys), bounds: bounds, version: version, tables: tables}, nil
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
