package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/page"
	"repro/internal/sync2"
)

// wideVal makes entries of ~120 bytes, so a leaf holds about 65 of them
// and a few thousand keys make a tree of three levels.
func wideVal(i int) []byte { return append(bytes.Repeat([]byte{'.'}, 100), val(i)...) }

// between returns the j-th of a run of keys that sort after key(i) and
// before key(i+1).
func between(i, j int) []byte { return []byte(fmt.Sprintf("%s-%04d", key(i), j)) }

// headerOf reads node pid's header (with its own copy of the high key).
func headerOf(t *testing.T, tr *Tree, pid page.ID) nodeHeader {
	t.Helper()
	f, err := tr.env.Fix(pid, sync2.LatchSH)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.env.Unfix(f, sync2.LatchSH)
	h, err := readHeader(f.Page())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// cursorTree builds a tree of n wide keys without a cursor and returns it
// with a cursor that has just looked up key(at).
func cursorTree(t *testing.T, a Access, n, at int) (*Tree, *Cursor) {
	t.Helper()
	tr, _ := newTestTree(t, 1024)
	for i := 0; i < n; i++ {
		if err := tr.Insert(a, nil, 1, key(i), wideVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := new(Cursor)
	if _, ok, err := tr.Search(a, c, key(at)); err != nil || !ok {
		t.Fatalf("Search(%s) = %v, %v", key(at), ok, err)
	}
	if c.at.leaf == 0 {
		t.Fatal("cursor remembers no leaf after a search")
	}
	return tr, c
}

// descents is every counter a walk from the root lands on.
func descents(s OLCSnapshot) uint64 {
	return s.LatchedDescents + s.OptDescents + s.OwnerDescents + s.OptLeafReads + s.OwnerReads
}

// TestCursorValidity puts a cursor into every kind of staleness and checks,
// under each policy, that an operation through it answers as one without
// it would, and that it was a hit exactly when the remembered leaf could
// prove it covers the key. All keys share their first eight bytes, so the
// cursor's private prefix filter passes everything and the proof under the
// latch (or on the validated copy) is what is being tested.
func TestCursorValidity(t *testing.T) {
	const n = 3000
	for _, p := range policies {
		a := p.a
		// step runs op and reports how the cursor fared.
		step := func(t *testing.T, tr *Tree, op func()) (hit, miss bool, walked uint64) {
			t.Helper()
			before := tr.stats.Snapshot()
			op()
			after := tr.stats.Snapshot()
			// A pin-free hit is also a leaf read; only walks count here.
			walked = descents(after) - descents(before)
			hit, miss = after.CursorHits > before.CursorHits, after.CursorMisses > before.CursorMisses
			if hit {
				walked -= (after.OptLeafReads + after.OwnerReads) - (before.OptLeafReads + before.OwnerReads)
			}
			return hit, miss, walked
		}
		mustFind := func(t *testing.T, tr *Tree, c *Cursor, k []byte, want []byte) func() {
			return func() {
				t.Helper()
				v, ok, err := tr.Search(a, c, k)
				if err != nil || !ok || !bytes.Equal(v, want) {
					t.Fatalf("Search(%s) = %q, %v, %v", k, v, ok, err)
				}
			}
		}

		t.Run(p.name+"/SameLeaf", func(t *testing.T) {
			tr, c := cursorTree(t, a, n, 300)
			leaf := c.at.leaf
			// Read, then write, the neighbouring key: both from the cursor.
			if hit, _, walked := step(t, tr, mustFind(t, tr, c, key(301), wideVal(301))); !hit || walked != 0 {
				t.Errorf("neighbour read: hit %v, %d walks", hit, walked)
			}
			hit, _, walked := step(t, tr, func() {
				if err := tr.Update(a, c, 1, key(301), wideVal(7)); err != nil {
					t.Fatal(err)
				}
			})
			if !hit || walked != 0 || c.at.leaf != leaf {
				t.Errorf("neighbour write: hit %v, %d walks, leaf %v -> %v", hit, walked, leaf, c.at.leaf)
			}
			mustFind(t, tr, nil, key(301), wideVal(7))()
		})

		t.Run(p.name+"/StaleAfterSplit", func(t *testing.T) {
			tr, c := cursorTree(t, a, n, 300)
			leaf := c.at.leaf
			// Someone else fills the gap below key(300) until its leaf
			// splits and key(300) is on the new right sibling.
			for j := 0; !needsMoveRight(headerOf(t, tr, leaf), key(300)); j++ {
				if err := tr.Insert(a, nil, 1, between(299, j), wideVal(j)); err != nil {
					t.Fatal(err)
				}
			}
			hit, _, walked := step(t, tr, mustFind(t, tr, c, key(300), wideVal(300)))
			if !hit || walked != 0 || c.at.leaf == leaf {
				t.Errorf("after a split: hit %v, %d walks, leaf %v -> %v; want a hit one step right", hit, walked, leaf, c.at.leaf)
			}
			// Many more splits: the key is further right than the cursor
			// will walk. It gives up and descends.
			for j := 0; j < 400; j++ {
				if err := tr.Insert(a, nil, 1, between(298, j), wideVal(j)); err != nil {
					t.Fatal(err)
				}
			}
			c.at.leaf = leaf
			if hit, miss, walked := step(t, tr, mustFind(t, tr, c, key(300), wideVal(300))); hit || !miss || walked == 0 {
				t.Errorf("after many splits: hit %v, miss %v, %d walks; want a miss and a descent", hit, miss, walked)
			}
			if _, err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
		})

		t.Run(p.name+"/LeftOrRightOfTheKey", func(t *testing.T) {
			tr, c := cursorTree(t, a, n, 1500)
			// Key far left of the remembered leaf: no entry at or below it
			// there, so no proof, so a descent.
			if hit, miss, walked := step(t, tr, mustFind(t, tr, c, key(5), wideVal(5))); hit || !miss || walked == 0 {
				t.Errorf("key left of the cursor: hit %v, miss %v, %d walks", hit, miss, walked)
			}
			// Now the cursor is on key(5)'s leaf and the key far right.
			if hit, miss, walked := step(t, tr, mustFind(t, tr, c, key(2900), wideVal(2900))); hit || !miss || walked == 0 {
				t.Errorf("key right of the cursor: hit %v, miss %v, %d walks", hit, miss, walked)
			}
			// A new key that belongs just below the remembered leaf's
			// first entry is the left neighbour's: the insert must not
			// land on the remembered leaf.
			first := 2900 // walk left to the first key of a leaf
			for leaf := c.at.leaf; ; first-- {
				mustFind(t, tr, c, key(first-1), wideVal(first-1))()
				if c.at.leaf != leaf {
					break
				}
			}
			mustFind(t, tr, c, key(first), wideVal(first))()
			// (The left neighbour is full, so the insert splits it and its
			// retry may well hit; what matters is that the first try did
			// not, and that the key ends up where a descent finds it.)
			_, miss, walked := step(t, tr, func() {
				if err := tr.Insert(a, c, 1, between(first-1, 0), wideVal(0)); err != nil {
					t.Fatal(err)
				}
			})
			if !miss || walked == 0 {
				t.Errorf("insert below the remembered leaf's first key: miss %v, %d walks; want a miss and a descent", miss, walked)
			}
			if _, err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			mustFind(t, tr, nil, between(first-1, 0), wideVal(0))()
		})

		t.Run(p.name+"/EmptiedLeaf", func(t *testing.T) {
			tr, c := cursorTree(t, a, n, 300)
			leaf := c.at.leaf
			// Delete everything on the remembered leaf.
			var doomed [][]byte
			hk := headerOf(t, tr, leaf).highKey
			if err := tr.Scan(a, key(300), hk, func(k, _ []byte) bool { doomed = append(doomed, k); return true }); err != nil {
				t.Fatal(err)
			}
			for i := 300; ; i-- {
				if _, err := tr.Delete(a, c, 1, key(i)); err != nil {
					t.Fatal(err)
				}
				if c.at.leaf != leaf {
					// key(i) was the left neighbour's; put it back.
					if err := tr.Insert(a, nil, 1, key(i), wideVal(i)); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			for _, k := range doomed[1:] {
				if _, err := tr.Delete(a, nil, 1, k); err != nil {
					t.Fatal(err)
				}
			}
			c.at.leaf = leaf
			hit, _, _ := step(t, tr, func() {
				if _, ok, err := tr.Search(a, c, key(300)); err != nil || ok {
					t.Fatalf("deleted key: %v, %v", ok, err)
				}
			})
			if hit {
				t.Error("an empty leaf proved that it covers a key")
			}
			c.at.leaf = leaf
			if err := tr.Insert(a, c, 1, key(300), wideVal(300)); err != nil {
				t.Fatal(err)
			}
			mustFind(t, tr, nil, key(300), wideVal(300))()
			if _, err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
		})

		t.Run(p.name+"/RootGrew", func(t *testing.T) {
			tr, c := cursorTree(t, a, 10, 3) // one leaf, the root
			if c.at.leaf != tr.Root() {
				t.Fatal("ten keys are not on the root")
			}
			for i := 10; i < 200; i++ {
				if err := tr.Insert(a, nil, 1, key(i), wideVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			if headerOf(t, tr, tr.Root()).isLeaf() {
				t.Fatal("root did not grow")
			}
			if hit, miss, _ := step(t, tr, mustFind(t, tr, c, key(3), wideVal(3))); hit || !miss {
				t.Errorf("remembered leaf is a branch now: hit %v, miss %v", hit, miss)
			}
			if err := tr.Update(a, c, 1, key(150), wideVal(1)); err != nil {
				t.Fatal(err)
			}
			mustFind(t, tr, c, key(150), wideVal(1))()
		})
	}
}

// TestCursorPrefixFilter: a key whose first eight bytes fall outside the
// remembered leaf's range goes to the root without the leaf being fixed.
func TestCursorPrefixFilter(t *testing.T) {
	tr, env := newTestTree(t, 1024)
	k := func(i int) []byte { return []byte(fmt.Sprintf("%08d", i)) } // the prefix is the key
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(Latched, nil, 1, k(i), wideVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := new(Cursor)
	if _, ok, _ := tr.Search(Latched, c, k(100)); !ok {
		t.Fatal("lost key")
	}
	depth := func(op func()) uint64 {
		b := env.pool.Stats()
		op()
		a := env.pool.Stats()
		return a.Hits + a.HotHits + a.Misses - b.Hits - b.HotHits - b.Misses
	}
	full := depth(func() { tr.Search(Latched, nil, k(2000)) })
	far := depth(func() { tr.Search(Latched, c, k(2000)) })
	if far != full {
		t.Errorf("far key with a cursor: %d fixes, without: %d; the filter should have skipped the remembered leaf", far, full)
	}
	if near := depth(func() { tr.Search(Latched, c, k(2001)) }); near != 1 {
		t.Errorf("neighbouring key with a cursor: %d fixes, want 1", near)
	}
	s := tr.stats.Snapshot()
	if s.CursorHits != 1 || s.CursorMisses != 1 {
		t.Errorf("%d hits, %d misses; want 1 and 1", s.CursorHits, s.CursorMisses)
	}
}

// leafFill walks the leaf chain left to right and returns the number of
// leaves and their mean fill (bytes in use over page size).
func leafFill(t *testing.T, tr *Tree) (leaves int, fill float64) {
	t.Helper()
	pid := tr.Root()
	for h := headerOf(t, tr, pid); !h.isLeaf(); h = headerOf(t, tr, pid) {
		pid = h.leftChild
	}
	used := 0
	for pid != 0 {
		f, err := tr.env.Fix(pid, sync2.LatchSH)
		if err != nil {
			t.Fatal(err)
		}
		h, err := peekHeader(f.Page())
		if err != nil {
			t.Fatal(err)
		}
		leaves++
		used += page.Size - f.Page().FreeSpace()
		pid = h.right
		tr.env.Unfix(f, sync2.LatchSH)
	}
	return leaves, float64(used) / float64(leaves*page.Size)
}

// groupKey is TPC-C's ORDER-LINE shape: a (warehouse, district) prefix,
// then an ascending order id and line number.
func groupKey(g, order, line int) []byte {
	return []byte{0, 0, 0, byte(1 + g/10), byte(1 + g%10), byte(order >> 16), byte(order >> 8), byte(order), byte(line)}
}

// TestSplitShapeAscendingGroups: interleaved ascending insert streams.
// Splitting in the middle leaves every leaf a stream has passed half empty
// for ever; splitting where the stream is inserting keeps them packed. The
// leaf remembers where its inserts run, so that holds with or without a
// cursor, and for a stream of one-key transactions (TPC-C's ORDERS and
// NEW-ORDER) as much as for ten keys per transaction (ORDER-LINE).
func TestSplitShapeAscendingGroups(t *testing.T) {
	const orders = 300
	for _, arm := range []struct {
		name          string
		groups, lines int
		cur           func() *Cursor
	}{
		{"ten keys per transaction, cursor", 20, 10, cursorModes[1].cur},
		{"ten keys per transaction, no cursor", 20, 10, cursorModes[0].cur},
		{"one key per transaction", 10, 1, cursorModes[1].cur},
	} {
		tr, _ := newTestTree(t, 4096)
		for o := 0; o < orders*10/arm.lines; o++ {
			for g := 0; g < arm.groups; g++ {
				c := arm.cur() // a transaction
				for l := 0; l < arm.lines; l++ {
					if err := tr.Insert(Latched, c, 1, groupKey(g, o, l), wideVal(o)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		want := arm.groups * orders * 10
		if n, err := tr.Verify(); err != nil || n != want {
			t.Fatalf("%s: Verify = %d, %v", arm.name, n, err)
		}
		if n, err := tr.CountViaScan(); err != nil || n != want {
			t.Fatalf("%s: scan reaches %d keys, %v", arm.name, n, err)
		}
		leaves, fill := leafFill(t, tr)
		s := tr.stats.Snapshot()
		t.Logf("%s: %d leaves %.1f%% full, %d insertion-point splits, %d image splits", arm.name, leaves, 100*fill, s.InsertPointSplits, s.ImageSplits)
		if fill < 0.90 {
			t.Errorf("%s: leaves are %.1f%% full, want at least 90%%", arm.name, 100*fill)
		}
		if s.InsertPointSplits == 0 {
			t.Errorf("%s: no split was counted as an insertion-point split", arm.name)
		}
	}
}

// TestSplitShapeRandomInserts: uniformly random inserts have no pattern,
// so they split in the middle as they always did and fill the same
// (ln 2, about 69 %, is the classic figure; this sequence gave 688
// leaves 68.7 % full before splits looked at the insertion point).
func TestSplitShapeRandomInserts(t *testing.T) {
	const n = 30000
	for _, m := range cursorModes {
		tr, _ := newTestTree(t, 4096)
		rng := rand.New(rand.NewSource(3))
		c := m.cur()
		for i, k := range rng.Perm(n) {
			if i%10 == 0 {
				c = m.cur()
			}
			if err := tr.Insert(Latched, c, 1, key(k), wideVal(k)); err != nil {
				t.Fatal(err)
			}
		}
		leaves, fill := leafFill(t, tr)
		s := tr.stats.Snapshot()
		t.Logf("%s: %d leaves %.1f%% full, %d insertion-point splits", m.name, leaves, 100*fill, s.InsertPointSplits)
		if fill < 0.657 || fill > 0.717 {
			t.Errorf("%s: random inserts fill leaves %.1f%%, want 68.7%% ± 3", m.name, 100*fill)
		}
	}
}

// TestEmptyLeafInChain: a split at the end of a leaf makes an empty right
// sibling for the pending insert; if that insert never arrives (or is
// deleted again) the empty leaf stays in the chain. Verify and Scan must
// take it in their stride, whether the range starts before, inside or
// after it.
func TestEmptyLeafInChain(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	c := new(Cursor)
	// Two groups; group 0's inserts split at the end of its last leaf.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(Latched, c, 1, groupKey(1, i, 0), wideVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	last := 0
	for before := tr.stats.Snapshot().InsertPointSplits; tr.stats.Snapshot().InsertPointSplits < before+2; last++ {
		if err := tr.Insert(Latched, c, 1, groupKey(0, last, 0), wideVal(last)); err != nil {
			t.Fatal(err)
		}
	}
	last--
	// The last insert went alone into a fresh leaf; take it out again.
	if _, err := tr.Delete(Latched, c, 1, groupKey(0, last, 0)); err != nil {
		t.Fatal(err)
	}
	if f, err := tr.env.Fix(c.at.leaf, sync2.LatchSH); err != nil {
		t.Fatal(err)
	} else {
		n := numEntries(f.Page())
		tr.env.Unfix(f, sync2.LatchSH)
		if n != 0 {
			t.Fatalf("the leaf of the deleted key still has %d entries; the test wants it empty", n)
		}
	}
	want := 100 + last
	if n, err := tr.Verify(); err != nil || n != want {
		t.Fatalf("Verify = %d, %v; want %d", n, err, want)
	}
	if n, err := tr.CountViaScan(); err != nil || n != want {
		t.Fatalf("full scan reaches %d keys, %v; want %d", n, err, want)
	}
	for _, from := range [][]byte{groupKey(0, last-3, 0), groupKey(0, last, 0), groupKey(0, last+5, 0)} {
		var got [][]byte
		if err := tr.Scan(Latched, from, groupKey(1, 2, 0), func(k, _ []byte) bool { got = append(got, k); return true }); err != nil {
			t.Fatal(err)
		}
		wantN := 2
		if bytes.Compare(from, groupKey(0, last, 0)) < 0 {
			wantN += 3
		}
		if len(got) != wantN || !bytes.Equal(got[len(got)-1], groupKey(1, 1, 0)) {
			t.Errorf("scan from %x across the empty leaf: %d keys ending %x, want %d ending %x", from, len(got), got[len(got)-1], wantN, groupKey(1, 1, 0))
		}
	}
	// And the empty leaf takes the next insert of its range.
	if err := tr.Insert(Latched, new(Cursor), 1, groupKey(0, last, 0), wideVal(last)); err != nil {
		t.Fatal(err)
	}
	if n, err := tr.Verify(); err != nil || n != want+1 {
		t.Fatalf("Verify = %d, %v; want %d", n, err, want+1)
	}
}
