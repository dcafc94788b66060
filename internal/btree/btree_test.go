package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/space"
	"repro/internal/sync2"
)

// fakeEnv implements Env over a real buffer pool and space manager, with
// logging replaced by direct application (LSN = counter).
type fakeEnv struct {
	pool *buffer.Pool
	sm   *space.Manager
	lsn  atomic.Uint64
}

func newFakeEnv(tb testing.TB, frames int) *fakeEnv {
	tb.Helper()
	vol := disk.NewMem(0)
	sm := space.NewManager(vol, space.Options{
		Mutex: sync2.KindMCS, ExtentCache: true, LastPageCache: true,
	})
	pool := buffer.New(vol, buffer.Options{
		Frames: frames, Table: buffer.TableCuckoo, AtomicPin: true,
		TransitPartitions: 128, TransitBypass: true, ClockHandRelease: true,
	})
	tb.Cleanup(func() { pool.Close() })
	return &fakeEnv{pool: pool, sm: sm}
}

func (e *fakeEnv) Fix(pid page.ID, mode sync2.LatchMode) (*buffer.Frame, error) {
	return e.pool.Fix(pid, mode)
}
func (e *fakeEnv) FixNew(pid page.ID) (*buffer.Frame, error) { return e.pool.FixNew(pid) }
func (e *fakeEnv) Unfix(f *buffer.Frame, mode sync2.LatchMode) {
	e.pool.Unfix(f, mode)
}
func (e *fakeEnv) AllocPage(store uint32) (page.ID, error) {
	return e.sm.AllocPage(store, nil)
}

// testTxn is the transaction the tests log their mutations for; the fake
// environment ignores it.
type testTxn uint64

func (t testTxn) ID() uint64 { return uint64(t) }

const tx1 testTxn = 1

func (e *fakeEnv) Log(t Txn, f *buffer.Frame, op pageop.Op, undo pageop.Logical) error {
	if err := pageop.Apply(f.Page(), op); err != nil {
		return fmt.Errorf("apply %v: %w", op.Kind, err)
	}
	lsn := e.lsn.Add(1)
	f.Page().SetLSN(lsn)
	f.MarkDirty(1) // wal.LSN not needed for fake
	return nil
}

// newTestTree builds an empty tree over the fake env's real buffer pool,
// which also serves as its OptEnv, with counters of its own.
func newTestTree(tb testing.TB, frames int) (*Tree, *fakeEnv) {
	tb.Helper()
	env := newFakeEnv(tb, frames)
	store := env.sm.CreateStore(space.KindBTree)
	tr, err := Create(env, env.pool, new(OLCStats), tx1, store)
	if err != nil {
		tb.Fatal(err)
	}
	return tr, env
}

// policies is the table every policy-parameterised test runs over.
var policies = []struct {
	name string
	a    Access
}{{"latched", Latched}, {"optimistic", Optimistic}, {"owner", Owner}}

// cursorModes is the other axis: no cursor (every operation walks from
// the root), or one fresh cursor per goroutine, the way a transaction
// carries one.
var cursorModes = []struct {
	name string
	cur  func() *Cursor
}{
	{"nocursor", func() *Cursor { return nil }},
	{"cursor", func() *Cursor { return new(Cursor) }},
}

// TestPolicies runs one insert / search / scan / update / delete / split
// script, and the concurrent stresses, under each access policy with and
// without a cursor, then checks that the policy's own counters recorded
// the work and nobody else's moved.
func TestPolicies(t *testing.T) {
	script := []struct {
		name string
		run  func(*testing.T, Access, func() *Cursor) *Tree
	}{
		{"InsertSearchSmall", testInsertSearchSmall},
		{"SplitsManyKeysSequential", testSplitsManyKeysSequential},
		{"SplitsRandomOrder", testSplitsRandomOrder},
		{"ScanOrderedAndBounded", testScanOrderedAndBounded},
		{"UpdateValues", testUpdateValues},
		{"DeleteAndReinsert", testDeleteAndReinsert},
		{"ConcurrentInsertDisjointRanges", testConcurrentInsertDisjointRanges},
		{"ConcurrentReadersAndWriters", testConcurrentReadersAndWriters},
		{"EvictionChurn", testEvictionChurn},
	}
	for _, p := range policies {
		for _, m := range cursorModes {
			t.Run(p.name+"/"+m.name, func(t *testing.T) {
				for _, step := range script {
					t.Run(step.name, func(t *testing.T) {
						tr := step.run(t, p.a, m.cur)
						if t.Failed() {
							return
						}
						if _, err := tr.Verify(); err != nil {
							t.Fatalf("Verify: %v", err)
						}
						s := tr.stats.Snapshot()
						checkPolicyCounters(t, p.a, s)
						if used := m.cur() != nil; used != (s.CursorHits > 0) || !used && s.CursorMisses > 0 {
							t.Errorf("cursor %v: %d hits, %d misses", used, s.CursorHits, s.CursorMisses)
						}
					})
				}
			})
		}
	}
}

// checkPolicyCounters asserts that work done under a landed on a's
// counters only: the other speculative policy's stay at zero, Latched
// never speculates (its only restart is a descent that found the root
// leaf grown into a branch under its feet), and a speculative policy
// reaches the latched descent only through a counted fallback. Cursor
// hits are in none of these counters, so none of this depends on whether
// a cursor was in use.
func checkPolicyCounters(t *testing.T, a Access, s OLCSnapshot) {
	t.Helper()
	opt := s.OptDescents + s.OptLeafReads + s.Fallbacks
	owner := s.OwnerDescents + s.OwnerWrites + s.OwnerReads + s.OwnerScans + s.OwnerFallbacks
	switch a {
	case Latched:
		if s.LatchedDescents == 0 || opt+owner != 0 {
			t.Errorf("latched: counters %+v", s)
		}
	case Optimistic:
		if s.OptDescents == 0 || s.OptLeafReads == 0 || owner != 0 {
			t.Errorf("optimistic: counters %+v", s)
		}
	case Owner:
		if s.OwnerDescents == 0 || s.OwnerReads == 0 || s.OwnerWrites != s.OwnerDescents || opt != 0 {
			t.Errorf("owner: counters %+v", s)
		}
	}
	// A viewLeaf fallback is one latched descent; a descend fallback is
	// one too. The root-leaf restart of a Latched descent adds none.
	if a != Latched && s.LatchedDescents != s.Fallbacks+s.OwnerFallbacks {
		t.Errorf("%d latched descents, but %d fallbacks", s.LatchedDescents, s.Fallbacks+s.OwnerFallbacks)
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func testInsertSearchSmall(t *testing.T, a Access, cur func() *Cursor) *Tree {
	c := cur()
	tr, _ := newTestTree(t, 64)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(a, c, tx1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		v, ok, err := tr.Search(a, c, key(i))
		if err != nil || !ok {
			t.Fatalf("Search(%s) = %v, %v", key(i), ok, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("Search(%s) = %q, want %q", key(i), v, val(i))
		}
	}
	if _, ok, err := tr.Search(a, c, []byte("missing")); err != nil || ok {
		t.Fatalf("missing key found: %v %v", ok, err)
	}
	return tr
}

func TestDuplicateKeyRejected(t *testing.T) {
	tr, _ := newTestTree(t, 64)
	const a = Latched
	if err := tr.Insert(a, nil, tx1, key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(a, nil, tx1, key(1), val(2)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert = %v", err)
	}
}

func TestKeyValueLimits(t *testing.T) {
	tr, _ := newTestTree(t, 64)
	const a = Latched
	if err := tr.Insert(a, nil, tx1, nil, val(1)); !errors.Is(err, ErrKeyTooLarge) {
		t.Errorf("empty key = %v", err)
	}
	if err := tr.Insert(a, nil, tx1, make([]byte, MaxKeySize+1), val(1)); !errors.Is(err, ErrKeyTooLarge) {
		t.Errorf("big key = %v", err)
	}
	if err := tr.Insert(a, nil, tx1, key(1), make([]byte, MaxValueSize+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("big value = %v", err)
	}
	// Max-size boundary accepted.
	if err := tr.Insert(a, nil, tx1, bytes.Repeat([]byte("k"), MaxKeySize), make([]byte, MaxValueSize)); err != nil {
		t.Errorf("boundary KV = %v", err)
	}
}

func testSplitsManyKeysSequential(t *testing.T, a Access, cur func() *Cursor) *Tree {
	c := cur()
	tr, _ := newTestTree(t, 256)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(a, c, tx1, key(i), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := tr.Search(a, c, key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Search(%d) = %q,%v,%v", i, v, ok, err)
		}
	}
	// Misses below, above and between the keys of a multi-level tree.
	for _, miss := range []string{"key", "zzz", "key00000007x"} {
		if _, ok, err := tr.Search(a, c, []byte(miss)); err != nil || ok {
			t.Fatalf("Search(%q) = %v, %v; want miss", miss, ok, err)
		}
	}
	// The tree must have grown beyond one level: root is a branch.
	f, err := tr.env.Fix(tr.Root(), sync2.LatchSH)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := readHeader(f.Page())
	tr.env.Unfix(f, sync2.LatchSH)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.isLeaf() || hdr.level == 0 {
		t.Fatal("root still a leaf after 5000 inserts")
	}
	return tr
}

func testSplitsRandomOrder(t *testing.T, a Access, cur func() *Cursor) *Tree {
	c := cur()
	tr, _ := newTestTree(t, 256)
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(3000)
	for _, i := range perm {
		if err := tr.Insert(a, c, tx1, key(i), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 3000; i++ {
		v, ok, err := tr.Search(a, c, key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Search(%d) = %q,%v,%v", i, v, ok, err)
		}
	}
	return tr
}

func testScanOrderedAndBounded(t *testing.T, a Access, cur func() *Cursor) *Tree {
	c := cur()
	tr, _ := newTestTree(t, 256)
	rng := rand.New(rand.NewSource(7))
	for _, i := range rng.Perm(2000) {
		if err := tr.Insert(a, c, tx1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Full scan: ordered, complete.
	var prev []byte
	count := 0
	err := tr.Scan(a, nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Errorf("scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2000 {
		t.Fatalf("full scan visited %d, want 2000", count)
	}
	// Bounded scan [key100, key200).
	count = 0
	err = tr.Scan(a, key(100), key(200), func(k, v []byte) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("bounded scan visited %d, want 100", count)
	}
	// Early termination.
	count = 0
	if err := tr.Scan(a, nil, nil, func(k, v []byte) bool { count++; return count < 5 }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early-stop scan visited %d", count)
	}
	return tr
}

func testUpdateValues(t *testing.T, a Access, cur func() *Cursor) *Tree {
	c := cur()
	tr, _ := newTestTree(t, 64)
	if err := tr.Insert(a, c, tx1, key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(a, c, tx1, key(1), []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tr.Search(a, c, key(1))
	if !ok || string(v) != "new-value" {
		t.Fatalf("after update: %q, %v", v, ok)
	}
	if err := tr.Update(a, c, tx1, key(2), val(2)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("update missing = %v", err)
	}
	// Grow the value beyond the original size repeatedly.
	for size := 10; size <= 1000; size *= 10 {
		nv := bytes.Repeat([]byte("x"), size)
		if err := tr.Update(a, c, tx1, key(1), nv); err != nil {
			t.Fatalf("grow to %d: %v", size, err)
		}
		v, _, _ := tr.Search(a, c, key(1))
		if !bytes.Equal(v, nv) {
			t.Fatalf("grow to %d lost data", size)
		}
	}
	return tr
}

func testDeleteAndReinsert(t *testing.T, a Access, cur func() *Cursor) *Tree {
	c := cur()
	tr, _ := newTestTree(t, 256)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(a, c, tx1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete the even keys.
	for i := 0; i < 500; i += 2 {
		old, err := tr.Delete(a, c, tx1, key(i))
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if !bytes.Equal(old, val(i)) {
			t.Fatalf("delete %d returned %q", i, old)
		}
	}
	if _, err := tr.Delete(a, c, tx1, key(0)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete = %v", err)
	}
	for i := 0; i < 500; i++ {
		_, ok, err := tr.Search(a, c, key(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 1; ok != want {
			t.Fatalf("after deletes Search(%d) = %v, want %v", i, ok, want)
		}
	}
	// Re-insert the deleted keys.
	for i := 0; i < 500; i += 2 {
		if err := tr.Insert(a, c, tx1, key(i), val(i+1000)); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	for i := 0; i < 500; i += 2 {
		v, ok, _ := tr.Search(a, c, key(i))
		if !ok || !bytes.Equal(v, val(i+1000)) {
			t.Fatalf("reinserted %d = %q,%v", i, v, ok)
		}
	}
	return tr
}

func testConcurrentInsertDisjointRanges(t *testing.T, a Access, cur func() *Cursor) *Tree {
	tr, _ := newTestTree(t, 512)
	const g, n = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cur() // one per goroutine, like one per transaction
			for i := 0; i < n; i++ {
				if err := tr.Insert(a, c, tx1, key(w*n+i), val(w*n+i)); err != nil {
					t.Errorf("insert %d: %v", w*n+i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	count := 0
	var prev []byte
	if err := tr.Scan(a, nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Errorf("out of order after concurrent inserts")
			return false
		}
		prev = append(prev[:0], k...)
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != g*n {
		t.Fatalf("scan found %d keys, want %d", count, g*n)
	}
	return tr
}

// testConcurrentReadersAndWriters races point probes against inserts that
// split leaves and inner nodes: every present key must be found with its
// exact value (values are immutable once inserted, so a torn read would
// surface as a mismatch), during the churn and after it.
func testConcurrentReadersAndWriters(t *testing.T, a Access, cur func() *Cursor) *Tree {
	tr, _ := newTestTree(t, 512)
	const warm, extra = 1000, 1500
	c := cur()
	for i := 0; i < warm; i++ {
		if err := tr.Insert(a, c, tx1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// The writer extends the key space (forcing splits), then stops the
	// readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		c := cur()
		for i := warm; i < warm+extra; i++ {
			if err := tr.Insert(a, c, tx1, key(i), val(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Readers hammer the stable prefix.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cur()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(warm)
				v, ok, err := tr.Search(a, c, key(i))
				if err != nil || !ok || !bytes.Equal(v, val(i)) {
					t.Errorf("reader: Search(%d) = %q,%v,%v", i, v, ok, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for i := 0; i < warm+extra; i++ {
		v, ok, err := tr.Search(a, c, key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("after inserts Search(%d) = %q,%v,%v", i, v, ok, err)
		}
	}
	return tr
}

// TestQuickTreeMatchesMap property-tests the tree against a map reference
// under random operation sequences, each run with and without a cursor.
func TestQuickTreeMatchesMap(t *testing.T) {
	run := 0
	matches := func(a Access, c *Cursor, ops []uint16) bool {
		tr, _ := newTestTree(t, 256)
		ref := map[string]string{}
		for _, op := range ops {
			k := string(key(int(op % 200)))
			v := string(val(int(op)))
			switch op % 4 {
			case 0:
				err := tr.Insert(a, c, tx1, []byte(k), []byte(v))
				if _, dup := ref[k]; dup {
					if !errors.Is(err, ErrDuplicateKey) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					ref[k] = v
				}
			case 1:
				_, err := tr.Delete(a, c, tx1, []byte(k))
				if _, present := ref[k]; present {
					if err != nil {
						return false
					}
					delete(ref, k)
				} else if !errors.Is(err, ErrKeyNotFound) {
					return false
				}
			case 2:
				err := tr.Update(a, c, tx1, []byte(k), []byte(v))
				if _, present := ref[k]; present {
					if err != nil {
						return false
					}
					ref[k] = v
				} else if !errors.Is(err, ErrKeyNotFound) {
					return false
				}
			case 3:
				got, ok, err := tr.Search(a, c, []byte(k))
				if want, present := ref[k]; err != nil || ok != present || string(got) != want {
					return false
				}
			}
		}
		for k, v := range ref {
			got, ok, err := tr.Search(a, c, []byte(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		n, err := tr.Verify()
		return err == nil && n == len(ref)
	}
	f := func(ops []uint16) bool {
		a := policies[run%len(policies)].a // rotate the policy across sequences
		run++
		return matches(a, nil, ops) && matches(a, new(Cursor), ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := nodeHeader{flags: flagLeaf | flagRoot, level: 3, right: 77, leftChild: 88, highKey: []byte("hk")}
	got, err := decodeHeader(h.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.flags != h.flags || got.level != 3 || got.right != 77 || got.leftChild != 88 || !bytes.Equal(got.highKey, []byte("hk")) {
		t.Fatalf("header round trip: %+v", got)
	}
	if _, err := decodeHeader([]byte{1}); err == nil {
		t.Error("short header decoded")
	}
	// nil high key survives.
	h2 := nodeHeader{flags: flagLeaf}
	got2, _ := decodeHeader(h2.encode())
	if got2.highKey != nil {
		t.Error("nil high key became non-nil")
	}
}

// undoRecorder keeps a private copy of the last logical undo the tree
// logged (its Value aliases the page until Log returns).
type undoRecorder struct {
	*fakeEnv
	last pageop.Logical
	op   pageop.Op
}

func (e *undoRecorder) Log(t Txn, f *buffer.Frame, op pageop.Op, undo pageop.Logical) error {
	e.op, e.last = op, undo
	e.last.Value = append([]byte(nil), undo.Value...)
	return e.fakeEnv.Log(t, f, op, undo)
}

// TestUpdateUndoMayRunTwice: an update logs only the range that differs,
// and the action of its logical undo — what rollback runs, and runs again
// when a crash fell between the action and its CLR — restores the old
// value from that range whether it meets the new value or the old one.
func TestUpdateUndoMayRunTwice(t *testing.T) {
	env := &undoRecorder{fakeEnv: newFakeEnv(t, 64)}
	tr, err := Create(env, env.pool, new(OLCStats), tx1, env.sm.CreateStore(space.KindBTree))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("the-key")
	if err := tr.Insert(Latched, nil, tx1, key, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	value := func() []byte {
		v, _, err := tr.Search(Latched, nil, key)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 500; round++ {
		old := value()
		upd := append([]byte(nil), old...)
		switch rng.Intn(3) {
		case 0: // equal length
			if len(upd) > 0 {
				upd[rng.Intn(len(upd))] ^= 0x55
			}
		case 1: // grows in the middle
			i := rng.Intn(len(upd) + 1)
			upd = append(upd[:i:i], append(bytes.Repeat([]byte{byte(round)}, 1+rng.Intn(40)), old[i:]...)...)
		default: // shrinks
			i := rng.Intn(len(upd) + 1)
			upd = append(upd[:i:i], old[i+rng.Intn(len(old)-i+1):]...)
		}
		if len(upd) > 600 {
			upd = upd[:100]
		}
		if err := tr.Update(Latched, nil, tx1, key, upd); err != nil {
			t.Fatal(err)
		}
		u := env.last
		if got := len(u.Value) + len(env.op.Data); got > len(old)+len(upd) || int(u.Off)+int(u.Suf)+len(u.Value) != len(old) {
			t.Fatalf("round %d: undo keeps %d+%d and carries %d bytes of a %d-byte value", round, u.Off, u.Suf, len(u.Value), len(old))
		}
		if !bytes.Equal(value(), upd) {
			t.Fatalf("round %d: update did not land", round)
		}
		if rng.Intn(2) == 0 {
			continue // keep the new value, go on from there
		}
		for run := 1; run <= 2; run++ {
			if err := tr.UpdateNoUndo(Latched, tx1, key, int(u.Off), int(u.Suf), u.Value); err != nil {
				t.Fatal(err)
			}
			if got := value(); !bytes.Equal(got, old) {
				t.Fatalf("round %d, undo run %d: %q, want %q", round, run, got, old)
			}
		}
	}
	if err := tr.UpdateNoUndo(Latched, tx1, key, 400, 400, nil); err == nil {
		t.Error("an undo range larger than the value was accepted")
	}
}

// TestUpdateFitsWhatThePageTakes: a growing update splits only when the
// page cannot take it the way Apply would, compacting if it must. The root
// leaf is filled, one value shrinks (leaving dead bytes in the record
// heap), and another grows by exactly what the gap and the dead bytes hold
// together: the update must go in place, the root stay one leaf.
func TestUpdateFitsWhatThePageTakes(t *testing.T) {
	tr, _ := newTestTree(t, 64)
	value := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	freeSpace := func() int {
		f, err := tr.env.Fix(tr.root, sync2.LatchSH)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.env.Unfix(f, sync2.LatchSH)
		return f.Page().FreeSpace()
	}
	n := 0
	for ; freeSpace() > 200; n++ {
		if err := tr.Insert(Latched, nil, tx1, key(n), value('v', 100)); err != nil {
			t.Fatal(err)
		}
	}
	const dead = 30
	if err := tr.Update(Latched, nil, tx1, key(0), value('v', 100-dead)); err != nil {
		t.Fatal(err)
	}
	grow := freeSpace() + dead
	if err := tr.Update(Latched, nil, tx1, key(1), value('v', 100+grow)); err != nil {
		t.Fatal(err)
	}
	if h := headerOf(t, tr, tr.root); !h.isLeaf() {
		t.Fatalf("an update growing by the %d bytes the leaf has free (%d of them dead) split it", grow, dead)
	}
	if got, ok, err := tr.Search(Latched, nil, key(1)); err != nil || !ok || !bytes.Equal(got, value('v', 100+grow)) {
		t.Fatalf("after the update: %d bytes, %v, %v", len(got), ok, err)
	}
	if free := freeSpace(); free != 0 {
		t.Fatalf("after the update the leaf has %d bytes free, want 0", free)
	}
	if got, err := tr.Verify(); err != nil || got != n {
		t.Fatalf("Verify = %d, %v; want %d", got, err, n)
	}
	// One byte more than the page takes still splits.
	if err := tr.Update(Latched, nil, tx1, key(2), value('v', 101)); err != nil {
		t.Fatal(err)
	}
	if h := headerOf(t, tr, tr.root); h.isLeaf() {
		t.Fatal("an update the leaf cannot take did not split it")
	}
	if got, err := tr.Verify(); err != nil || got != n {
		t.Fatalf("Verify after the split = %d, %v; want %d", got, err, n)
	}
}
