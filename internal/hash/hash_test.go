package hash

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sync2"
)

func TestUniversalDistribution(t *testing.T) {
	// Sequential keys must spread across buckets reasonably evenly.
	u := NewCombined(42)
	const buckets = 64
	counts := make([]int, buckets)
	const n = 64 * 1000
	for i := uint64(0); i < n; i++ {
		counts[u.Hash(i)%buckets]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d: count %d far from expected %d", b, c, want)
		}
	}
}

func TestCombinedSubIndependence(t *testing.T) {
	c := NewCombined(7)
	// The three constituent hashes of the same key must rarely agree in
	// their low bits (else cuckoo candidate slots collapse).
	same := 0
	const n = 10000
	for i := uint64(0); i < n; i++ {
		a := c.Sub(0, i) & 1023
		b := c.Sub(1, i) & 1023
		d := c.Sub(2, i) & 1023
		if a == b || b == d || a == d {
			same++
		}
	}
	if same > n/100 {
		t.Errorf("candidate slots collide for %d/%d keys", same, n)
	}
}

func TestCuckooBasic(t *testing.T) {
	c := NewCuckoo(1024, 1)
	if _, ok := c.Get(5); ok {
		t.Fatal("Get on empty table found a value")
	}
	if err := c.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(5); !ok || v != 50 {
		t.Fatalf("Get(5) = %d,%v want 50,true", v, ok)
	}
	if err := c.Insert(5, 51); err != nil { // replace
		t.Fatal(err)
	}
	if v, _ := c.Get(5); v != 51 {
		t.Fatalf("Get(5) after replace = %d, want 51", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if !c.Delete(5) {
		t.Fatal("Delete(5) reported absent")
	}
	if c.Delete(5) {
		t.Fatal("second Delete(5) reported present")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestCuckooKeyZero(t *testing.T) {
	c := NewCuckoo(64, 1)
	if err := c.Insert(0, 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(0); !ok || v != 7 {
		t.Fatalf("Get(0) = %d,%v want 7,true", v, ok)
	}
}

func TestCuckooRangeErrors(t *testing.T) {
	c := NewCuckoo(64, 1)
	if err := c.Insert(MaxKey+1, 0); err == nil {
		t.Error("Insert with oversized key did not error")
	}
	if err := c.Insert(1, MaxValue+1); err == nil {
		t.Error("Insert with oversized value did not error")
	}
	if _, _, err := c.GetOrInsert(MaxKey+1, 0); err == nil {
		t.Error("GetOrInsert with oversized key did not error")
	}
	// Boundary values must work.
	if err := c.Insert(MaxKey, MaxValue); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(MaxKey); !ok || v != MaxValue {
		t.Fatalf("Get(MaxKey) = %d,%v", v, ok)
	}
}

func TestCuckooManyKeys(t *testing.T) {
	c := NewCuckoo(4096, 99)
	const n = 2000 // ~50% load factor, cascades will occur
	for i := uint64(0); i < n; i++ {
		if err := c.Insert(i, uint32(i%1000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := c.Get(i); !ok || v != uint32(i%1000) {
			t.Fatalf("Get(%d) = %d,%v want %d", i, v, ok, i%1000)
		}
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
}

// TestCuckooOverflowStash overfills a 16-slot table so that cascades hit
// their bound: every key stays reachable (the table never loses an entry),
// replace and delete work on stashed entries, Range and Len see them, and
// deleting table entries drains the stash back into the freed slots.
func TestCuckooOverflowStash(t *testing.T) {
	c := NewCuckoo(16, 7)
	const n = 40
	for i := uint64(0); i < n; i++ {
		if err := c.Insert(i, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	stashLen := func() int { return len(c.stashed()) }
	if stashLen() < n-c.Capacity() {
		t.Fatalf("stash holds %d entries, want at least %d", stashLen(), n-c.Capacity())
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := c.Get(i); !ok || v != uint32(i) {
			t.Fatalf("Get(%d) = %d,%v after overflow", i, v, ok)
		}
	}
	seen := 0
	c.Range(func(uint64, uint32) bool { seen++; return true })
	if seen != n {
		t.Fatalf("Range visited %d entries, want %d", seen, n)
	}
	// Replace and GetOrInsert on a stashed key do not duplicate it.
	k, _ := unpack(c.stashed()[0])
	if err := c.Insert(k, 999); err != nil {
		t.Fatal(err)
	}
	if v, ins, _ := c.GetOrInsert(k, 5); ins || v != 999 {
		t.Fatalf("GetOrInsert(stashed) = %d,%v want 999,false", v, ins)
	}
	if c.Len() != n {
		t.Fatalf("Len = %d after replace, want %d", c.Len(), n)
	}
	if !c.Delete(k) || c.Delete(k) {
		t.Fatal("Delete of a stashed key: want present once")
	}
	// Emptying the table drains the stash.
	for i := uint64(0); i < n; i++ {
		c.Delete(i)
	}
	if c.Len() != 0 || stashLen() != 0 {
		t.Fatalf("after deleting everything: Len %d, stash %d", c.Len(), stashLen())
	}
}

func TestCuckooGetOrInsert(t *testing.T) {
	c := NewCuckoo(256, 3)
	v, ins, err := c.GetOrInsert(9, 90)
	if err != nil || !ins || v != 90 {
		t.Fatalf("first GetOrInsert = %d,%v,%v", v, ins, err)
	}
	v, ins, err = c.GetOrInsert(9, 91)
	if err != nil || ins || v != 90 {
		t.Fatalf("second GetOrInsert = %d,%v,%v want existing 90", v, ins, err)
	}
}

func TestCuckooConcurrentReadsDuringWrites(t *testing.T) {
	c := NewCuckoo(8192, 5)
	const hot = 100
	for i := uint64(0); i < hot; i++ {
		if err := c.Insert(i, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	// Writer churns a disjoint key range until told to stop.
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := hot + uint64(rng.Intn(1000))
			if rng.Intn(2) == 0 {
				_ = c.Insert(k, uint32(k))
			} else {
				c.Delete(k)
			}
		}
	}()
	// Readers must always see the hot keys.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20000; i++ {
				k := uint64(i % hot)
				if v, ok := c.Get(k); !ok || v != uint32(k) {
					t.Errorf("hot key %d invisible or wrong: %d,%v", k, v, ok)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-writerDone
}

func TestCuckooRange(t *testing.T) {
	c := NewCuckoo(256, 11)
	for i := uint64(0); i < 50; i++ {
		if err := c.Insert(i, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	c.Range(func(k uint64, v uint32) bool {
		if v != uint32(k) {
			t.Errorf("Range: key %d has value %d", k, v)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 50 {
		t.Fatalf("Range visited %d entries, want 50", len(seen))
	}
	// Early termination.
	n := 0
	c.Range(func(uint64, uint32) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range with false visited %d, want 1", n)
	}
}

// TestCuckooQuickMapEquivalence property-tests the cuckoo table against a
// Go map over random operation sequences.
func TestCuckooQuickMapEquivalence(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCuckoo(256, 13) // up to 512 keys: the overflow stash is in play
		ref := map[uint64]uint32{}
		for _, op := range ops {
			k := uint64(op % 512)
			switch op % 3 {
			case 0, 1:
				if err := c.Insert(k, uint32(op)); err != nil {
					return false
				}
				ref[k] = uint32(op)
			case 2:
				if _, present := ref[k]; c.Delete(k) != present {
					return false
				}
				delete(ref, k)
			}
		}
		for k, want := range ref {
			if v, ok := c.Get(k); !ok || v != want {
				return false
			}
		}
		return c.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func chainModes() map[string]LockingMode {
	return map[string]LockingMode{"global": GlobalLock, "perBucket": PerBucketLock}
}

func TestChainTableBasic(t *testing.T) {
	for name, mode := range chainModes() {
		mode := mode
		t.Run(name, func(t *testing.T) {
			ct := NewChainTable(64, mode, 1, func() sync2.Locker { return new(sync2.TATASLock) })
			if _, ok := ct.Get(1); ok {
				t.Fatal("empty table Get found value")
			}
			if !ct.Insert(1, 10) {
				t.Fatal("Insert reported replace on fresh key")
			}
			if ct.Insert(1, 11) {
				t.Fatal("Insert reported new on existing key")
			}
			if v, ok := ct.Get(1); !ok || v != 11 {
				t.Fatalf("Get = %d,%v", v, ok)
			}
			got, ins := ct.GetOrInsert(2, 20)
			if !ins || got != 20 {
				t.Fatalf("GetOrInsert fresh = %d,%v", got, ins)
			}
			got, ins = ct.GetOrInsert(2, 21)
			if ins || got != 20 {
				t.Fatalf("GetOrInsert existing = %d,%v", got, ins)
			}
			if ct.Len() != 2 {
				t.Fatalf("Len = %d, want 2", ct.Len())
			}
			if !ct.Delete(1) || ct.Delete(1) {
				t.Fatal("Delete semantics wrong")
			}
			if ct.Len() != 1 {
				t.Fatalf("Len after delete = %d, want 1", ct.Len())
			}
		})
	}
}

func TestChainTableConcurrent(t *testing.T) {
	for name, mode := range chainModes() {
		mode := mode
		t.Run(name, func(t *testing.T) {
			ct := NewChainTable(256, mode, 2, func() sync2.Locker { return new(sync2.HybridLock) })
			var wg sync.WaitGroup
			const g, n = 8, 500
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(base uint64) {
					defer wg.Done()
					for j := uint64(0); j < n; j++ {
						k := base*n + j
						ct.Insert(k, uint32(k))
					}
				}(uint64(i))
			}
			wg.Wait()
			if ct.Len() != g*n {
				t.Fatalf("Len = %d, want %d", ct.Len(), g*n)
			}
			for i := uint64(0); i < g*n; i++ {
				if v, ok := ct.Get(i); !ok || v != uint32(i) {
					t.Fatalf("Get(%d) = %d,%v", i, v, ok)
				}
			}
			if st := ct.LockStats(); st.Acquisitions == 0 {
				t.Error("lock stats recorded no acquisitions")
			}
		})
	}
}

func TestChainTableRange(t *testing.T) {
	ct := NewChainTable(64, PerBucketLock, 3, func() sync2.Locker { return new(sync2.TATASLock) })
	for i := uint64(0); i < 30; i++ {
		ct.Insert(i, uint32(i*2))
	}
	sum := uint32(0)
	ct.Range(func(_ uint64, v uint32) bool { sum += v; return true })
	if want := uint32(29 * 30); sum != want { // 2*(0+..+29)
		t.Fatalf("Range sum = %d, want %d", sum, want)
	}
	n := 0
	ct.Range(func(uint64, uint32) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop Range visited %d", n)
	}
}
