package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/space"
)

// testEvictionChurn probes through a pool far smaller than the tree, so
// optimistic references constantly race frame recycling and leaves are
// often not resident: every failed validation or absent page must be read
// under its latch, restart or fall back, never return stale data.
func testEvictionChurn(t *testing.T, a Access, cur func() *Cursor) *Tree {
	c := cur()
	tr, env := newTestTree(t, 32)
	const n = 3000
	// 200-byte values: the tree spans a few hundred pages.
	wide := func(i int) []byte { return append(bytes.Repeat([]byte{'.'}, 200), val(i)...) }
	for i := 0; i < n; i++ {
		if err := tr.Insert(a, c, tx1, key(i), wide(i)); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	misses := env.pool.Stats().Misses
	for probe := 0; probe < 5000; probe++ {
		i := r.Intn(n)
		v, ok, err := tr.Search(a, c, key(i))
		if err != nil || !ok {
			t.Fatalf("Search(%s) = %v, %v", key(i), ok, err)
		}
		if !bytes.Equal(v, wide(i)) {
			t.Fatalf("Search(%s) = %q, want %q", key(i), v, wide(i))
		}
	}
	if env.pool.Stats().Misses == misses {
		t.Error("no probe met a cold page: the pool is not smaller than the tree")
	}
	s := tr.stats.Snapshot()
	t.Logf("under churn: %+v", s)
	return tr
}

// TestPoliciesWithoutOptEnv: a tree with no optimistic environment runs
// every policy as Latched.
func TestPoliciesWithoutOptEnv(t *testing.T) {
	env := newFakeEnv(t, 128)
	stats := new(OLCStats)
	tr, err := Create(env, nil, stats, tx1, env.sm.CreateStore(space.KindBTree))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range policies {
		for i := 0; i < 200; i++ {
			k := seqKey(int(p.a), i)
			if err := tr.Insert(p.a, nil, tx1, k, val(i)); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := tr.Search(p.a, nil, k); err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("%s: Search(%s) = %q, %v, %v", p.name, k, v, ok, err)
			}
		}
		n := 0
		if err := tr.Scan(p.a, seqKey(int(p.a), 0), seqKey(int(p.a), 200), func(k, v []byte) bool { n++; return true }); err != nil || n != 200 {
			t.Fatalf("%s: Scan saw %d, %v", p.name, n, err)
		}
	}
	checkPolicyCounters(t, Latched, stats.Snapshot())
}

// TestOLCConcurrentSplitProbe hammers inserts (splitting constantly)
// against optimistic searches and scans; run with -race this exercises
// the degraded pinned path, without it the true speculative path.
func TestOLCConcurrentSplitProbe(t *testing.T) {
	for _, p := range policies {
		p := p
		t.Run(p.name, func(t *testing.T) { concurrentSplitProbe(t, p.a) })
	}
}

func concurrentSplitProbe(t *testing.T, a Access) {
	tr, _ := newTestTree(t, 512)
	const (
		writers = 4
		readers = 4
		perW    = 800
	)
	// Seed enough keys that readers have something to find immediately.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(a, nil, tx1, seqKey(99, i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perW; i++ {
				if err := tr.Insert(a, nil, tx1, seqKey(w, i), val(i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(100)
				v, ok, err := tr.Search(a, nil, seqKey(99, i))
				if err != nil || !ok || !bytes.Equal(v, val(i)) {
					t.Errorf("reader %d: Search(%s) = %q, %v, %v", r, seqKey(99, i), v, ok, err)
					return
				}
				if rng.Intn(64) == 0 {
					if err := tr.Scan(a, seqKey(99, 0), seqKey(99, 100), func(k, v []byte) bool { return true }); err != nil {
						t.Errorf("reader %d: Scan: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	// Every inserted key must be findable and the structure sound.
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			if _, ok, err := tr.Search(a, nil, seqKey(w, i)); err != nil || !ok {
				t.Fatalf("lost key %s: %v %v", seqKey(w, i), ok, err)
			}
		}
	}
	want := writers*perW + 100
	if count, err := tr.Verify(); err != nil || count != want {
		t.Fatalf("Verify = %d, %v; want %d", count, err, want)
	}
	s := tr.stats.Snapshot()
	checkPolicyCounters(t, a, s)
	t.Logf("concurrent: %+v", s)
}

func seqKey(w, i int) []byte { return []byte(fmt.Sprintf("w%02d-%08d", w, i)) }

// flakyOpt wraps an OptEnv, failing the first failN validations and,
// while cold is set, refusing every optimistic reference the way a
// non-resident page does — deterministically driving the restart and
// fallback paths.
type flakyOpt struct {
	OptEnv
	mu    sync.Mutex
	failN int
	cold  bool
}

func (f *flakyOpt) set(failN int, cold bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failN, f.cold = failN, cold
}

func (f *flakyOpt) FixOpt(pid page.ID) (buffer.OptRef, bool) {
	f.mu.Lock()
	cold := f.cold
	f.mu.Unlock()
	if cold {
		return buffer.OptRef{}, false
	}
	return f.OptEnv.FixOpt(pid)
}

func (f *flakyOpt) Validate(r buffer.OptRef) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failN > 0 {
		f.failN--
		return false
	}
	return f.OptEnv.Validate(r)
}

// TestOLCRestartAndFallback injects validation failures and non-resident
// pages under each policy and checks that descents (mutations), point
// probes and scans restart, fall back and still answer correctly, with
// the restart loop's counters telling exactly what happened.
func TestOLCRestartAndFallback(t *testing.T) {
	for _, p := range policies {
		p := p
		t.Run(p.name, func(t *testing.T) { restartAndFallback(t, p.a) })
	}
}

func restartAndFallback(t *testing.T, a Access) {
	env := newFakeEnv(t, 256)
	flaky := &flakyOpt{OptEnv: env.pool}
	stats := new(OLCStats)
	tr, err := Create(env, flaky, stats, tx1, env.sm.CreateStore(space.KindBTree))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(a, nil, tx1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	// The three kinds of operation, each checking its own answer.
	next := n
	ops := []struct {
		name string
		run  func()
	}{
		{"descent", func() {
			next++
			if err := tr.Insert(a, nil, tx1, key(next), val(next)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			if err := tr.Update(a, nil, tx1, key(next), val(7)); err != nil {
				t.Fatalf("Update: %v", err)
			}
			if old, err := tr.Delete(a, nil, tx1, key(next)); err != nil || !bytes.Equal(old, val(7)) {
				t.Fatalf("Delete = %q, %v", old, err)
			}
		}},
		{"probe", func() {
			for i := 0; i < 3; i++ {
				if v, ok, err := tr.Search(a, nil, key(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
					t.Fatalf("Search(%s) = %q, %v, %v", key(i), v, ok, err)
				}
			}
		}},
		{"scan", func() {
			// Three single-leaf scans.
			for i := 0; i < 3; i++ {
				got := 0
				err := tr.Scan(a, key(10*i), key(10*i+5), func(k, v []byte) bool {
					if !bytes.Equal(k, key(10*i+got)) || !bytes.Equal(v, val(10*i+got)) {
						t.Errorf("scan %d: pair %d = %q, %q", i, got, k, v)
					}
					got++
					return true
				})
				if err != nil || got != 5 {
					t.Fatalf("Scan = %d pairs, %v", got, err)
				}
			}
		}},
	}
	// fallbacks and successes read the policy's own counters.
	fallbacks := func(s OLCSnapshot) uint64 {
		if a == Owner {
			return s.OwnerFallbacks
		}
		return s.Fallbacks
	}
	speculated := func(s OLCSnapshot) uint64 {
		if a == Owner {
			return s.OwnerDescents + s.OwnerReads
		}
		return s.OptDescents + s.OptLeafReads
	}

	for _, op := range ops {
		// Each op.run is three restartable units (three descents, three
		// probes, three leaf views).
		const units = 3
		want := stats.Snapshot()
		step := func(what string, restarts, fell, spec uint64) {
			t.Helper()
			op.run()
			got := stats.Snapshot()
			want.Restarts += restarts
			want.LatchedDescents += fell
			if a == Latched {
				want.LatchedDescents += units
			}
			if got.Restarts != want.Restarts || got.LatchedDescents != want.LatchedDescents ||
				fallbacks(got) != fallbacks(want)+fell || speculated(got) != speculated(want)+spec {
				t.Fatalf("%s, %s: counters %+v, want %d restarts, %d fallbacks, %d speculative successes on top of %+v",
					op.name, what, got, restarts, fell, spec, want)
			}
			want = got
		}
		if a == Latched {
			// Latched never consults the OptEnv, however broken it is.
			flaky.set(1<<30, true)
			step("broken OptEnv", 0, 0, 0)
			flaky.set(0, false)
			continue
		}
		// Undisturbed: everything completes speculatively.
		step("undisturbed", 0, 0, units)
		// Validation always fails: every unit exhausts its restarts, falls
		// back to Latched, and still answers correctly.
		flaky.set(1<<30, false)
		step("permanent validation failure", units*maxOptRestarts, units, 0)
		// One transient failure: one restart, then speculative success.
		flaky.set(1, false)
		step("transient validation failure", 1, 0, units)
		// Nothing is resident: every node, the leaf included, is read
		// under a pinned SH latch, and the operation completes under its
		// policy with no restart.
		flaky.set(0, true)
		step("non-resident pages", 0, 0, units)
		flaky.set(0, false)
	}
	if count, err := tr.Verify(); err != nil || count != n {
		t.Fatalf("Verify = %d, %v; want %d", count, err, n)
	}
	checkPolicyCounters(t, a, stats.Snapshot())
}

// BenchmarkIndexProbeParallel measures point probes through the real
// buffer pool with and without optimistic latch coupling. The latched
// variant pays pin + latch RMWs on the root and every inner node, so all
// cores ping-pong the same frame cache lines; the OLC variant's inner
// descent writes no shared memory at all. Run with -cpu=8 to see the
// contention difference.
func BenchmarkIndexProbeParallel(b *testing.B) {
	for _, olc := range []bool{false, true} {
		name := "latched"
		if olc {
			name = "olc"
		}
		b.Run(name, func(b *testing.B) {
			tr, _ := newTestTree(b, 4096)
			a := Latched
			if olc {
				a = Optimistic
			}
			const n = 20000
			for i := 0; i < n; i++ {
				if err := tr.Insert(a, nil, tx1, key(i), val(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				for pb.Next() {
					i := rng.Intn(n)
					_, ok, err := tr.Search(a, nil, key(i))
					if err != nil || !ok {
						b.Fatalf("Search(%s) = %v, %v", key(i), ok, err)
					}
				}
			})
			b.StopTimer()
			if olc {
				s := tr.stats.Snapshot()
				b.ReportMetric(float64(s.OptLeafReads), "optLeafReads")
				b.ReportMetric(float64(s.Restarts), "restarts")
				b.ReportMetric(float64(s.Fallbacks), "fallbacks")
			}
		})
	}
}
