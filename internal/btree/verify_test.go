package btree

import (
	"math/rand"
	"testing"
)

func TestVerifyHealthyTree(t *testing.T) {
	tr, _ := newTestTree(t, 256, latched)
	rng := rand.New(rand.NewSource(3))
	const n = 3000
	for _, i := range rng.Perm(n) {
		if err := tr.Insert(nil, tx1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := tr.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if keys != n {
		t.Fatalf("Verify counted %d keys, want %d", keys, n)
	}
	scanned, err := tr.CountViaScan()
	if err != nil {
		t.Fatal(err)
	}
	if scanned != n {
		t.Fatalf("scan reached %d keys, want %d", scanned, n)
	}
}

func TestVerifyAfterDeletes(t *testing.T) {
	tr, _ := newTestTree(t, 256, latched)
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(nil, tx1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 3 {
		if _, err := tr.Delete(nil, tx1, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := 1000 - 334 // ceil(1000/3) deleted
	keys, err := tr.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if keys != want {
		t.Fatalf("Verify counted %d, want %d", keys, want)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	tr, env := newTestTree(t, 64, latched)
	for i := 0; i < 10; i++ {
		if err := tr.Insert(nil, tx1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the root leaf: swap two entries' order by rewriting slot 1
	// with a key larger than slot 2's.
	f, err := env.Fix(tr.Root(), 2 /* EX */)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Page().Update(1, encodeLeafEntry([]byte("zzzz"), []byte("v"))); err != nil {
		t.Fatal(err)
	}
	env.Unfix(f, 2)
	if _, err := tr.Verify(); err == nil {
		t.Fatal("Verify accepted an out-of-order node")
	}
}
