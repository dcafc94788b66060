package tpcc

import "math/rand"

// NURand constants fixed at load time, per the TPC-C specification
// (clause 2.1.6): C values for the non-uniform distributions.
const (
	cCID   = 91
	cOLIID = 33
)

// Rand wraps a seeded source with the TPC-C random primitives.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic TPC-C randomizer.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Int returns a uniform integer in [lo, hi].
func (r *Rand) Int(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.r.Intn(hi-lo+1)
}

// Float returns a uniform float in [lo, hi).
func (r *Rand) Float(lo, hi float64) float64 {
	return lo + r.r.Float64()*(hi-lo)
}

// NURand is the TPC-C non-uniform random function:
// (((random(0,A) | random(x,y)) + C) % (y-x+1)) + x.
func (r *Rand) NURand(a, x, y, c int) int {
	return ((r.Int(0, a)|r.Int(x, y))+c)%(y-x+1) + x
}

// CustomerID draws a customer id over [1, n] with the spec's skew.
func (r *Rand) CustomerID(n int) int {
	if n < 1 {
		return 1
	}
	if n >= 3000 {
		return r.NURand(1023, 1, n, cCID)
	}
	// Scaled-down skew for small test databases.
	return r.NURand(nextPow2(n)-1, 1, n, cCID%n)
}

// ItemID draws an item id over [1, n] with the spec's skew (hits ~8% of
// items with ~75% of probability at full scale).
func (r *Rand) ItemID(n int) int {
	if n < 1 {
		return 1
	}
	if n >= 100000 {
		return r.NURand(8191, 1, n, cOLIID)
	}
	return r.NURand(nextPow2(n)-1, 1, n, cOLIID%n)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// lastNameSyllables are the spec's clause 4.3.2.3 syllables.
var lastNameSyllables = []string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// LastName builds the spec customer last name for number (0..999).
func LastName(number int) string {
	if number < 0 {
		number = -number
	}
	number %= 1000
	return lastNameSyllables[number/100] + lastNameSyllables[(number/10)%10] + lastNameSyllables[number%10]
}

// AString returns a random alphanumeric string with length in [lo, hi].
func (r *Rand) AString(lo, hi int) string {
	const alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	n := r.Int(lo, hi)
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.r.Intn(len(alpha))]
	}
	return string(b)
}

// NString returns a random numeric string with length in [lo, hi].
func (r *Rand) NString(lo, hi int) string {
	n := r.Int(lo, hi)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + r.r.Intn(10))
	}
	return string(b)
}

// otherWarehouse draws a warehouse other than homeW, of two or more.
func (r *Rand) otherWarehouse(scale Scale, homeW uint32) uint32 {
	for {
		if w := uint32(r.Int(1, scale.Warehouses)); w != homeW {
			return w
		}
	}
}

// Rollback1Percent reports true with probability 1/100 (New Order's
// intentional rollback rate).
func (r *Rand) Rollback1Percent() bool { return r.r.Intn(100) == 0 }
