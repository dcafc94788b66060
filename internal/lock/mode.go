// Package lock implements the hierarchical two-phase-locking lock manager
// of §2.2.3 and §7.5: intention modes, a hash table of lock heads with
// global or per-bucket latching, a request pool (one mutex-guarded free
// list, or per-processor free lists), blocking waits with timeouts, and
// waits-for deadlock detection.
package lock

import "fmt"

// Mode is a database lock mode.
type Mode uint8

// Lock modes. NL is the absence of a lock.
const (
	NL  Mode = iota // not locked
	IS              // intention shared
	IX              // intention exclusive
	S               // shared
	SIX             // shared + intention exclusive
	U               // update (read now, intend to write)
	X               // exclusive
	numModes
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case NL:
		return "NL"
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case SIX:
		return "SIX"
	case U:
		return "U"
	case X:
		return "X"
	default:
		return fmt.Sprintf("mode%d", uint8(m))
	}
}

// compat[a][b] reports whether a holder in mode a is compatible with a new
// request in mode b (standard hierarchical locking matrix; U is compatible
// with S holders but not with other U/X, and blocks new S once waiting —
// queue ordering handles the latter).
var compat = [numModes][numModes]bool{
	NL:  {NL: true, IS: true, IX: true, S: true, SIX: true, U: true, X: true},
	IS:  {NL: true, IS: true, IX: true, S: true, SIX: true, U: true, X: false},
	IX:  {NL: true, IS: true, IX: true, S: false, SIX: false, U: false, X: false},
	S:   {NL: true, IS: true, IX: false, S: true, SIX: false, U: true, X: false},
	SIX: {NL: true, IS: true, IX: false, S: false, SIX: false, U: false, X: false},
	U:   {NL: true, IS: true, IX: false, S: true, SIX: false, U: false, X: false},
	X:   {NL: true, IS: false, IX: false, S: false, SIX: false, U: false, X: false},
}

// Compatible reports whether held and requested can coexist.
func Compatible(held, requested Mode) bool {
	return compat[held][requested]
}

// supremum[a][b] is the weakest mode at least as strong as both a and b,
// used for lock conversions (e.g. holding S and requesting IX yields SIX).
var supremum = [numModes][numModes]Mode{
	NL:  {NL: NL, IS: IS, IX: IX, S: S, SIX: SIX, U: U, X: X},
	IS:  {NL: IS, IS: IS, IX: IX, S: S, SIX: SIX, U: U, X: X},
	IX:  {NL: IX, IS: IX, IX: IX, S: SIX, SIX: SIX, U: X, X: X},
	S:   {NL: S, IS: S, IX: SIX, S: S, SIX: SIX, U: U, X: X},
	SIX: {NL: SIX, IS: SIX, IX: SIX, S: SIX, SIX: SIX, U: SIX, X: X},
	U:   {NL: U, IS: U, IX: X, S: U, SIX: SIX, U: U, X: X},
	X:   {NL: X, IS: X, IX: X, S: X, SIX: X, U: X, X: X},
}

// Supremum returns the weakest mode at least as strong as both a and b.
func Supremum(a, b Mode) Mode { return supremum[a][b] }

// StrongerOrEqual reports whether a subsumes b (Supremum(a,b) == a).
func StrongerOrEqual(a, b Mode) bool { return supremum[a][b] == a }

// Intention returns the intention mode a parent must carry for a child
// lock in mode m: IS for read modes, IX for write modes.
func Intention(m Mode) Mode {
	switch m {
	case IS, S:
		return IS
	case U:
		return IX // an update lock intends to write
	default:
		return IX
	}
}
