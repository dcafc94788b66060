package tx

// Arena is a transaction's byte scratch: the keys, row images and copied
// values its owner makes and drops while it runs. Make carves slices from
// one chunk; a chunk that runs out is replaced by one twice its size, and
// the slices already carved keep the old one alive. Everything carved is
// valid until the transaction ends, when reset empties the arena for the
// next transaction to borrow it, keeping its current chunk unless it grew
// past arenaKeep.
type Arena struct{ buf []byte }

const (
	arenaFirst = 8 << 10  // the first chunk: most TPC-C transactions fit
	arenaKeep  = 64 << 10 // a bigger chunk (a bulk load's) is not kept
)

// Make returns an empty slice with room for n bytes. Appending past n
// leaves the arena (append reallocates), which is correct but allocates.
func (a *Arena) Make(n int) []byte {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]byte, 0, max(2*cap(a.buf), n, arenaFirst))
	}
	at := len(a.buf)
	a.buf = a.buf[:at+n]
	return a.buf[at : at : at+n]
}

// Copy returns a copy of v carved from the arena.
func (a *Arena) Copy(v []byte) []byte { return append(a.Make(len(v)), v...) }

// reset forgets everything carved, keeping the chunk for reuse.
func (a *Arena) reset() {
	if cap(a.buf) > arenaKeep {
		a.buf = nil
	}
	a.buf = a.buf[:0]
}
