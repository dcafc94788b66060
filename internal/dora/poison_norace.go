//go:build !race

package dora

// poisonTxn is a no-op outside race-detector builds (see poison_race.go).
func poisonTxn(*Txn) {}
