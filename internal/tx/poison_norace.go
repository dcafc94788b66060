//go:build !race

package tx

// poison is a no-op outside race-detector builds (see poison_race.go).
func poison(*owned) {}
