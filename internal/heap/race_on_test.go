//go:build race

package heap

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a share of what is put into it on purpose, so pooled scratch cannot be
// shown allocation-free.
const raceEnabled = true
