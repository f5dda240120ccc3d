//go:build race

package verify

// raceEnabled skips the allocation pin: under the race detector a
// sync.Pool drops a share of what is put back, so a workspace is
// allocated again at random.
const raceEnabled = true
