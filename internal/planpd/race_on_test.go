//go:build race

package planpd

// raceEnabled skips the allocation pin: under the race detector a
// sync.Pool drops a share of what is put back, so WriteJSON's buffer
// is allocated again at random.
const raceEnabled = true
