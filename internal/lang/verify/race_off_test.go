//go:build !race

package verify

const raceEnabled = false
