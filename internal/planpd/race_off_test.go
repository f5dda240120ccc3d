//go:build !race

package planpd

const raceEnabled = false
