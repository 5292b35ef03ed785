//go:build !race

package tube

const raceEnabled = false
