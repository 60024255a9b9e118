//go:build !race

package perception

const raceEnabled = false
