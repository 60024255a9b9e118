//go:build race

package cnn

// raceEnabled thins exhaustive enumerations under the race detector,
// which slows them about tenfold.
const raceEnabled = true
