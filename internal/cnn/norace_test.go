//go:build !race

package cnn

const raceEnabled = false
