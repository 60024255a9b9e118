//go:build !race

package isp

const raceEnabled = false
