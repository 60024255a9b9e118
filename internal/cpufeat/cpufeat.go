// Package cpufeat probes the CPU once at startup for the vector
// extensions the hand-written kernels need. Packages with kernels copy
// the probe into their own dispatch switch, so a test can force one
// package's pure-Go fallback without touching another's.
package cpufeat
