//go:build !amd64

package cpufeat

// AVX2 is constant false off amd64: every kernel runs its pure-Go path.
const AVX2 = false
