package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// defaultNaN is the quiet NaN x86 produces for an invalid operation
// (0·Inf, Inf−Inf). It is the only NaN the exact-path inputs use: when
// both operands of an add are NaN the hardware returns the first, and
// the compiler does not pin operand order, so two different NaNs could
// legitimately meet in either order. With one NaN pattern in play every
// result bit is determined and the comparison can stay bitwise.
var defaultNaN = math.Float32frombits(0xffc00000)

// exactSpecials are the edge values the vector lanes must round exactly
// like the scalar kernel: signed zeros, subnormals, infinities, NaN, the
// largest finite value and values whose products overflow or underflow.
var exactSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x007fffff), -math.Float32frombits(3),
	float32(math.Inf(1)), float32(math.Inf(-1)), defaultNaN,
	math.MaxFloat32, -math.MaxFloat32, 1e-30, -3e-39, 1e30,
}

// exactInputs returns n values that are mostly standard normals, with
// about one in 4·k drawn from exactSpecials, so a length-k dot product
// usually meets an edge value yet most outputs stay finite.
func exactInputs(rng *rand.Rand, n, k int) []float32 {
	s := randSlice(rng, n)
	for i := range s {
		if rng.Intn(4*k) == 0 {
			s[i] = exactSpecials[rng.Intn(len(exactSpecials))]
		}
	}
	return s
}

// TestGemmAVXMatchesScalar pins the dispatched Gemm — the AVX tile
// kernel plus its scalar column tail on amd64 — to the pure-Go gemmNN
// bit for bit, across the row counts, 32/8-column stripe and tail
// boundaries and contraction lengths the classifiers use, for both
// accumulate modes and one to four workers.
func TestGemmAVXMatchesScalar(t *testing.T) {
	if !hasAVX2 {
		t.Log("no AVX2: Gemm dispatches to gemmNN itself")
	}
	rng := rand.New(rand.NewSource(14))
	for _, m := range []int{1, 8, 16} {
		for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 800, 3200} {
			for _, k := range []int{1, 3, 27, 72, 144, 241} {
				a := exactInputs(rng, m*k, k)
				b := exactInputs(rng, k*n, k)
				seed := exactInputs(rng, m*n, 1)
				for _, acc := range []bool{false, true} {
					want := append([]float32(nil), seed...)
					gemmNN(0, m, n, k, a, b, RowOffsets(k, n, nil), want, acc)
					for workers := 1; workers <= 4; workers++ {
						got := append([]float32(nil), seed...)
						Gemm(m, n, k, a, b, got, acc, workers)
						bitsEqual(t, fmt.Sprintf("m=%d n=%d k=%d acc=%v workers=%d", m, n, k, acc, workers), got, want)
					}
				}
			}
		}
	}
}

// TestGemmAVXNoFusedMultiplyAdd feeds every lane an operand triple whose
// fused and unfused multiply-add differ: (1+2⁻¹²)² rounds to 1+2⁻¹¹ in
// float32 (the 2⁻²⁴ term is a tie, broken to even), so c + a·b with
// c = −(1+2⁻¹¹) is exactly 0 unfused and 2⁻²⁴ fused. Every element of
// the dispatched Gemm must be the unfused 0.
func TestGemmAVXNoFusedMultiplyAdd(t *testing.T) {
	const e = 1.0 / 4096
	av, cv := float32(1+e), float32(-(1 + 2*e))
	if fused := float32(float64(av)*float64(av) + float64(cv)); fused == 0 {
		t.Fatal("trap triple does not separate fused from unfused")
	}
	for _, m := range []int{1, 8, 16} {
		for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 800} {
			a := make([]float32, m)
			b := make([]float32, n)
			c := make([]float32, m*n)
			for i := range a {
				a[i] = av
			}
			for j := range b {
				b[j] = av
			}
			for i := range c {
				c[i] = cv
			}
			Gemm(m, n, 1, a, b, c, true, 1)
			for i, v := range c {
				if math.Float32bits(v) != 0 {
					t.Fatalf("m=%d n=%d element %d = %g, want unfused 0", m, n, i, v)
				}
			}
		}
	}
}
