package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestMaxPool2VectorMatchesScalar pins the dispatched MaxPool2 (the
// VMAXPS row kernel plus its scalar tail on amd64) to the pure-Go
// maxPool2Row bit for bit, for every output width from 1 to 41 (whole
// 8-window blocks, tails, odd input widths) and odd heights, seeded and
// first-element modes, on inputs dense in NaN, ±Inf, ±0, subnormals and
// values below the seed.
func TestMaxPool2VectorMatchesScalar(t *testing.T) {
	if !hasAVX2 {
		t.Log("no AVX2: MaxPool2 runs maxPool2Row itself")
	}
	rng := rand.New(rand.NewSource(16))
	seed := float32(-3.4e38)
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0,
		float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.MaxFloat32, seed,
		math.Nextafter32(seed, float32(math.Inf(-1))),
	}
	for w := 2; w <= 83; w++ {
		for _, h := range []int{2, 5} {
			const c = 2
			x := randSlice(rng, c*h*w)
			for i := range x {
				if rng.Intn(3) == 0 {
					x[i] = specials[rng.Intn(len(specials))]
				}
			}
			oh, ow := h/2, w/2
			for _, seeded := range []bool{true, false} {
				want := make([]float32, c*oh*ow)
				for ch := 0; ch < c; ch++ {
					for oy := 0; oy < oh; oy++ {
						maxPool2Row(want[(ch*oh+oy)*ow:][:ow],
							x[(ch*h+2*oy)*w:], x[(ch*h+2*oy+1)*w:], seed, seeded)
					}
				}
				got := randSlice(rng, c*oh*ow) // dirty: fully overwritten
				MaxPool2(x, c, h, w, got, seed, seeded)
				bitsEqual(t, fmt.Sprintf("w=%d h=%d seeded=%v", w, h, seeded), got, want)
			}
		}
	}
}

// TestMaxGTIsMaxss pins the scalar select to the MAXSS rule on the
// edge pairs: v wins only when v > best, so NaN on either side, equal
// values and ±0 ties keep best.
func TestMaxGTIsMaxss(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for _, tc := range []struct{ v, best, want float32 }{
		{1, 0, 1}, {0, 1, 1}, {nan, 1, 1}, {1, nan, nan}, {nan, nan, nan},
		{0, negZero, negZero}, {negZero, 0, 0}, {float32(math.Inf(-1)), -3.4e38, -3.4e38},
	} {
		got := maxGT(tc.v, tc.best)
		if math.Float32bits(got) != math.Float32bits(tc.want) {
			t.Errorf("maxGT(%v, %v) = %v (%#x), want %v (%#x)", tc.v, tc.best,
				got, math.Float32bits(got), tc.want, math.Float32bits(tc.want))
		}
	}
}
