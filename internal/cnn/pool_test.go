package cnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// poolCases are the max-pool edge inputs: signed-zero ties, a NaN in
// each window slot, infinities, an all −Inf window, values below the
// −3.4e38 seed, and odd heights and widths whose last row or column the
// pool drops.
func poolCases() []struct {
	name string
	x    *Tensor
} {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	belowSeed := math.Nextafter32(-3.4e38, -inf)
	window := func(v0, v1, v2, v3 float32) *Tensor {
		return &Tensor{C: 1, H: 2, W: 2, Data: []float32{v0, v1, v2, v3}}
	}
	type tc = struct {
		name string
		x    *Tensor
	}
	cases := []tc{
		{"zero-tie/-0-first", window(negZero, 0, 0, negZero)},
		{"zero-tie/+0-first", window(0, negZero, negZero, 0)},
		{"zero-tie/negatives", window(-1, negZero, 0, -2)},
		{"all-negzero", window(negZero, negZero, negZero, negZero)},
		{"all-nan", window(nan, nan, nan, nan)},
		{"inf-wins", window(1, inf, 2, inf)},
		{"neg-inf", window(-inf, -5, -inf, -7)},
		{"all-neg-inf", window(-inf, -inf, -inf, -inf)},
		{"below-seed", window(-3.4e38, belowSeed, -math.MaxFloat32, -3.4e38)},
		{"below-seed-only", window(belowSeed, -math.MaxFloat32, -inf, belowSeed)},
		{"first-max-wins", window(3, 3, 3, 3)},
	}
	for slot := 0; slot < 4; slot++ {
		v := []float32{1, 2, -3, 0.5}
		v[slot] = nan
		cases = append(cases, tc{fmt.Sprintf("nan-slot%d", slot), window(v[0], v[1], v[2], v[3])})
		v[slot] = -inf
		cases = append(cases, tc{fmt.Sprintf("neg-inf-slot%d", slot), window(v[0], v[1], v[2], v[3])})
	}
	specials := []float32{nan, inf, -inf, 0, negZero, belowSeed, -3.4e38, math.Float32frombits(1)}
	rng := rand.New(rand.NewSource(12))
	for _, sh := range [][3]int{{1, 5, 7}, {3, 3, 4}, {2, 6, 5}, {4, 7, 9}, {1, 3, 2}, {8, 24, 48}, {16, 13, 17}} {
		x := randTensor(rng, sh[0], sh[1], sh[2])
		for i := range x.Data {
			if rng.Intn(5) == 0 {
				x.Data[i] = specials[rng.Intn(len(specials))]
			}
		}
		cases = append(cases, tc{fmt.Sprintf("random-%dx%dx%d", sh[0], sh[1], sh[2]), x})
	}
	return cases
}

// TestMaxPoolMatchesReference pins both MaxPool2 paths and qMaxPool to
// the per-window oracles in reference_test.go bit for bit, and the
// training path's argmax routing to the first maximum: Backward must
// send each window's gradient to the slot the oracle's scan settles on
// (element 0 of the input when nothing beats the seed, as the scan
// starts there).
func TestMaxPoolMatchesReference(t *testing.T) {
	for _, tc := range poolCases() {
		want := refMaxPool(tc.x)
		var m MaxPool2
		assertBits(t, tc.name+"/infer", m.Forward(tc.x, false).Data, want.Data)
		assertBits(t, tc.name+"/train", m.Forward(tc.x, true).Data, want.Data)

		grad := NewTensor(want.C, want.H, want.W)
		for i := range grad.Data {
			grad.Data[i] = float32(i + 1)
		}
		wantDx := make([]float32, len(tc.x.Data))
		for c := 0; c < want.C; c++ {
			for oy := 0; oy < want.H; oy++ {
				for ox := 0; ox < want.W; ox++ {
					best, idx := float32(-3.4e38), 0
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							j := (c*tc.x.H+oy*2+dy)*tc.x.W + ox*2 + dx
							if v := tc.x.Data[j]; v > best {
								best, idx = v, j
							}
						}
					}
					wantDx[idx] += grad.Data[(c*want.H+oy)*want.W+ox]
				}
			}
		}
		assertBits(t, tc.name+"/backward", m.Backward(grad).Data, wantDx)

		var q qMaxPool
		got, bound := q.forward(tc.x, 7)
		assertBits(t, tc.name+"/int8-graph", got.Data, refQMaxPool(tc.x).Data)
		if bound != 7 {
			t.Fatalf("%s: qMaxPool bound %v, want the input bound 7 passed through", tc.name, bound)
		}
	}
}
