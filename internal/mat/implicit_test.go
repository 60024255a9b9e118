package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// implicitGeoms are the stride-1 convolutions the implicit lowering must
// reproduce: every convGeoms entry run at stride 1, the edge cases
// (pad 0, k=1, w=1, inC=1, odd k, both contraction parities), and the
// six stride-1 convolutions of the road/scene and lane ResNetLite
// classifiers (stem, block 1 and blocks 2–3 shapes).
func implicitGeoms() []struct{ c, h, w, k, pad int } {
	var gs []struct{ c, h, w, k, pad int }
	for _, g := range convGeoms {
		gs = append(gs, struct{ c, h, w, k, pad int }{g.c, g.h, g.w, g.k, g.pad})
	}
	return append(gs, []struct{ c, h, w, k, pad int }{
		{3, 9, 11, 3, 0},  // pad 0: B is the image itself
		{2, 6, 7, 1, 0},   // k=1, even ckk
		{3, 5, 6, 1, 0},   // k=1, odd ckk
		{2, 7, 1, 3, 1},   // w=1: a single output column
		{1, 8, 13, 3, 1},  // inC=1
		{1, 9, 9, 5, 2},   // odd k=5, odd ckk
		{2, 11, 10, 5, 1}, // k=5 with pad < k/2, even ckk
		{4, 5, 40, 3, 1},  // 32-, 16- and 8-column stripes plus a tail
		// ResNetLite road/scene, then lane: stem, block 1, blocks 2–3.
		{3, 24, 48, 3, 1}, {8, 12, 24, 3, 1}, {16, 6, 12, 3, 1},
		{3, 40, 80, 3, 1}, {8, 20, 40, 3, 1}, {16, 10, 20, 3, 1},
	}...)
}

// keptColumns maps the implicit product's (oh−1)·pw+ow columns back to
// the oh·ow outputs, dropping the pw−ow columns past each output row.
func keptColumns[T any](wide []T, m, oh, ow, pw int) []T {
	nw := (oh-1)*pw + ow
	out := make([]T, 0, m*oh*ow)
	for i := 0; i < m; i++ {
		for oy := 0; oy < oh; oy++ {
			out = append(out, wide[i*nw+oy*pw:i*nw+oy*pw+ow]...)
		}
	}
	return out
}

// TestImplicitConvMatchesIm2col is the differential test of the
// stride-1 implicit lowering: GemmOff over PadImage + ConvOffsets must
// give the bits of Gemm over the Im2col patch matrix in every kept
// column, through the dispatched kernel and the pure-Go gemmNN alike,
// with NaN, ±Inf, subnormal and ±0 inputs and weights and a dirty
// bias-seeded accumulator; and Gemm8Wide over QuantizePad + ConvOffsets
// must give the int32 accumulators of Gemm8Wide over Im2colQ for both
// contraction parities, dispatched and pure Go, at one and two workers.
func TestImplicitConvMatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, g := range implicitGeoms() {
		name := fmt.Sprintf("c%d %dx%d k%d p%d", g.c, g.h, g.w, g.k, g.pad)
		oh, ow := ConvOutSize(g.h, g.k, 1, g.pad), ConvOutSize(g.w, g.k, 1, g.pad)
		ph, pw := g.h+2*g.pad, g.w+2*g.pad
		p, ckk, nw := oh*ow, g.c*g.k*g.k, (oh-1)*pw+ow
		const m = 9 // output channels: one 8-row block plus a remainder
		x := exactInputs(rng, g.c*g.h*g.w, ckk)
		wts := exactInputs(rng, m*ckk, ckk)
		bias := exactInputs(rng, m, 1)
		off := ConvOffsets(g.c, g.k, ph, pw, nil)
		if last := off[ckk-1] + nw; last != g.c*ph*pw {
			t.Fatalf("%s: last patch row ends at %d, want the padded image end %d", name, last, g.c*ph*pw)
		}

		col := make([]float32, ckk*p)
		Im2col(x, g.c, g.h, g.w, g.k, 1, g.pad, make([]float32, g.c*ph*pw), col)
		want := make([]float32, m*p)
		for i := range want {
			want[i] = bias[i/p]
		}
		Gemm(m, p, ckk, wts, col, want, true, 1)

		padded := PadImage(x, g.c, g.h, g.w, g.pad, exactInputs(rng, g.c*ph*pw, 1))
		for _, path := range []string{"dispatch", "dispatch-w2", "pure-go"} {
			wide := exactInputs(rng, m*nw, 1) // junk columns start dirty
			for i := 0; i < m; i++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						wide[i*nw+oy*pw+ox] = bias[i]
					}
				}
			}
			switch path {
			case "dispatch":
				GemmOff(m, nw, ckk, wts, padded, off, wide, true, 1)
			case "dispatch-w2":
				ParallelRows(m, 2, func(i0, i1 int) { gemmRows(i0, i1, nw, ckk, wts, padded, off, wide, true) })
			case "pure-go":
				gemmNN(0, m, nw, ckk, wts, padded, off, wide, true)
			}
			bitsEqual(t, name+" fp32 "+path, keptColumns(wide, m, oh, ow, pw), want)
		}

		// int8: the same geometry, the image quantized at a scale that
		// spreads its normal samples over the whole code range and
		// saturates its infinities (NaN quantizes to 0).
		const inv = 40
		aq := randInt8(rng, m*ckk)
		ap := Pack8(aq, m, ckk)
		col8 := make([]int8, ckk*p)
		Im2colQ(x, g.c, g.h, g.w, g.k, 1, g.pad, inv, make([]int8, g.c*ph*pw), col8)
		want8 := make([]int32, m*p)
		Gemm8Wide(m, p, ckk, ap, col8, RowOffsets(ckk, p, nil), want8, 1)
		padded8 := QuantizePad(x, g.c, g.h, g.w, g.pad, inv, randInt8(rng, g.c*ph*pw))
		for _, path := range []string{"dispatch", "dispatch-w2", "pure-go"} {
			acc := make([]int32, m*nw)
			for i := range acc {
				acc[i] = -1 // dirty: every column must be overwritten
			}
			switch path {
			case "dispatch":
				Gemm8Wide(m, nw, ckk, ap, padded8, off, acc, 1)
			case "dispatch-w2": // two column stripes, as two workers split them
				if !hasAVX2 {
					ParallelRows(m, 2, func(i0, i1 int) { gemm8NNW(i0, i1, nw, ckk, ap, padded8, off, acc) })
					break
				}
				j := nw / 16 * 8
				gemm8WideStripe(m, nw, ckk, ap, padded8, off, acc, 0, j)
				gemm8WideStripe(m, nw, ckk, ap, padded8, off, acc, j, nw)
			case "pure-go":
				gemm8NNW(0, m, nw, ckk, ap, padded8, off, acc)
			}
			got := keptColumns(acc, m, oh, ow, pw)
			for i := range want8 {
				if got[i] != want8[i] {
					t.Fatalf("%s int8 %s (ckk %d): output %d = %d, want %d", name, path, ckk, i, got[i], want8[i])
				}
			}
		}
	}
}

// TestOffsetTableRejectedBeforeKernel pins the wrappers' guard: an
// offset table shorter than k, negative, or with a row reaching past
// len(b) panics in Go before any assembly can read out of bounds.
func TestOffsetTableRejectedBeforeKernel(t *testing.T) {
	const m, n, k = 2, 16, 3
	a32, c32 := make([]float32, m*k), make([]float32, m*n)
	a16, c8 := make([]int16, m*packedK(k)), make([]int32, m*n)
	b32, b8 := make([]float32, 40), make([]int8, 40)
	for name, off := range map[string][]int{
		"past end": {0, 8, 25}, // 25+16 > 40
		"negative": {0, -1, 8},
		"short":    {0, 8},
	} {
		for kernel, run := range map[string]func(){
			"GemmOff":   func() { GemmOff(m, n, k, a32, b32, off, c32, false, 1) },
			"Gemm8Wide": func() { Gemm8Wide(m, n, k, a16, b8, off, c8, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s accepted an offset table %s", kernel, name)
					}
				}()
				run()
			}()
		}
	}
	// The last row may end exactly at len(b).
	GemmOff(m, n, k, a32, b32, []int{0, 8, 24}, c32, false, 1)
	Gemm8Wide(m, n, k, a16, b8, []int{0, 8, 24}, c8, 1)
}
