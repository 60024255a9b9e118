package cnn

import (
	"math"
	"math/rand"
	"testing"
)

// The golden tests pin the GEMM-lowered Conv2D and Dense passes
// bit-identical to the retained naive reference implementations in
// reference_test.go, across odd geometries (stride 2, pad 1, non-square,
// InC=1, 1×1 projection kernels) and kernel worker counts.

func assertBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

var convCases = []struct {
	name                      string
	inC, outC, k, stride, pad int
	h, w                      int
}{
	{"stem3x3", 3, 8, 3, 1, 1, 24, 48},
	{"stride2", 8, 16, 3, 2, 1, 12, 24},
	{"proj1x1s2", 8, 16, 1, 2, 0, 12, 24},
	{"inC1", 1, 4, 5, 2, 2, 13, 9},
	{"nonsquare-nopad", 4, 6, 3, 1, 0, 7, 11},
	{"wide", 2, 8, 3, 1, 1, 40, 80},
}

func TestConvGoldenEquivalence(t *testing.T) {
	for _, tc := range convCases {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(7))
			c := NewConv2D(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, rng)
			c.setKernelWorkers(workers)
			x := randTensor(rng, tc.inC, tc.h, tc.w)

			wantOut := refConvForward(c, x)
			gotInfer := c.Forward(x, false)
			assertBits(t, tc.name+"/forward-infer", gotInfer.Data, wantOut.Data)
			gotTrain := c.Forward(x, true)
			assertBits(t, tc.name+"/forward-train", gotTrain.Data, wantOut.Data)

			grad := randTensor(rng, wantOut.C, wantOut.H, wantOut.W)
			dW := make([]float32, len(c.W.Grad))
			dB := make([]float32, len(c.B.Grad))
			wantDx := refConvBackward(c, x, grad, dW, dB)
			gotDx := c.Backward(grad)
			assertBits(t, tc.name+"/dx", gotDx.Data, wantDx.Data)
			assertBits(t, tc.name+"/dW", c.W.Grad, dW)
			assertBits(t, tc.name+"/dB", c.B.Grad, dB)

			// Second backward pass: gradients must accumulate, not reset.
			c.Forward(x, true)
			wantDx2 := refConvBackward(c, x, grad, dW, dB)
			gotDx2 := c.Backward(grad)
			assertBits(t, tc.name+"/dx-2", gotDx2.Data, wantDx2.Data)
			assertBits(t, tc.name+"/dW-acc", c.W.Grad, dW)
			assertBits(t, tc.name+"/dB-acc", c.B.Grad, dB)
		}
	}
}

func TestDenseGoldenEquivalence(t *testing.T) {
	for _, tc := range []struct{ in, out int }{{1152, 3}, {97, 13}, {5, 1}} {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(11))
			d := NewDense(tc.in, tc.out, rng)
			d.setKernelWorkers(workers)
			x := randTensor(rng, 1, 1, tc.in)

			wantOut := refDenseForward(d, x)
			assertBits(t, "dense/forward-infer", d.Forward(x, false).Data, wantOut.Data)
			assertBits(t, "dense/forward-train", d.Forward(x, true).Data, wantOut.Data)

			grad := randTensor(rng, tc.out, 1, 1)
			dW := make([]float32, len(d.W.Grad))
			dB := make([]float32, len(d.B.Grad))
			wantDx := refDenseBackward(d, x, grad, dW, dB)
			gotDx := d.Backward(grad)
			assertBits(t, "dense/dx", gotDx.Data, wantDx.Data)
			assertBits(t, "dense/dW", d.W.Grad, dW)
			assertBits(t, "dense/dB", d.B.Grad, dB)
		}
	}
}

// TestNetworkInferMatchesReference runs a full ResNetLite forward through
// the reference kernels and through the lowered path, serial and
// parallel, asserting identical logits bits end to end.
func TestNetworkInferMatchesReference(t *testing.T) {
	net, err := ResNetLite(3, 24, 48, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := randTensor(rng, 3, 24, 48)

	ref := x
	for _, l := range net.Layers {
		ref = refForward(l, ref)
	}
	want := append([]float32(nil), ref.Data...)

	got := net.Forward(x, false)
	assertBits(t, "net/serial", got.Data, want)

	net.SetKernelWorkers(4)
	got = net.Forward(x, false)
	assertBits(t, "net/workers4", got.Data, want)
}
