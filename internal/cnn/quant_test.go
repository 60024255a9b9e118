package cnn

import (
	"math"
	"math/rand"
	"testing"
)

// quantTestNet returns a briefly-trained small ResNetLite so quantized
// tests run against non-random weights.
func quantTestNet(t *testing.T) (*Network, []Sample) {
	t.Helper()
	samples := toyDataset(24, 5, 3, 12, 16, 6)
	net, err := ResNetLite(3, 12, 16, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 8
	net.Fit(samples, cfg)
	return net, samples
}

// TestQuantizeLabelAgreement checks the quantized net predicts the same
// labels as float32 on a toy set — perfect agreement is not guaranteed
// in general (that bound is pinned per eval set in internal/classifier),
// but wild disagreement here means the requantize math is wrong.
func TestQuantizeLabelAgreement(t *testing.T) {
	net, samples := quantTestNet(t)
	q, err := Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	disagree := 0
	for _, s := range samples {
		if q.Infer(s.X) != net.Infer(s.X) {
			disagree++
		}
	}
	if disagree > len(samples)/10 {
		t.Fatalf("%d/%d labels disagree with float32", disagree, len(samples))
	}
}

// TestQuantizeLogitsClose bounds the quantized logit error relative to
// the float32 logit scale.
func TestQuantizeLogitsClose(t *testing.T) {
	net, samples := quantTestNet(t)
	q, err := Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		want := net.Forward(s.X, false)
		var scale float64
		for _, v := range want.Data {
			scale = math.Max(scale, math.Abs(float64(v)))
		}
		got := q.Forward(s.X)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("sample %d: %d logits, want %d", i, len(got.Data), len(want.Data))
		}
		for j := range want.Data {
			if diff := math.Abs(float64(got.Data[j] - want.Data[j])); diff > 0.15*math.Max(scale, 1) {
				t.Fatalf("sample %d logit %d: int8 %v vs float32 %v (scale %v)",
					i, j, got.Data[j], want.Data[j], scale)
			}
		}
	}
}

// TestQNetWorkerCountInvariant pins serial-vs-parallel bit-identity of
// the whole quantized forward pass: int32 accumulation is exact, so any
// worker split must reproduce the serial logits bitwise.
func TestQNetWorkerCountInvariant(t *testing.T) {
	net, samples := quantTestNet(t)
	q, err := Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	x := samples[0].X
	q.SetKernelWorkers(-1)
	ref := append([]float32(nil), q.Forward(x).Data...)
	for _, workers := range []int{2, 4, 0} {
		q.SetKernelWorkers(workers)
		got := q.Forward(x)
		for i := range ref {
			if math.Float32bits(got.Data[i]) != math.Float32bits(ref[i]) {
				t.Fatalf("workers=%d logit %d = %v, want %v", workers, i, got.Data[i], ref[i])
			}
		}
	}
}

// TestQNetSteadyStateAllocs pins the zero-allocation contract of the
// serial quantized inference path.
func TestQNetSteadyStateAllocs(t *testing.T) {
	net, samples := quantTestNet(t)
	q, err := Quantize(net)
	if err != nil {
		t.Fatal(err)
	}
	x := samples[0].X
	q.Infer(x) // warm layer caches
	if allocs := testing.AllocsPerRun(50, func() { q.Infer(x) }); allocs != 0 {
		t.Fatalf("steady-state quantized Infer allocates %v times per call", allocs)
	}
}

// TestQResidualReLUMatchesFloat pins the int8 residual's fused post-sum
// ReLU to the float32 ReLU bit for bit: NaN and −0 sums come out +0
// (the branchy `if v < 0` it replaced let both through), and the
// returned bound is the largest output.
func TestQResidualReLUMatchesFloat(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	a := []float32{negZero, nan, -1, 2, 3, -inf, nan, 0, math.Float32frombits(1), 1e-45}
	b := []float32{negZero, 1, 0.5, 3, -1, 2, -nan, negZero, 0, -1e-45}
	dst := make([]float32, len(a))
	bound := addReLU(dst, a, b)
	var want float32
	for i := range a {
		w := branchyReLU(a[i] + b[i])
		if math.Float32bits(dst[i]) != math.Float32bits(w) {
			t.Fatalf("ReLU(%v + %v) = %v (%#x), want %v (%#x)",
				a[i], b[i], dst[i], math.Float32bits(dst[i]), w, math.Float32bits(w))
		}
		want = max(want, w)
	}
	if bound != want {
		t.Fatalf("bound %v, want %v", bound, want)
	}

	// Through the whole block: a NaN skip input must leave +0, not NaN.
	rng := rand.New(rand.NewSource(13))
	q := newQResidual(NewResidual(2, 2, 1, rng))
	x := randTensor(rng, 2, 4, 4)
	x.Data[5] = nan
	out, _ := q.forward(x, -1)
	if v := out.Data[5]; math.Float32bits(v) != 0 {
		t.Fatalf("NaN skip sum gives %v (%#x), want +0", v, math.Float32bits(v))
	}
}

// TestRequantizeMonotoneSaturating property-checks the full
// requantization chain on a single quantized dense layer: increasing
// one input coordinate (all weights positive) must never decrease the
// output, and outputs stay finite/stable once inputs drive the int8
// representation to its ±127 saturation bounds.
func TestRequantizeMonotoneSaturating(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const in = 16
	d := NewDense(in, 1, rng)
	for i := range d.W.Data {
		d.W.Data[i] = float32(rng.Float64()*0.9 + 0.1) // strictly positive
	}
	d.B.Data[0] = 0.25
	q := newQDense(d)

	x := NewTensor(in, 1, 1)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	eval := func(v float32) float32 {
		x.Data[3] = v
		out, _ := q.forward(x, -1)
		return out.Data[0]
	}
	prev := eval(-1e6) // deep in saturation
	for _, v := range []float32{-1e3, -5, -1, -0.25, 0, 0.25, 1, 5, 1e3, 1e6} {
		cur := eval(v)
		if math.IsNaN(float64(cur)) || math.IsInf(float64(cur), 0) {
			t.Fatalf("x[3]=%v: non-finite output %v", v, cur)
		}
		if cur < prev-1e-3 {
			t.Fatalf("not monotone: x[3]=%v gives %v after %v", v, cur, prev)
		}
		prev = cur
	}
	// Saturation: once the coordinate dominates max|x|, its quantized
	// code pins at 127 while the activation scale keeps growing, so the
	// output keeps growing in v but every int8 code stays in ±127 (the
	// mat-level property test pins the codes; here we check stability).
	if s1, s2 := eval(1e7), eval(1e8); math.IsInf(float64(s2), 0) || s2 < s1 {
		t.Fatalf("saturated outputs regress: %v then %v", s1, s2)
	}
}

// TestQuantizeRejectsUnknownLayer ensures Quantize fails loudly on a
// layer without a quantized implementation.
func TestQuantizeRejectsUnknownLayer(t *testing.T) {
	net := &Network{Layers: []Layer{unquantizable{}}, InC: 1, InH: 1, InW: 1}
	if _, err := Quantize(net); err == nil {
		t.Fatal("Quantize accepted an unsupported layer")
	}
}

type unquantizable struct{}

func (unquantizable) Name() string                          { return "mystery" }
func (unquantizable) Params() []*Param                      { return nil }
func (unquantizable) OutShape(c, h, w int) (int, int, int)  { return c, h, w }
func (unquantizable) Forward(x *Tensor, train bool) *Tensor { return x }
func (unquantizable) Backward(grad *Tensor) *Tensor         { return grad }
