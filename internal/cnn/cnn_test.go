package cnn

import (
	"math"
	"math/rand"
	"testing"
)

func TestSoftmaxProperties(t *testing.T) {
	p := Softmax([]float32{1, 2, 3})
	var sum float64
	for _, v := range p {
		if v <= 0 {
			t.Fatalf("softmax produced %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sum %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("softmax ordering broken: %v", p)
	}
	// Large logits must not overflow.
	p = Softmax([]float32{1000, 1000, 999})
	if math.IsNaN(float64(p[0])) {
		t.Fatal("softmax overflowed")
	}
}

func TestConvKnownKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(1, 1, 3, 1, 1, rng)
	// Identity kernel: center tap 1.
	for i := range c.W.Data {
		c.W.Data[i] = 0
	}
	c.W.Data[4] = 1
	x := NewTensor(1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := c.Forward(x, false)
	for i := range y.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv changed pixel %d: %v", i, y.Data[i])
		}
	}
}

func TestConvStrideShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(3, 8, 3, 2, 1, rng)
	oc, oh, ow := c.OutShape(3, 32, 64)
	if oc != 8 || oh != 16 || ow != 32 {
		t.Fatalf("OutShape = %d %d %d", oc, oh, ow)
	}
	y := c.Forward(NewTensor(3, 32, 64), false)
	if y.C != 8 || y.H != 16 || y.W != 32 {
		t.Fatalf("forward shape = %d %d %d", y.C, y.H, y.W)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	m := &MaxPool2{}
	x := NewTensor(1, 2, 2)
	x.Data = []float32{1, 5, 3, 2}
	y := m.Forward(x, true)
	if y.Data[0] != 5 {
		t.Fatalf("maxpool = %v", y.Data[0])
	}
	g := NewTensor(1, 1, 1)
	g.Data[0] = 2
	dx := m.Backward(g)
	want := []float32{0, 2, 0, 0}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("maxpool grad = %v", dx.Data)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := &GlobalAvgPool{}
	x := NewTensor(2, 2, 2)
	x.Data = []float32{1, 2, 3, 4, 10, 10, 10, 10}
	y := g.Forward(x, true)
	if y.Data[0] != 2.5 || y.Data[1] != 10 {
		t.Fatalf("gap = %v", y.Data)
	}
	grad := NewTensor(2, 1, 1)
	grad.Data = []float32{4, 8}
	dx := g.Backward(grad)
	if dx.Data[0] != 1 || dx.Data[4] != 2 {
		t.Fatalf("gap grad = %v", dx.Data)
	}
}

// numericalGrad estimates dLoss/dtheta by central differences.
func numericalGrad(n *Network, x *Tensor, label int, p *Param, i int) float64 {
	const eps = 1e-3
	loss := func() float64 {
		logits := n.Forward(x, false)
		return lossAndGradInto(logits, label, NewTensor(logits.C, logits.H, logits.W))
	}
	orig := p.Data[i]
	p.Data[i] = orig + eps
	l1 := loss()
	p.Data[i] = orig - eps
	l2 := loss()
	p.Data[i] = orig
	return (l1 - l2) / (2 * eps)
}

// TestGradientCheck verifies analytic gradients of a small conv network
// against finite differences — the core correctness property of the
// framework.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := NewNetwork(2, 6, 6,
		NewConv2D(2, 3, 3, 1, 1, rng),
		&ReLU{},
		&MaxPool2{},
		NewResidual(3, 4, 2, rng),
		&GlobalAvgPool{},
		NewDense(4, 3, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	x := NewTensor(2, 6, 6)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	label := 1
	net.ZeroGrad()
	logits := net.Forward(x, true)
	g := NewTensor(logits.C, logits.H, logits.W)
	lossAndGradInto(logits, label, g)
	net.Backward(g)

	checked := 0
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			// Spot-check a few indices per parameter tensor.
			for _, i := range []int{0, len(p.Data) / 2, len(p.Data) - 1} {
				want := numericalGrad(net, x, label, p, i)
				got := float64(p.Grad[i])
				if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
					t.Fatalf("%s grad[%d] = %v, want %v", l.Name(), i, got, want)
				}
				checked++
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d gradients checked", checked)
	}
}

func TestLossDecreasesOnToyProblem(t *testing.T) {
	// Two classes separable by mean intensity.
	rng := rand.New(rand.NewSource(3))
	var samples []Sample
	for i := 0; i < 60; i++ {
		x := NewTensor(1, 8, 8)
		label := i % 2
		base := float32(0.2)
		if label == 1 {
			base = 0.8
		}
		for j := range x.Data {
			x.Data[j] = base + float32(rng.NormFloat64())*0.05
		}
		samples = append(samples, Sample{X: x, Label: label})
	}
	net, err := NewNetwork(1, 8, 8,
		NewConv2D(1, 4, 3, 1, 1, rng),
		&ReLU{},
		&GlobalAvgPool{},
		NewDense(4, 2, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 12
	_, acc := net.Fit(samples, cfg)
	if acc < 0.95 {
		t.Fatalf("toy problem accuracy %v", acc)
	}
	if eval := net.Evaluate(samples); eval < 0.95 {
		t.Fatalf("toy eval accuracy %v", eval)
	}
}

func TestResNetLiteShapesAndTraining(t *testing.T) {
	net, err := ResNetLite(3, 24, 48, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumParams() < 1000 {
		t.Fatalf("suspiciously few params: %d", net.NumParams())
	}
	pred, probs := net.Predict(NewTensor(3, 24, 48))
	// Five output probabilities: the final layer is five classes wide.
	if pred < 0 || pred >= 5 || len(probs) != 5 {
		t.Fatalf("predict = %d %v", pred, probs)
	}
}

func TestNetworkShapeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Pooling an 1x1 input collapses it to zero: must error.
	if _, err := NewNetwork(1, 1, 1, &MaxPool2{}); err == nil {
		t.Fatal("collapsing network accepted")
	}
	if _, err := NewNetwork(1, 8, 8, NewConv2D(1, 2, 3, 1, 1, rng)); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
}

func TestLossAndGradShape(t *testing.T) {
	logits := NewTensor(3, 1, 1)
	logits.Data = []float32{0, 0, 0}
	grad := NewTensor(3, 1, 1)
	loss := lossAndGradInto(logits, 2, grad)
	if math.Abs(loss-math.Log(3)) > 1e-5 {
		t.Fatalf("uniform loss = %v, want ln 3", loss)
	}
	// Gradient sums to zero.
	var s float32
	for _, g := range grad.Data {
		s += g
	}
	if math.Abs(float64(s)) > 1e-6 {
		t.Fatalf("logit gradient sum = %v", s)
	}
}
