package cnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
)

// Network is a sequential stack of layers trained with softmax
// cross-entropy.
type Network struct {
	Layers []Layer
	// InC, InH, InW is the expected input shape.
	InC, InH, InW int
}

// NewNetwork validates that the layer stack is shape-consistent for the
// given input and returns the network.
func NewNetwork(inC, inH, inW int, layers ...Layer) (*Network, error) {
	c, h, w := inC, inH, inW
	for _, l := range layers {
		c, h, w = l.OutShape(c, h, w)
		if c <= 0 || h <= 0 || w <= 0 {
			return nil, fmt.Errorf("cnn: layer %s collapses shape to %dx%dx%d", l.Name(), c, h, w)
		}
	}
	return &Network{Layers: layers, InC: inC, InH: inH, InW: inW}, nil
}

// NumParams returns the total learnable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			total += len(p.Data)
		}
	}
	return total
}

// Forward runs the network and returns the raw logits.
func (n *Network) Forward(x *Tensor, train bool) *Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Predict returns the argmax class and the softmax probabilities.
func (n *Network) Predict(x *Tensor) (int, []float32) {
	logits := n.Forward(x, false)
	probs := Softmax(logits.Data)
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return best, probs
}

// Infer returns the argmax class without materializing softmax
// probabilities (softmax is monotone, so the argmax over logits is the
// same). Unlike Predict it allocates nothing in steady state: every
// layer reuses its inference output cache. The network must not be
// shared across goroutines during Infer for the same reason.
func (n *Network) Infer(x *Tensor) int {
	logits := n.Forward(x, false)
	best := 0
	for i, v := range logits.Data {
		if v > logits.Data[best] {
			best = i
		}
	}
	return best
}

// SetKernelWorkers bounds the goroutines each GEMM-backed layer may use
// for a single forward/backward pass, following the sim KernelWorkers
// convention: 0 means GOMAXPROCS, negative means serial. Results are
// bit-identical for every setting (the mat kernels' determinism
// contract). Note that any bound above 1 makes Infer spawn goroutines,
// trading the zero-alloc guarantee for latency — worth it for the larger
// classifier shapes, not for unit-test-sized inputs.
func (n *Network) SetKernelWorkers(workers int) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	for _, l := range n.Layers {
		if kw, ok := l.(kernelWorkered); ok {
			kw.setKernelWorkers(workers)
		}
	}
}

// Softmax returns the normalized exponentials of v.
func Softmax(v []float32) []float32 {
	maxV := v[0]
	for _, x := range v {
		if x > maxV {
			maxV = x
		}
	}
	out := make([]float32, len(v))
	var sum float64
	for i, x := range v {
		e := math.Exp(float64(x - maxV))
		out[i] = float32(e)
		sum += e
	}
	for i := range out {
		out[i] = float32(float64(out[i]) / sum)
	}
	return out
}

// Backward propagates a logit gradient through the network, accumulating
// parameter gradients.
func (n *Network) Backward(grad *Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
	}
}

// SGDStep applies one momentum-SGD update: v = mu v - lr (g/batch + wd w);
// w += v. Gradients are globally norm-clipped to maxGradNorm first, which
// keeps small-dataset training stable when a batch produces an outlier
// gradient.
func (n *Network) SGDStep(lr, momentum, weightDecay float64, batch int) {
	inv := float32(1 / float64(batch))
	var norm2 float64
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			for _, g := range p.Grad {
				gg := float64(g) * float64(inv)
				norm2 += gg * gg
			}
		}
	}
	clip := float32(1)
	if norm := math.Sqrt(norm2); norm > maxGradNorm {
		clip = float32(maxGradNorm / norm)
	}
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			for i := range p.Data {
				g := p.Grad[i]*inv*clip + float32(weightDecay)*p.Data[i]
				p.Vel[i] = float32(momentum)*p.Vel[i] - float32(lr)*g
				p.Data[i] += p.Vel[i]
			}
		}
	}
}

// maxGradNorm is the global gradient-norm clip applied by SGDStep.
const maxGradNorm = 4.0

// Sample is one labeled training example.
type Sample struct {
	X     *Tensor
	Label int
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	Seed        int64
	// Workers is the number of goroutines that compute per-sample
	// gradients within a minibatch; 0 or 1 trains serially. Trained
	// weights are bit-identical for every value (see train.go), so this
	// is purely a throughput knob. Parallel training clones every layer,
	// so it takes only the layer types this package defines; a network
	// with a Layer implemented elsewhere must train with Workers <= 1.
	Workers int
	// Log, when set, is invoked after every epoch with the epoch's mean
	// loss and training accuracy.
	Log func(epoch int, loss float64, acc float64)
}

// DefaultTrainConfig returns the settings used by the classifier training
// harness.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 12, BatchSize: 16, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, Seed: 1}
}

// Evaluate returns the accuracy of the network on labeled samples.
func (n *Network) Evaluate(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if pred, _ := n.Predict(s.X); pred == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// ResNetLite builds the residual classifier architecture used for all
// three situation classifiers: a stem convolution, three basic blocks
// with one downsampling stage, and a dense head over the flattened
// feature map. The spatial head matters: road-layout classification
// depends on WHERE the lane features sit in the frame (a left curve's
// vanishing geometry), which global average pooling would erase.
// Input is inC×inH×inW; the paper's ResNet-18 is the same family at depth
// 18 — see DESIGN.md for the substitution rationale.
func ResNetLite(inC, inH, inW, classes int, seed int64) (*Network, error) {
	rng := rand.New(rand.NewSource(seed))
	body := []Layer{
		NewConv2D(inC, 8, 3, 1, 1, rng),
		&ReLU{},
		&MaxPool2{},
		NewResidual(8, 8, 1, rng),
		NewResidual(8, 16, 2, rng),
		NewResidual(16, 16, 1, rng),
	}
	c, h, w := inC, inH, inW
	for _, l := range body {
		c, h, w = l.OutShape(c, h, w)
	}
	layers := append(body, NewDense(c*h*w, classes, rng))
	return NewNetwork(inC, inH, inW, layers...)
}
