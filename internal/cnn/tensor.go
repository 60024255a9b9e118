// Package cnn is a small, dependency-free convolutional neural network
// framework (float32, CPU) used to train and run the paper's three
// light-weight situation classifiers (Table IV). It provides CHW tensors,
// convolution / pooling / dense layers, ResNet-style residual blocks,
// and softmax cross-entropy training with momentum SGD. Trained networks
// live in memory only: training is bit-deterministic for a given seed and
// configuration, so that configuration names a model.
//
// The paper uses ResNet-18 on an integrated Volta GPU; here the same
// residual architecture family is scaled to laptop-CPU training (the
// classifier inputs are small and the classes visually well-separated, so
// near-saturated accuracy is reached with far fewer parameters — see
// DESIGN.md's substitution table).
package cnn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense CHW float32 tensor.
type Tensor struct {
	C, H, W int
	Data    []float32
}

// NewTensor returns a zeroed tensor of the given shape.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("cnn: invalid tensor shape %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// SameShape reports whether two tensors have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool {
	return t.C == o.C && t.H == o.H && t.W == o.W
}

// Param is a learnable parameter with its gradient accumulator and
// momentum buffer.
type Param struct {
	Data, Grad, Vel []float32
}

func newParam(n int) *Param {
	return &Param{Data: make([]float32, n), Grad: make([]float32, n), Vel: make([]float32, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// heInit fills w with He-normal initialization for fanIn inputs.
func heInit(w []float32, fanIn int, rng *rand.Rand) {
	std := float32(math.Sqrt(2 / float64(fanIn)))
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * std
	}
}

// Layer is one differentiable stage of a network. Forward caches whatever
// Backward needs; Backward accumulates parameter gradients and returns
// the gradient with respect to its input.
type Layer interface {
	Forward(x *Tensor, train bool) *Tensor
	Backward(grad *Tensor) *Tensor
	Params() []*Param
	Name() string
	// OutShape computes the output shape for a given input shape,
	// used for architecture validation.
	OutShape(c, h, w int) (int, int, int)
}

// ensureTensor returns *p resized to c×h×w, reallocating only on shape
// change. It is the inference-path output cache: layers reuse their
// output tensor across Forward(train=false) calls, so a steady-state
// classifier invocation allocates nothing. Callers must fully overwrite
// the returned tensor's Data.
func ensureTensor(p **Tensor, c, h, w int) *Tensor {
	t := *p
	if t == nil || t.C != c || t.H != h || t.W != w {
		t = NewTensor(c, h, w)
		*p = t
	}
	return t
}
