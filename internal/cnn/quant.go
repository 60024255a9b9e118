// Quantize-after-training int8 inference: QNet is the quantized,
// inference-only companion of a trained float32 Network.
//
// Scheme (per-tensor symmetric): a tensor x is represented as q·s with
// q ∈ [-127, 127] int8 and s = max|x|/127 (mat.Scale8). Weight scales
// are static — computed once from the trained float32 weights (and
// persisted alongside them, see persist.go); activation scales are
// dynamic, recomputed from each layer input per inference. Only the
// GEMM-backed layers (Conv2D, Dense) run int8: products accumulate
// exactly in int32 and a single requantize step rescales by sw·sx and
// adds the float32 bias. ReLU, pooling and the residual sum stay
// float32 — they are O(pixels), not O(pixels·taps), so quantizing them
// would buy nothing and cost accuracy. What the quantized graph does do
// is fuse the cheap passes away: a ReLU following a convolution folds
// into the requantize loop, the residual's post-sum ReLU folds into the
// sum loop, and every producer reports an upper bound on its output's
// max-abs so consumers derive activation scales without re-scanning
// (conservative bounds — e.g. through a max-pool that drops the max
// pixel — only coarsen the quantization grid slightly, never saturate
// it, since codes stay within ±127 whenever bound >= max|x|).
//
// Like Network.Infer, QNet.Infer allocates nothing in steady state
// (layer output and scratch buffers are pooled) and is bit-deterministic
// for every kernel worker count — trivially so, since int32 accumulation
// is exact (see internal/mat/gemm8.go). A QNet must not be shared across
// goroutines during Infer.
package cnn

import (
	"fmt"
	"math"
	"runtime"

	"hsas/internal/mat"
)

// growI8 is growF32 for int8 scratch (dirty-buffer contract).
func growI8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	return buf[:n]
}

// growI32 is growF32 for int32 accumulators (dirty-buffer contract).
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// qLayer is one inference-only quantized layer. forward takes an upper
// bound on max|x| of its input (negative when unknown, forcing a scan)
// and returns the output plus an upper bound on its max-abs — letting
// each consumer derive its activation quantization scale without
// re-scanning the tensor the producer just wrote.
type qLayer interface {
	forward(x *Tensor, bound float32) (*Tensor, float32)
	setWorkers(n int)
}

// QNet is a quantized inference network produced by Quantize.
type QNet struct {
	// InC, InH, InW is the expected input shape (same as the source
	// Network).
	InC, InH, InW int
	ops           []qLayer
}

// Quantize builds the int8 inference companion of a trained network,
// quantizing every GEMM-backed layer with per-tensor symmetric weight
// scales computed from the current float32 weights. The source network
// is not modified and remains the training/float32 path; errors are
// returned for layer types without a quantized implementation.
func Quantize(n *Network) (*QNet, error) {
	q := &QNet{InC: n.InC, InH: n.InH, InW: n.InW}
	for i := 0; i < len(n.Layers); i++ {
		// Conv2D immediately followed by ReLU fuses into one op: the
		// requantize loop clamps at zero, so the activation tensor is
		// written (and its max tracked) exactly once.
		if cv, ok := n.Layers[i].(*Conv2D); ok && i+1 < len(n.Layers) {
			if _, isRelu := n.Layers[i+1].(*ReLU); isRelu {
				q.ops = append(q.ops, newQConv(cv, true))
				i++
				continue
			}
		}
		op, err := quantizeLayer(n.Layers[i])
		if err != nil {
			return nil, err
		}
		q.ops = append(q.ops, op)
	}
	return q, nil
}

func quantizeLayer(l Layer) (qLayer, error) {
	switch t := l.(type) {
	case *Conv2D:
		return newQConv(t, false), nil
	case *Dense:
		return newQDense(t), nil
	case *ReLU:
		return &qReLU{}, nil
	case *MaxPool2:
		return &qMaxPool{}, nil
	case *GlobalAvgPool:
		return &qAvgPool{}, nil
	case *Residual:
		return newQResidual(t), nil
	}
	return nil, fmt.Errorf("cnn: cannot quantize layer %s", l.Name())
}

// Forward runs the quantized network and returns the float32 logits.
func (q *QNet) Forward(x *Tensor) *Tensor {
	bound := float32(-1) // unknown: the first GEMM layer scans its input
	for _, op := range q.ops {
		x, bound = op.forward(x, bound)
	}
	return x
}

// Infer returns the argmax class, allocating nothing in steady state.
func (q *QNet) Infer(x *Tensor) int {
	logits := q.Forward(x)
	best := 0
	for i, v := range logits.Data {
		if v > logits.Data[best] {
			best = i
		}
	}
	return best
}

// SetKernelWorkers bounds the goroutines each quantized GEMM layer may
// use, with the same convention as Network.SetKernelWorkers: 0 means
// GOMAXPROCS, negative means serial. Results are bit-identical for
// every setting.
func (q *QNet) SetKernelWorkers(workers int) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	for _, op := range q.ops {
		op.setWorkers(workers)
	}
}

// requantize applies the single requantize step: for each of the
// len(bias) output channels and each of its oh·ow outputs,
// out = acc·scale + bias[oc], clamped at zero when relu is fused in. It
// returns max|out|, computed in the same pass so the next layer's
// quantization scale needs no extra scan. Output (oc, oy, ox) reads
// acc[oc·n + oy·pitch + ox]: n = oh·ow and pitch = ow for a packed
// product; for a stride-1 convolution's implicit product n is its
// column count and pitch the padded width, and the columns between the
// kept runs are skipped here rather than compacted in a separate pass.
// Both loops are branch-free in the sign of y (pre-activation signs are
// near-random, so sign branches would mispredict every other element):
// the fused ReLU zeroes negatives by masking the float bits, and the
// running max compares bit patterns, which order like floats once the
// sign bit is cleared.
func requantize(acc []int32, n, pitch int, scale float32, bias, out []float32, oh, ow int, relu bool) float32 {
	var m uint32
	for oc, b := range bias {
		for oy := 0; oy < oh; oy++ {
			accRow := acc[oc*n+oy*pitch : oc*n+oy*pitch+ow]
			outRow := out[(oc*oh+oy)*ow : (oc*oh+oy+1)*ow][:len(accRow)]
			if relu {
				for j, v := range accRow {
					y := float32(v)*scale + b
					yb := math.Float32bits(y)
					yb &^= uint32(int32(yb) >> 31) // negative → +0: fused ReLU
					outRow[j] = math.Float32frombits(yb)
					m = max(m, yb)
				}
			} else {
				for j, v := range accRow {
					y := float32(v)*scale + b
					outRow[j] = y
					m = max(m, math.Float32bits(y)&^(1<<31))
				}
			}
		}
	}
	return math.Float32frombits(m)
}

// invScale returns the quantization reciprocal for a scale (0 for the
// all-zero tensor, making Quantize8 map everything to 0).
func invScale(s float32) float32 {
	if s > 0 {
		return 1 / s
	}
	return 0
}

// qConv is the quantized Conv2D: the input quantized once into a
// zero-bordered int8 staging buffer, then the k-pair int8 A·B kernel
// (mat.Gemm8Wide — the VPMADDWD microkernel on amd64) — reading that
// buffer in place through mat.ConvOffsets at stride 1, or the patch
// matrix mat.Im2colQ gathers from it at stride 2 — the same lowering as
// the float32 conv, on operands a quarter the size.
type qConv struct {
	inC, outC, k, stride, pad int
	wq                        []int16 // quantized weights in mat.Pack8 form
	ws                        float32 // per-tensor symmetric weight scale
	bias                      []float32
	relu                      bool // fuse the following ReLU into requantize

	workers int

	out     *Tensor
	col     []int8  // quantized patch matrix, (inC·k·k) × (oh·ow); stride 2 only
	padded8 []int8  // quantized zero-bordered input staging
	off     []int   // B row-offset table of the GEMM
	acc     []int32 // int32 accumulators
}

func newQConv(c *Conv2D, relu bool) *qConv {
	ws := mat.Scale8(c.W.Data)
	wq := make([]int8, len(c.W.Data))
	mat.Quantize8Slice(c.W.Data, invScale(ws), wq)
	return &qConv{
		inC: c.InC, outC: c.OutC, k: c.K, stride: c.Stride, pad: c.Pad,
		wq: mat.Pack8(wq, c.OutC, c.InC*c.K*c.K), ws: ws, bias: append([]float32(nil), c.B.Data...),
		relu: relu,
	}
}

func (q *qConv) setWorkers(n int) { q.workers = n }

func (q *qConv) forward(x *Tensor, bound float32) (*Tensor, float32) {
	if x.C != q.inC {
		panic(fmt.Sprintf("cnn: quantized conv got %d input channels, want %d", x.C, q.inC))
	}
	oh := mat.ConvOutSize(x.H, q.k, q.stride, q.pad)
	ow := mat.ConvOutSize(x.W, q.k, q.stride, q.pad)
	out := ensureTensor(&q.out, q.outC, oh, ow)
	ckk := q.inC * q.k * q.k
	ph, pw := x.H+2*q.pad, x.W+2*q.pad

	sx := bound / 127
	if bound < 0 {
		sx = mat.Scale8(x.Data)
	}
	workers := layerWorkers(q.workers)
	if q.stride != 1 {
		p := oh * ow
		q.col = growI8(q.col, ckk*p)
		q.padded8 = growI8(q.padded8, q.inC*ph*pw)
		q.acc = growI32(q.acc, q.outC*p)
		q.off = mat.RowOffsets(ckk, p, q.off)
		mat.Im2colQ(x.Data, x.C, x.H, x.W, q.k, q.stride, q.pad, invScale(sx), q.padded8, q.col)
		mat.Gemm8Wide(q.outC, p, ckk, q.wq, q.col, q.off, q.acc, workers)
		return out, requantize(q.acc, p, ow, q.ws*sx, q.bias, out.Data, oh, ow, q.relu)
	}
	n, slack := implicitCols(oh, ow, pw)
	q.padded8 = growI8(q.padded8, q.inC*ph*pw+slack)
	padded := mat.QuantizePad(x.Data, x.C, x.H, x.W, q.pad, invScale(sx), q.padded8)
	clear(q.padded8[len(padded):])
	q.acc = growI32(q.acc, q.outC*n)
	q.off = mat.ConvOffsets(q.inC, q.k, ph, pw, q.off)
	mat.Gemm8Wide(q.outC, n, ckk, q.wq, q.padded8, q.off, q.acc, workers)
	return out, requantize(q.acc, n, pw, q.ws*sx, q.bias, out.Data, oh, ow, q.relu)
}

// qDense is the quantized fully connected layer: a packed int8 GEMV.
type qDense struct {
	in, out int
	wq      []int8
	ws      float32
	bias    []float32

	workers int

	outT *Tensor
	xq   []int8
	acc  []int32
}

func newQDense(d *Dense) *qDense {
	ws := mat.Scale8(d.W.Data)
	wq := make([]int8, len(d.W.Data))
	mat.Quantize8Slice(d.W.Data, invScale(ws), wq)
	return &qDense{
		in: d.In, out: d.Out,
		wq: wq, ws: ws, bias: append([]float32(nil), d.B.Data...),
	}
}

func (q *qDense) setWorkers(n int) { q.workers = n }

func (q *qDense) forward(x *Tensor, bound float32) (*Tensor, float32) {
	if len(x.Data) != q.in {
		panic(fmt.Sprintf("cnn: quantized dense got %d inputs, want %d", len(x.Data), q.in))
	}
	out := ensureTensor(&q.outT, q.out, 1, 1)
	q.xq = growI8(q.xq, q.in)
	q.acc = growI32(q.acc, q.out)

	sx := bound / 127
	if bound < 0 {
		sx = mat.Scale8(x.Data)
	}
	mat.Quantize8Slice(x.Data, invScale(sx), q.xq)
	mat.Gemm8NT(q.out, 1, q.in, q.wq, q.xq, q.acc, layerWorkers(q.workers))
	return out, requantize(q.acc, 1, 1, q.ws*sx, q.bias, out.Data, 1, 1, false)
}

// qReLU, qMaxPool and qAvgPool are the float32 element-wise layers with
// their own pooled output buffers (the quantized net never borrows the
// float32 network's caches, so both can be kept warm side by side).
type qReLU struct{ out *Tensor }

func (q *qReLU) setWorkers(int) {}

func (q *qReLU) forward(x *Tensor, _ float32) (*Tensor, float32) {
	out := ensureTensor(&q.out, x.C, x.H, x.W)
	var m float32
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			if v > m {
				m = v
			}
		} else {
			out.Data[i] = 0
		}
	}
	return out, m
}

type qMaxPool struct{ out *Tensor }

func (q *qMaxPool) setWorkers(int) {}

// forward pools 2×2 windows with the branch-free mat.MaxPool2 scan, each
// window seeded with its first element. Every output value is one of the
// input values, so max|out| <= max|in| and the input bound passes
// through unchanged.
func (q *qMaxPool) forward(x *Tensor, bound float32) (*Tensor, float32) {
	out := ensureTensor(&q.out, x.C, x.H/2, x.W/2)
	mat.MaxPool2(x.Data, x.C, x.H, x.W, out.Data, 0, false)
	return out, bound
}

type qAvgPool struct{ out *Tensor }

func (q *qAvgPool) setWorkers(int) {}

// forward averages each channel; |mean| <= max|in|, so the input bound
// passes through unchanged.
func (q *qAvgPool) forward(x *Tensor, bound float32) (*Tensor, float32) {
	out := ensureTensor(&q.out, x.C, 1, 1)
	n := float32(x.H * x.W)
	for c := 0; c < x.C; c++ {
		var s float32
		for i := c * x.H * x.W; i < (c+1)*x.H*x.W; i++ {
			s += x.Data[i]
		}
		out.Data[c] = s / n
	}
	return out, bound
}

// qResidual is the quantized basic block: quantized convolutions around
// a float32 skip sum. The inner ReLU fuses into conv1's requantize; the
// post-sum ReLU fuses into the sum loop — the float32 ReLU's branch-free
// bit mask, so NaN and −0 become +0 there too — which also tracks the
// output max for the next layer's quantization scale.
type qResidual struct {
	conv1, conv2 *qConv
	proj         *qConv // nil for identity skip
	sum          *Tensor
}

func newQResidual(r *Residual) *qResidual {
	q := &qResidual{conv1: newQConv(r.Conv1, true), conv2: newQConv(r.Conv2, false)}
	if r.Proj != nil {
		q.proj = newQConv(r.Proj, false)
	}
	return q
}

func (q *qResidual) setWorkers(n int) {
	q.conv1.setWorkers(n)
	q.conv2.setWorkers(n)
	if q.proj != nil {
		q.proj.setWorkers(n)
	}
}

func (q *qResidual) forward(x *Tensor, bound float32) (*Tensor, float32) {
	t1, b1 := q.conv1.forward(x, bound)
	main, _ := q.conv2.forward(t1, b1)
	skip := x
	if q.proj != nil {
		skip, _ = q.proj.forward(x, bound)
	}
	if !main.SameShape(skip) {
		panic("cnn: quantized residual shape mismatch")
	}
	sum := ensureTensor(&q.sum, main.C, main.H, main.W)
	return sum, addReLU(sum.Data, main.Data, skip.Data)
}

// addReLU writes dst[i] = ReLU(a[i] + b[i]) with the float32 ReLU's bit
// mask (reluBits: NaN and −0 sums become +0) and returns max(dst),
// tracked on the bits: the outputs are never negative, and non-negative
// floats order like their bit patterns.
func addReLU(dst, a, b []float32) float32 {
	var m uint32
	for i := range dst {
		v := reluBits(math.Float32bits(a[i] + b[i]))
		dst[i] = math.Float32frombits(v)
		m = max(m, v)
	}
	return math.Float32frombits(m)
}
