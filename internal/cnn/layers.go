package cnn

import (
	"fmt"
	"math"
	"math/rand"

	"hsas/internal/mat"
)

// kernelWorkered is implemented by layers whose forward/backward passes
// run GEMM kernels; Network.SetKernelWorkers fans the bound out to them.
type kernelWorkered interface{ setKernelWorkers(int) }

// layerWorkers translates the layer-level worker field (zero value =
// never configured) into the bound handed to the mat kernels, where <= 0
// means GOMAXPROCS. An unconfigured layer stays serial — that is what
// keeps the steady-state Infer path goroutine- and allocation-free.
func layerWorkers(w int) int { return max(w, 1) }

// growF32 returns buf resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified — callers must fully
// overwrite (the same dirty-buffer contract as the raster pools).
func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// Conv2D is a 2D convolution with square kernels, configurable stride and
// zero padding, plus a per-output-channel bias.
//
// Both passes run on the GEMM lowering from internal/mat. A stride-1
// forward pass reads the zero-bordered input in place as its own patch
// matrix (mat.ConvOffsets): the product is computed at the padded width
// and one compaction copy drops the extra columns. A strided forward
// pass and the backward pass lower the input to a (InC·K·K) × (OH·OW)
// patch matrix (mat.Im2col); forward is one W·col product, and backward
// is grad·colᵀ (dW) plus Wᵀ·grad scattered by col2im (dx). All scratch
// (patch matrix, padded copy, gradients) is pooled per layer, so
// steady-state inference allocates nothing and training reuses its
// buffers across minibatches. The lowered passes are bit-identical to
// the naive reference convolution in reference_test.go (golden-tested)
// for every kernel worker count.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int
	W, B                      *Param

	workers int // GEMM goroutine bound; 0/1 = serial

	x        *Tensor   // cached input (training)
	out      *Tensor   // reused output (inference)
	trainOut *Tensor   // reused output (training)
	dx       *Tensor   // reused input gradient
	colBuf   []float32 // im2col patch matrix
	padBuf   []float32 // zero-bordered input copy for the lowering
	wideBuf  []float32 // stride-1 product at the padded width
	off      []int     // B row-offset table of the forward GEMM
	dcolBuf  []float32 // patch-matrix gradient (backward)
	dpadBuf  []float32 // padded scatter target for col2im
}

// NewConv2D constructs a convolution layer with He initialization.
func NewConv2D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad}
	c.W = newParam(outC * inC * k * k)
	c.B = newParam(outC)
	heInit(c.W.Data, inC*k*k, rng)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d,s%d,p%d)", c.K, c.K, c.InC, c.OutC, c.Stride, c.Pad)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// OutShape implements Layer.
func (c *Conv2D) OutShape(ci, h, w int) (int, int, int) {
	return c.OutC, (h+2*c.Pad-c.K)/c.Stride + 1, (w+2*c.Pad-c.K)/c.Stride + 1
}

func (c *Conv2D) setKernelWorkers(n int) { c.workers = n }

// lower refreshes the pooled patch matrix from x and returns it.
func (c *Conv2D) lower(x *Tensor) []float32 {
	_, oh, ow := c.OutShape(x.C, x.H, x.W)
	c.colBuf = growF32(c.colBuf, c.InC*c.K*c.K*oh*ow)
	if c.Pad > 0 {
		c.padBuf = growF32(c.padBuf, c.InC*(x.H+2*c.Pad)*(x.W+2*c.Pad))
	}
	mat.Im2col(x.Data, x.C, x.H, x.W, c.K, c.Stride, c.Pad, c.padBuf, c.colBuf)
	return c.colBuf
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *Tensor, train bool) *Tensor {
	if x.C != c.InC {
		panic(fmt.Sprintf("cnn: %s got %d input channels", c.Name(), x.C))
	}
	_, oh, ow := c.OutShape(x.C, x.H, x.W)
	var out *Tensor
	if train {
		c.x = x
		out = ensureTensor(&c.trainOut, c.OutC, oh, ow)
	} else {
		out = ensureTensor(&c.out, c.OutC, oh, ow)
	}
	ckk := c.InC * c.K * c.K
	workers := layerWorkers(c.workers)
	if c.Stride != 1 {
		col := c.lower(x)
		p := oh * ow
		seedBias(out.Data, c.B.Data, p)
		c.off = mat.RowOffsets(ckk, p, c.off)
		mat.GemmOff(c.OutC, p, ckk, c.W.Data, col, c.off, out.Data, true, workers)
		return out
	}
	// Stride 1: the product runs over n >= (oh−1)·pw+ow positions of the
	// padded grid, pw−ow of them past the end of each output row and up
	// to 7 more past the last (implicitCols); the copy keeps the rest.
	ph, pw := x.H+2*c.Pad, x.W+2*c.Pad
	padded := x.Data[:x.C*x.H*x.W]
	n := (oh-1)*pw + ow
	if c.Pad > 0 {
		var slack int
		n, slack = implicitCols(oh, ow, pw)
		c.padBuf = growF32(c.padBuf, c.InC*ph*pw+slack)
		padded = mat.PadImage(x.Data, x.C, x.H, x.W, c.Pad, c.padBuf)
		clear(c.padBuf[len(padded):])
		padded = c.padBuf
	}
	c.off = mat.ConvOffsets(c.InC, c.K, ph, pw, c.off)
	c.wideBuf = growF32(c.wideBuf, c.OutC*n)
	seedBias(c.wideBuf, c.B.Data, n)
	mat.GemmOff(c.OutC, n, ckk, c.W.Data, padded, c.off, c.wideBuf, true, workers)
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			copy(out.Data[(oc*oh+oy)*ow:(oc*oh+oy+1)*ow], c.wideBuf[oc*n+oy*pw:])
		}
	}
	return out
}

// implicitCols returns the column count n of a stride-1 convolution's
// implicit product — the (oh−1)·pw+ow positions that reach every output,
// rounded up to whole 8-column tiles so no column takes the kernels'
// scalar tail — and the slack: how many elements the B operand must
// extend past the padded image, since the last patch row ends exactly
// at its end. The extra columns are computed and dropped like the
// pw−ow past each output row.
func implicitCols(oh, ow, pw int) (n, slack int) {
	nw := (oh-1)*pw + ow
	n = (nw + 7) &^ 7
	return n, n - nw
}

// seedBias fills each p-element channel row of dst with its bias, so
// the GEMM accumulates W·col on top — the same "sum := bias" start as
// the reference convolution. Each row doubles its filled prefix with
// copy, which moves whole vectors where an element loop stores one
// float at a time.
func seedBias(dst, bias []float32, p int) {
	for oc, b := range bias {
		row := dst[oc*p : (oc+1)*p]
		row[0] = b
		for filled := 1; filled < p; filled *= 2 {
			copy(row[filled:], row[:filled])
		}
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *Tensor) *Tensor {
	x := c.x
	if x == nil {
		panic("cnn: Conv2D.Backward before Forward(train=true)")
	}
	oh, ow := grad.H, grad.W
	p := oh * ow
	ckk := c.InC * c.K * c.K

	// dB: per-channel sums of the output gradient, in position order.
	for oc := 0; oc < c.OutC; oc++ {
		s := c.B.Grad[oc]
		for _, g := range grad.Data[oc*p : (oc+1)*p] {
			s += g
		}
		c.B.Grad[oc] = s
	}

	// Re-lower the cached input (cheap next to the GEMMs, and robust to
	// inference calls between Forward(train=true) and Backward) and
	// accumulate dW += grad · colᵀ.
	col := c.lower(x)
	mat.GemmNT(c.OutC, ckk, p, grad.Data, col, c.W.Grad, true, layerWorkers(c.workers))

	// dx: dCol = Wᵀ · grad, scattered back onto the input grid.
	c.dcolBuf = growF32(c.dcolBuf, ckk*p)
	mat.GemmT(ckk, p, c.OutC, c.W.Data, grad.Data, c.dcolBuf, false, layerWorkers(c.workers))
	dx := ensureTensor(&c.dx, x.C, x.H, x.W)
	if c.Pad > 0 {
		c.dpadBuf = growF32(c.dpadBuf, c.InC*(x.H+2*c.Pad)*(x.W+2*c.Pad))
	}
	mat.Col2im(c.dcolBuf, x.C, x.H, x.W, c.K, c.Stride, c.Pad, c.dpadBuf, dx.Data)
	return dx
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask     []bool
	out      *Tensor // reused output (inference)
	trainOut *Tensor // reused output (training)
	dx       *Tensor // reused input gradient
}

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(c, h, w int) (int, int, int) { return c, h, w }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor, train bool) *Tensor {
	if train {
		out := ensureTensor(&r.trainOut, x.C, x.H, x.W)
		if cap(r.mask) < len(x.Data) {
			r.mask = make([]bool, len(x.Data))
		}
		r.mask = r.mask[:len(x.Data)]
		for i, v := range x.Data {
			pos := v > 0
			r.mask[i] = pos
			if pos {
				out.Data[i] = v
			} else {
				out.Data[i] = 0
			}
		}
		return out
	}
	out := ensureTensor(&r.out, x.C, x.H, x.W)
	dst := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		dst[i] = math.Float32frombits(reluBits(math.Float32bits(v)))
	}
	return out
}

// reluBits is the inference ReLU on float bits: v when v > 0, else +0.
// Branch-free and bit-exact: activation signs are near random, so a
// sign branch mispredicts every other element. The mask is set only
// when uint32(b-1) < 0x7f800000, i.e. v > 0 (+subnormal up to +Inf);
// −0, negatives and NaN come out as +0, as v > 0 gives.
func reluBits(b uint32) uint32 {
	return b & uint32((uint64(b-1)-0x7f800000)>>32)
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *Tensor) *Tensor {
	dx := ensureTensor(&r.dx, grad.C, grad.H, grad.W)
	for i, g := range grad.Data {
		if r.mask[i] {
			dx.Data[i] = g
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// MaxPool2 is a 2×2 max pooling with stride 2.
type MaxPool2 struct {
	argmax        []int
	inC, inH, inW int
	out           *Tensor // reused output (inference)
	trainOut      *Tensor // reused output (training)
	dx            *Tensor // reused input gradient
}

// Name implements Layer.
func (m *MaxPool2) Name() string { return "maxpool2" }

// Params implements Layer.
func (m *MaxPool2) Params() []*Param { return nil }

// OutShape implements Layer.
func (m *MaxPool2) OutShape(c, h, w int) (int, int, int) { return c, h / 2, w / 2 }

// Forward implements Layer.
func (m *MaxPool2) Forward(x *Tensor, train bool) *Tensor {
	oc, oh, ow := m.OutShape(x.C, x.H, x.W)
	if !train {
		// Inference: no argmax bookkeeping, and a branch-free scan with
		// the same -3.4e38 seed and first-max-wins order as below.
		out := ensureTensor(&m.out, oc, oh, ow)
		mat.MaxPool2(x.Data, x.C, x.H, x.W, out.Data, -3.4e38, true)
		return out
	}
	out := ensureTensor(&m.trainOut, oc, oh, ow)
	if cap(m.argmax) < oc*oh*ow {
		m.argmax = make([]int, oc*oh*ow)
	}
	m.argmax = m.argmax[:oc*oh*ow]
	m.inC, m.inH, m.inW = x.C, x.H, x.W
	for c := 0; c < oc; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(-3.4e38)
				bestIdx := 0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := (c*x.H+oy*2+dy)*x.W + ox*2 + dx
						if v := x.Data[idx]; v > best {
							best, bestIdx = v, idx
						}
					}
				}
				o := (c*oh+oy)*ow + ox
				out.Data[o] = best
				m.argmax[o] = bestIdx
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2) Backward(grad *Tensor) *Tensor {
	dx := ensureTensor(&m.dx, m.inC, m.inH, m.inW)
	clear(dx.Data)
	for o, idx := range m.argmax {
		dx.Data[idx] += grad.Data[o]
	}
	return dx
}

// GlobalAvgPool averages each channel to a single value.
type GlobalAvgPool struct {
	inH, inW int
	out      *Tensor // reused output (inference)
	trainOut *Tensor // reused output (training)
	dx       *Tensor // reused input gradient
}

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return "gap" }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// OutShape implements Layer.
func (g *GlobalAvgPool) OutShape(c, h, w int) (int, int, int) { return c, 1, 1 }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *Tensor, train bool) *Tensor {
	var out *Tensor
	if train {
		g.inH, g.inW = x.H, x.W
		out = ensureTensor(&g.trainOut, x.C, 1, 1)
	} else {
		out = ensureTensor(&g.out, x.C, 1, 1)
	}
	channelMeans(x, out.Data)
	return out
}

// channelMeans writes the mean of channel c of x to out[c], summing each
// channel in index order in float32; GlobalAvgPool and the int8 graph's
// average pool both use it.
func channelMeans(x *Tensor, out []float32) {
	hw := x.H * x.W
	n := float32(hw)
	for c := 0; c < x.C; c++ {
		var s float32
		for _, v := range x.Data[c*hw : (c+1)*hw] {
			s += v
		}
		out[c] = s / n
	}
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(grad *Tensor) *Tensor {
	dx := ensureTensor(&g.dx, grad.C, g.inH, g.inW)
	n := float32(g.inH * g.inW)
	for c := 0; c < grad.C; c++ {
		gv := grad.Data[c] / n
		for i := c * g.inH * g.inW; i < (c+1)*g.inH*g.inW; i++ {
			dx.Data[i] = gv
		}
	}
	return dx
}

// Dense is a fully connected layer over a flattened input. Forward is a
// GEMV (row-dots of W against the input), backward a rank-1 dW update and
// a transposed GEMV for dx — all on the mat kernels, bit-identical to the
// scalar reference in reference_test.go.
type Dense struct {
	In, Out int
	W, B    *Param

	workers int // GEMM goroutine bound; 0/1 = serial

	x        *Tensor
	out      *Tensor // reused output (inference)
	trainOut *Tensor // reused output (training)
	dx       *Tensor // reused input gradient
}

// NewDense constructs a fully connected layer.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, W: newParam(in * out), B: newParam(out)}
	heInit(d.W.Data, in, rng)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutShape implements Layer.
func (d *Dense) OutShape(c, h, w int) (int, int, int) { return d.Out, 1, 1 }

func (d *Dense) setKernelWorkers(n int) { d.workers = n }

// Forward implements Layer.
func (d *Dense) Forward(x *Tensor, train bool) *Tensor {
	if len(x.Data) != d.In {
		panic(fmt.Sprintf("cnn: %s got %d inputs", d.Name(), len(x.Data)))
	}
	var out *Tensor
	if train {
		d.x = x
		out = ensureTensor(&d.trainOut, d.Out, 1, 1)
	} else {
		out = ensureTensor(&d.out, d.Out, 1, 1)
	}
	copy(out.Data, d.B.Data)
	// out = bias + W·x: each output is a contiguous row-dot (A·Bᵀ with x
	// as the single row of B).
	mat.GemmNT(d.Out, 1, d.In, d.W.Data, x.Data, out.Data, true, layerWorkers(d.workers))
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *Tensor) *Tensor {
	for o, g := range grad.Data {
		d.B.Grad[o] += g
	}
	// dW += grad ⊗ x (rank-1, k=1 GEMM).
	mat.Gemm(d.Out, d.In, 1, grad.Data, d.x.Data, d.W.Grad, true, layerWorkers(d.workers))
	// dx = Wᵀ · grad.
	dx := ensureTensor(&d.dx, d.x.C, d.x.H, d.x.W)
	mat.GemmT(d.In, 1, d.Out, d.W.Data, grad.Data, dx.Data, false, layerWorkers(d.workers))
	return dx
}

// Residual is a ResNet basic block: conv-relu-conv plus a skip
// connection (identity, or 1×1 stride-2 projection when downsampling),
// followed by a ReLU.
type Residual struct {
	Conv1, Conv2 *Conv2D
	Proj         *Conv2D // nil for identity skip
	relu1, relu2 ReLU
	sumOut       *Tensor // reused sum buffer (inference)
	sumTrain     *Tensor // reused sum buffer (training)
}

// NewResidual constructs a basic block with inC->outC channels; when
// stride is 2 (or channels change) a 1×1 projection is used on the skip.
func NewResidual(inC, outC, stride int, rng *rand.Rand) *Residual {
	r := &Residual{
		Conv1: NewConv2D(inC, outC, 3, stride, 1, rng),
		Conv2: NewConv2D(outC, outC, 3, 1, 1, rng),
	}
	if stride != 1 || inC != outC {
		r.Proj = NewConv2D(inC, outC, 1, stride, 0, rng)
	}
	return r
}

// Name implements Layer.
func (r *Residual) Name() string {
	return fmt.Sprintf("resblock(%d->%d,s%d)", r.Conv1.InC, r.Conv1.OutC, r.Conv1.Stride)
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := append(r.Conv1.Params(), r.Conv2.Params()...)
	if r.Proj != nil {
		ps = append(ps, r.Proj.Params()...)
	}
	return ps
}

// OutShape implements Layer.
func (r *Residual) OutShape(c, h, w int) (int, int, int) {
	c1, h1, w1 := r.Conv1.OutShape(c, h, w)
	return r.Conv2.OutShape(c1, h1, w1)
}

func (r *Residual) setKernelWorkers(n int) {
	r.Conv1.setKernelWorkers(n)
	r.Conv2.setKernelWorkers(n)
	if r.Proj != nil {
		r.Proj.setKernelWorkers(n)
	}
}

// Forward implements Layer.
func (r *Residual) Forward(x *Tensor, train bool) *Tensor {
	main := r.Conv2.Forward(r.relu1.Forward(r.Conv1.Forward(x, train), train), train)
	skip := x
	if r.Proj != nil {
		skip = r.Proj.Forward(x, train)
	}
	if !main.SameShape(skip) {
		panic("cnn: residual shape mismatch")
	}
	var sum *Tensor
	if train {
		sum = ensureTensor(&r.sumTrain, main.C, main.H, main.W)
	} else {
		sum = ensureTensor(&r.sumOut, main.C, main.H, main.W)
	}
	for i := range sum.Data {
		sum.Data[i] = main.Data[i] + skip.Data[i]
	}
	return r.relu2.Forward(sum, train)
}

// Backward implements Layer.
func (r *Residual) Backward(grad *Tensor) *Tensor {
	gSum := r.relu2.Backward(grad)
	gMain := r.Conv1.Backward(r.relu1.Backward(r.Conv2.Backward(gSum)))
	if r.Proj != nil {
		gSkip := r.Proj.Backward(gSum)
		for i := range gMain.Data {
			gMain.Data[i] += gSkip.Data[i]
		}
		return gMain
	}
	for i := range gMain.Data {
		gMain.Data[i] += gSum.Data[i]
	}
	return gMain
}
