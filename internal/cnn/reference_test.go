package cnn

// Retained naive reference implementations for Conv2D, Dense, ReLU and
// MaxPool2. These are the readable, obviously-correct kernels the
// GEMM-lowered and branch-free hot paths in layers.go replaced; the
// golden tests pin the production passes bit-identical to them, and the
// benchmarks use them as the baseline for the speedup claims in
// BENCH.md. They live in a _test.go file so none of them is compiled
// into the production build.
//
// Accumulation-order notes (what makes bitwise equality possible):
//   - forward and dW/dB accumulate in the same order as the original
//     scalar implementation: per output element the contraction runs in
//     (ic, ky, kx) order, and per weight tap the positions run in
//     (oy, ox) raster order — exactly the orders mat.Gemm / mat.GemmNT
//     guarantee.
//   - dx is written as a direct transposed convolution in (ic, ky, kx)-
//     major, (oy, ox)-minor order with the oc-sum innermost, matching
//     the GemmT-then-Col2im accumulation order of the lowered path.
//   - every product is rounded to float32 before its add: the explicit
//     conversion forbids fusing the pair into an FMA, as in the mat
//     kernels, so the comparison holds on every target.

// refConvForward computes c's forward pass on x directly.
func refConvForward(c *Conv2D, x *Tensor) *Tensor {
	_, oh, ow := c.OutShape(x.C, x.H, x.W)
	out := NewTensor(c.OutC, oh, ow)
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.B.Data[oc]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := bias
				iy0 := oy*c.Stride - c.Pad
				ix0 := ox*c.Stride - c.Pad
				for ic := 0; ic < c.InC; ic++ {
					wBase := ((oc*c.InC + ic) * c.K) * c.K
					for ky := 0; ky < c.K; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= x.H {
							continue
						}
						rowX := (ic*x.H + iy) * x.W
						rowW := wBase + ky*c.K
						for kx := 0; kx < c.K; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= x.W {
								continue
							}
							sum += float32(c.W.Data[rowW+kx] * x.Data[rowX+ix])
						}
					}
				}
				out.Data[(oc*oh+oy)*ow+ox] = sum
			}
		}
	}
	return out
}

// refConvBackward accumulates c's weight and bias gradients into dW and
// dB for input x and output gradient grad, and returns the input
// gradient.
func refConvBackward(c *Conv2D, x, grad *Tensor, dW, dB []float32) *Tensor {
	oh, ow := grad.H, grad.W

	// dB and dW in the original interleaved (oc, oy, ox) traversal.
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := grad.Data[(oc*oh+oy)*ow+ox]
				if g == 0 {
					continue
				}
				dB[oc] += g
				iy0 := oy*c.Stride - c.Pad
				ix0 := ox*c.Stride - c.Pad
				for ic := 0; ic < c.InC; ic++ {
					wBase := ((oc*c.InC + ic) * c.K) * c.K
					for ky := 0; ky < c.K; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= x.H {
							continue
						}
						rowX := (ic*x.H + iy) * x.W
						rowW := wBase + ky*c.K
						for kx := 0; kx < c.K; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= x.W {
								continue
							}
							dW[rowW+kx] += float32(g * x.Data[rowX+ix])
						}
					}
				}
			}
		}
	}

	// dx as a transposed convolution: weight-tap major, output-position
	// minor, channel sum innermost.
	dx := NewTensor(x.C, x.H, x.W)
	for ic := 0; ic < c.InC; ic++ {
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= x.H {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix < 0 || ix >= x.W {
							continue
						}
						var t float32
						for oc := 0; oc < c.OutC; oc++ {
							t += float32(c.W.Data[((oc*c.InC+ic)*c.K+ky)*c.K+kx] * grad.Data[(oc*oh+oy)*ow+ox])
						}
						dx.Data[(ic*x.H+iy)*x.W+ix] += t
					}
				}
			}
		}
	}
	return dx
}

// refDenseForward computes d's forward pass on x directly.
func refDenseForward(d *Dense, x *Tensor) *Tensor {
	out := NewTensor(d.Out, 1, 1)
	for o := 0; o < d.Out; o++ {
		s := d.B.Data[o]
		row := o * d.In
		for i, v := range x.Data {
			s += float32(d.W.Data[row+i] * v)
		}
		out.Data[o] = s
	}
	return out
}

// refDenseBackward accumulates d's gradients into dW and dB and returns
// the input gradient for input x and output gradient grad.
func refDenseBackward(d *Dense, x, grad *Tensor, dW, dB []float32) *Tensor {
	dx := NewTensor(x.C, x.H, x.W)
	for o := 0; o < d.Out; o++ {
		g := grad.Data[o]
		if g == 0 {
			continue
		}
		dB[o] += g
		row := o * d.In
		for i, v := range x.Data {
			dW[row+i] += float32(g * v)
			dx.Data[i] += float32(g * d.W.Data[row+i])
		}
	}
	return dx
}

// branchyReLU is the ReLU the branch-free ReLU.Forward replaced: v when
// v > 0, else +0 (for −0 and NaN too).
func branchyReLU(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

// refReLU applies branchyReLU element-wise into a fresh tensor.
func refReLU(x *Tensor) *Tensor {
	out := NewTensor(x.C, x.H, x.W)
	for i, v := range x.Data {
		out.Data[i] = branchyReLU(v)
	}
	return out
}

// refMaxPool is the per-window 2×2 max pool the branch-free MaxPool2
// paths replaced: each window is seeded at -3.4e38 and scanned in
// (dy, dx) order, and a value replaces the running best only when
// v > best, so the first maximum wins, a ±0 tie keeps the earlier zero
// and a NaN never wins. Odd trailing rows and columns are dropped.
func refMaxPool(x *Tensor) *Tensor {
	oh, ow := x.H/2, x.W/2
	out := NewTensor(x.C, oh, ow)
	for c := 0; c < x.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(-3.4e38)
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := x.At(c, oy*2+dy, ox*2+dx); v > best {
							best = v
						}
					}
				}
				out.Set(c, oy, ox, best)
			}
		}
	}
	return out
}

// refQMaxPool is refMaxPool with the quantized graph's seeding: the
// window's first element starts as the best instead of -3.4e38.
func refQMaxPool(x *Tensor) *Tensor {
	oh, ow := x.H/2, x.W/2
	out := NewTensor(x.C, oh, ow)
	for c := 0; c < x.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := x.At(c, oy*2, ox*2)
				for _, v := range []float32{
					x.At(c, oy*2, ox*2+1), x.At(c, oy*2+1, ox*2), x.At(c, oy*2+1, ox*2+1),
				} {
					if v > best {
						best = v
					}
				}
				out.Set(c, oy, ox, best)
			}
		}
	}
	return out
}

// refForward runs one layer's inference forward pass through the naive
// reference kernels, decomposing composite layers; layers with no
// reference kernel fall through to their normal Forward.
func refForward(l Layer, x *Tensor) *Tensor {
	switch v := l.(type) {
	case *Conv2D:
		return refConvForward(v, x)
	case *Dense:
		return refDenseForward(v, x)
	case *ReLU:
		return refReLU(x)
	case *MaxPool2:
		return refMaxPool(x)
	case *Residual:
		main := refForward(v.Conv2, refReLU(refForward(v.Conv1, x)))
		skip := x
		if v.Proj != nil {
			skip = refForward(v.Proj, x)
		}
		sum := NewTensor(main.C, main.H, main.W)
		for i := range sum.Data {
			sum.Data[i] = main.Data[i] + skip.Data[i]
		}
		return refReLU(sum)
	default:
		return l.Forward(x, false)
	}
}
