// Data-parallel minibatch training.
//
// Fit computes the per-sample gradients of a minibatch on Workers
// goroutines, each driving its own replica of the network (replicas
// share the read-only weight slices and own everything mutable), stores
// each sample's gradient in a shard indexed by the sample's batch slot,
// and then reduces the shards into the main network's gradient
// accumulators in ascending slot order. Because the shard a gradient
// lands in depends only on the sample's position in the (seed-determined)
// shuffle — never on which worker computed it or when — and the mat GEMM
// kernels are bit-deterministic for any worker count, trained weights are
// bit-identical for every Workers setting. The serial path (Workers <= 1)
// runs the same slot/shard/reduce code on the main network itself, which
// is what makes that equivalence testable.
package cnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Fit trains the network on the samples and returns the final epoch's
// mean loss and training accuracy.
func (n *Network) Fit(samples []Sample, cfg TrainConfig) (loss, acc float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = 1
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > batchSize {
		workers = batchSize
	}

	// The main network is replica 0; extra workers get clones that share
	// its weight storage but own their gradients and layer scratch.
	replicas := make([]*trainReplica, workers)
	replicas[0] = newTrainReplica(n)
	for w := 1; w < workers; w++ {
		replicas[w] = newTrainReplica(cloneForTraining(n))
	}
	params := replicas[0].params

	// Per-slot gradient shards and per-slot statistics.
	shards := make([][][]float32, batchSize)
	for s := range shards {
		shards[s] = make([][]float32, len(params))
		for pi, p := range params {
			shards[s][pi] = make([]float32, len(p.Grad))
		}
	}
	lossBuf := make([]float64, batchSize)
	hitBuf := make([]bool, batchSize)

	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	n.ZeroGrad()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Step decay: halve the learning rate at 1/2 and 3/4 of training.
		lr := cfg.LR
		if epoch >= cfg.Epochs*3/4 {
			lr = cfg.LR / 4
		} else if epoch >= cfg.Epochs/2 {
			lr = cfg.LR / 2
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var sumLoss float64
		correct := 0
		for b0 := 0; b0 < len(idx); b0 += batchSize {
			batch := idx[b0:min(b0+batchSize, len(idx))]
			if workers == 1 || len(batch) == 1 {
				for s := range batch {
					replicas[0].runSample(samples[batch[s]], shards[s], lossBuf, hitBuf, s)
				}
			} else {
				var wg sync.WaitGroup
				for w := 0; w < workers && w < len(batch); w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						// Static round-robin slot assignment; any
						// disjoint assignment yields the same bits
						// because results are keyed by slot.
						for s := w; s < len(batch); s += workers {
							replicas[w].runSample(samples[batch[s]], shards[s], lossBuf, hitBuf, s)
						}
					}(w)
				}
				wg.Wait()
			}
			// Deterministic reduction: ascending slot order per element,
			// independent of which goroutine produced each shard.
			for pi, p := range params {
				for s := 0; s < len(batch); s++ {
					sh := shards[s][pi]
					for i, v := range sh {
						p.Grad[i] += v
					}
				}
			}
			for s := 0; s < len(batch); s++ {
				sumLoss += lossBuf[s]
				if hitBuf[s] {
					correct++
				}
			}
			n.SGDStep(lr, cfg.Momentum, cfg.WeightDecay, len(batch))
			n.ZeroGrad()
		}
		loss = sumLoss / float64(len(samples))
		acc = float64(correct) / float64(len(samples))
		if cfg.Log != nil {
			cfg.Log(epoch, loss, acc)
		}
	}
	return loss, acc
}

// trainReplica is one worker's view of the network plus its per-sample
// scratch.
type trainReplica struct {
	net    *Network
	params []*Param
	grad   *Tensor // pooled logit-gradient buffer
}

func newTrainReplica(n *Network) *trainReplica {
	var params []*Param
	for _, l := range n.Layers {
		params = append(params, l.Params()...)
	}
	return &trainReplica{net: n, params: params}
}

// runSample computes one sample's gradient into shard (in parameter-list
// order), leaving the replica's own accumulators zeroed for the next
// sample, and records the sample's loss and argmax hit under its batch
// slot.
func (r *trainReplica) runSample(s Sample, shard [][]float32, lossBuf []float64, hitBuf []bool, slot int) {
	logits := r.net.Forward(s.X, true)
	r.grad = ensureTensor(&r.grad, logits.C, logits.H, logits.W)
	lossBuf[slot] = lossAndGradInto(logits, s.Label, r.grad)
	best := 0
	for i := range logits.Data {
		if logits.Data[i] > logits.Data[best] {
			best = i
		}
	}
	hitBuf[slot] = best == s.Label
	r.net.Backward(r.grad)
	for pi, p := range r.params {
		copy(shard[pi], p.Grad)
		clear(p.Grad)
	}
}

// lossAndGradInto returns the softmax cross-entropy loss of logits for
// label and writes the loss's gradient with respect to the logits into
// grad, a caller-owned tensor of the logits' shape. The softmax sums its
// partials in float64.
func lossAndGradInto(logits *Tensor, label int, grad *Tensor) float64 {
	v := logits.Data
	maxV := v[0]
	for _, x := range v {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(float64(x - maxV))
		grad.Data[i] = float32(e)
		sum += e
	}
	for i := range grad.Data {
		grad.Data[i] = float32(float64(grad.Data[i]) / sum)
	}
	loss := -math.Log(math.Max(float64(grad.Data[label]), 1e-12))
	grad.Data[label] -= 1
	return loss
}

// cloneForTraining builds a replica network whose layers share the
// original's weight and bias storage (read-only during a batch) but own
// fresh gradient accumulators and layer scratch. Momentum state is not
// cloned — only the main network runs SGDStep.
func cloneForTraining(n *Network) *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = cloneLayerForTraining(l)
	}
	return &Network{Layers: layers, InC: n.InC, InH: n.InH, InW: n.InW}
}

func cloneLayerForTraining(l Layer) Layer {
	switch v := l.(type) {
	case *Conv2D:
		return cloneConv(v)
	case *Dense:
		return &Dense{In: v.In, Out: v.Out, W: shareParam(v.W), B: shareParam(v.B)}
	case *ReLU:
		return &ReLU{}
	case *MaxPool2:
		return &MaxPool2{}
	case *GlobalAvgPool:
		return &GlobalAvgPool{}
	case *Residual:
		r := &Residual{Conv1: cloneConv(v.Conv1), Conv2: cloneConv(v.Conv2)}
		if v.Proj != nil {
			r.Proj = cloneConv(v.Proj)
		}
		return r
	default:
		panic(fmt.Sprintf("cnn: parallel training cannot clone layer %s; train with Workers <= 1", l.Name()))
	}
}

func cloneConv(c *Conv2D) *Conv2D {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		W: shareParam(c.W), B: shareParam(c.B),
	}
}

// shareParam aliases the learnable values while giving the replica its
// own gradient accumulator. Vel stays nil: replicas never step.
func shareParam(p *Param) *Param {
	return &Param{Data: p.Data, Grad: make([]float32, len(p.Data))}
}
