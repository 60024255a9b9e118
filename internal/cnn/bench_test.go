package cnn

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks for the CNN compute engine. The /naive variants run the
// retained reference kernels from reference_test.go; /gemm is the lowered
// serial path (the steady-state frame-cycle configuration, 0 allocs/op
// after warm-up); /par adds intra-layer GEMM parallelism; /int8 is the
// quantized serial path (quant.go) and /int8par the quantized path at
// GOMAXPROCS kernel workers, the setting the closed loop uses; BENCH.md
// tracks int8 against gemm. CI smoke-runs BenchmarkInfer and
// BenchmarkTrainEpoch with an allocs/op guard on the gemm and int8 Infer
// variants, and on int8par for road and scene, which stay serial.

// classifierShapes are the three paper classifier input geometries
// (Table IV): road 48×24/3, lane 80×40/4, scene 48×24/5, all RGB.
var classifierShapes = []struct {
	name              string
	inH, inW, classes int
}{
	{"road", 24, 48, 3},
	{"lane", 40, 80, 4},
	{"scene", 24, 48, 5},
}

func BenchmarkInfer(b *testing.B) {
	for _, sh := range classifierShapes {
		net, err := ResNetLite(3, sh.inH, sh.inW, sh.classes, 2)
		if err != nil {
			b.Fatal(err)
		}
		x := randTensor(rand.New(rand.NewSource(3)), 3, sh.inH, sh.inW)
		run := func(name string, setup func()) {
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				setup()
				net.Infer(x) // warm up layer caches so steady state is measured
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Infer(x)
				}
			})
		}
		run("gemm", func() { net.SetKernelWorkers(-1) })
		run("par", func() { net.SetKernelWorkers(0) })
		qnet, err := Quantize(net)
		if err != nil {
			b.Fatal(err)
		}
		runQ := func(name string, workers int) {
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				qnet.SetKernelWorkers(workers)
				qnet.Infer(x) // warm up layer caches so steady state is measured
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qnet.Infer(x)
				}
			})
		}
		runQ("int8", -1)
		runQ("int8par", 0)
		b.Run(sh.name+"/naive", func(b *testing.B) {
			refNetInfer(net, x) // warm pooled buffers of non-GEMM layers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refNetInfer(net, x)
			}
		})
	}
}

// refNetInfer is the naive-baseline full-network argmax.
func refNetInfer(n *Network, x *Tensor) int {
	for _, l := range n.Layers {
		x = refForward(l, x)
	}
	best := 0
	for i := range x.Data {
		if x.Data[i] > x.Data[best] {
			best = i
		}
	}
	return best
}

func BenchmarkTrainEpoch(b *testing.B) {
	samples := toyDataset(64, 3, 3, 24, 48, 6)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			net, err := ResNetLite(3, 24, 48, 3, 2)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs = 1
			cfg.Workers = workers
			net.Fit(samples, cfg) // warm up trainer scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Fit(samples, cfg)
			}
		})
	}
}
