// Package platform models the NVIDIA AGX Xavier edge device the paper
// deploys on (Fig. 4): its compute resources (8-core Carmel CPU, 512-core
// Volta GPU), the LKAS task-to-resource mapping (Fig. 4b), and the timing
// algebra that turns profiled task runtimes (Table II, Table IV) into the
// sensor-to-actuation delay tau, the sampling period h and the achieved
// FPS that parameterize the control design.
//
// The paper never uses the GPU microarchitecture directly: profiled
// runtimes are the interface between hardware and design flow. This
// package therefore reproduces the schedule algebra exactly, seeded with
// the paper's profiled numbers.
package platform

import (
	"fmt"
	"math"

	"hsas/internal/control"
	"hsas/internal/isp"
	"hsas/internal/knobs"
	"hsas/internal/perception"
)

// Resource identifies a compute resource on the platform.
type Resource uint8

// Platform resources (Fig. 4a).
const (
	CPU Resource = iota // NVIDIA Carmel ARMv8.2, 8 cores
	GPU                 // NVIDIA Volta iGPU, 512 cores
)

func (r Resource) String() string {
	if r == CPU {
		return "CPU"
	}
	return "GPU"
}

// Platform describes the target device.
type Platform struct {
	Name         string
	CPUCores     int
	GPUCores     int
	DRAMGiB      int
	PowerBudgetW float64
	// SimStepMs is the Webots simulation step the paper ceils h and tau
	// to (footnote 5: 5 ms).
	SimStepMs float64
	// SensorOverheadMs is the fixed per-frame sensor readout/actuation
	// overhead observed in the paper's profiled tau values (e.g. case 1:
	// 21.5 + 3.0 + 0.0025 profiled as 24.6).
	SensorOverheadMs float64
	// RuntimeScale stretches every task runtime (1.0 at the profiled
	// 30 W operating point; see WithPowerMode).
	RuntimeScale float64
}

// Xavier returns the NVIDIA AGX Xavier at its 30 W power budget.
func Xavier() Platform {
	return Platform{
		Name:             "NVIDIA AGX Xavier",
		CPUCores:         8,
		GPUCores:         512,
		DRAMGiB:          16,
		PowerBudgetW:     30,
		SimStepMs:        5,
		SensorOverheadMs: 0.1,
	}
}

// ClassifierRuntimeMs is the paper's profiled per-classifier runtime on
// the Xavier (Table IV: 5.5 ms for each ResNet-18 classifier).
const ClassifierRuntimeMs = 5.5

// ClassifierRuntimeInt8Ms is the per-classifier runtime under the int8
// quantized inference path: the ≥2.4× speedup measured on this repo's
// classifier shapes (BenchmarkInfer, see BENCH.md) applied to the
// paper's profiled 5.5 ms.
const ClassifierRuntimeInt8Ms = 2.2

// ClassifierRuntimeMsFor returns the per-classifier runtime for an
// arithmetic-precision knob value (any spelling ParsePrecision accepts).
func ClassifierRuntimeMsFor(precision string) (float64, error) {
	p, err := knobs.ParsePrecision(precision)
	if err != nil {
		return 0, fmt.Errorf("platform: %w", err)
	}
	if p == knobs.PrecisionInt8 {
		return ClassifierRuntimeInt8Ms, nil
	}
	return ClassifierRuntimeMs, nil
}

// Task is one schedulable piece of the LKAS pipeline.
type Task struct {
	Name      string
	Resource  Resource
	RuntimeMs float64
}

// PipelineTasksPrecision builds the per-frame task chain (Fig. 4b
// mapping) for an ISP configuration, a number of classifier invocations
// this frame and the classifier arithmetic-precision knob: int8 charges
// the quantized per-classifier runtime to the chain.
func PipelineTasksPrecision(ispID string, classifiers int, precision string) ([]Task, error) {
	rt, ok := isp.XavierRuntimeMs[ispID]
	if !ok {
		return nil, fmt.Errorf("platform: unknown ISP config %q", ispID)
	}
	crt, err := ClassifierRuntimeMsFor(precision)
	if err != nil {
		return nil, err
	}
	tasks := []Task{
		{Name: "ISP " + ispID, Resource: GPU, RuntimeMs: rt},
		{Name: "PR sliding-window", Resource: GPU, RuntimeMs: perception.XavierRuntimeMs},
	}
	names := []string{"road classifier", "lane classifier", "scene classifier"}
	for i := 0; i < classifiers; i++ {
		name := "classifier"
		if i < len(names) {
			name = names[i]
		}
		tasks = append(tasks, Task{Name: name, Resource: GPU, RuntimeMs: crt})
	}
	tasks = append(tasks, Task{Name: "control Tc", Resource: CPU, RuntimeMs: control.XavierRuntimeMs})
	return tasks, nil
}

// Timing is the sampled-data annotation (h, tau) of a pipeline plus the
// achieved frame rate.
type Timing struct {
	TauMs float64 // profiled sensor-to-actuation delay
	HMs   float64 // sampling period, ceiled to the simulation step
	FPS   float64 // 1000 / tau: the pipeline is not software-pipelined
}

// Timing computes (tau, h, FPS) for the given per-frame task chain: tau is
// the serial latency plus sensor overhead; h is tau ceiled up to the next
// multiple of the simulation step (footnote 5).
func (p Platform) Timing(tasks []Task) Timing {
	scale := p.RuntimeScale
	if scale == 0 {
		scale = 1
	}
	tau := p.SensorOverheadMs
	for _, t := range tasks {
		tau += t.RuntimeMs * scale
	}
	h := math.Ceil(tau/p.SimStepMs) * p.SimStepMs
	return Timing{TauMs: tau, HMs: h, FPS: 1000 / tau}
}

// TimingFor is the common shortcut: ISP config + classifier count at the
// canonical float32 classifier precision.
func (p Platform) TimingFor(ispID string, classifiers int) (Timing, error) {
	return p.TimingForPrecision(ispID, classifiers, knobs.PrecisionFP32)
}

// TimingForPrecision is TimingFor with the classifier precision knob:
// the int8 path's shorter classifier runtime tightens tau and, when it
// crosses a 5 ms boundary, the sampling period h.
func (p Platform) TimingForPrecision(ispID string, classifiers int, precision string) (Timing, error) {
	tasks, err := PipelineTasksPrecision(ispID, classifiers, precision)
	if err != nil {
		return Timing{}, err
	}
	return p.Timing(tasks), nil
}

// CeilToStep ceils a millisecond value to the simulation step, as the
// HiL setup does for both h and tau (footnote 5).
func (p Platform) CeilToStep(ms float64) float64 {
	return math.Ceil(ms/p.SimStepMs-1e-9) * p.SimStepMs
}

// PowerMode is an nvpmodel-style operating point of the Xavier: a power
// budget with a matching runtime scale factor. The paper pins the 30 W
// budget (Sec. II); the other modes let the design flow ask what the
// characterization would look like on a tighter budget — lower clocks
// stretch every profiled runtime, pushing tau and h up.
type PowerMode struct {
	Name         string
	BudgetW      float64
	RuntimeScale float64
}

// The Xavier's standard nvpmodel operating points. Runtime scale factors
// approximate the clock ratios of the 30/15/10 W profiles.
var (
	Mode30W = PowerMode{Name: "MAXN-30W", BudgetW: 30, RuntimeScale: 1.0}
	Mode15W = PowerMode{Name: "15W", BudgetW: 15, RuntimeScale: 1.6}
	Mode10W = PowerMode{Name: "10W", BudgetW: 10, RuntimeScale: 2.3}
)

// PowerModes lists the supported operating points.
var PowerModes = []PowerMode{Mode30W, Mode15W, Mode10W}

// WithPowerMode returns a copy of the platform at the given operating
// point: task runtimes scale by RuntimeScale (applied in Timing) and the
// power budget tightens.
func (p Platform) WithPowerMode(m PowerMode) Platform {
	p.PowerBudgetW = m.BudgetW
	p.RuntimeScale = m.RuntimeScale
	return p
}
