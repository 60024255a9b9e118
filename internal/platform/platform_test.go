package platform

import (
	"math"
	"testing"

	"hsas/internal/knobs"
)

func TestXavierSpec(t *testing.T) {
	p := Xavier()
	if p.CPUCores != 8 || p.GPUCores != 512 || p.DRAMGiB != 16 || p.PowerBudgetW != 30 {
		t.Fatalf("Xavier spec wrong: %+v", p)
	}
}

// TestCase1Timing reproduces Table V row 1: S0 + no classifiers gives
// tau ~ 24.6 ms and h = 25 ms.
func TestCase1Timing(t *testing.T) {
	p := Xavier()
	tm, err := p.TimingFor("S0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm.TauMs-24.6025) > 0.01 {
		t.Fatalf("case 1 tau = %v, want ~24.6", tm.TauMs)
	}
	if tm.HMs != 25 {
		t.Fatalf("case 1 h = %v, want 25", tm.HMs)
	}
	if math.Abs(tm.FPS-40.6) > 1 {
		t.Fatalf("case 1 FPS = %v, want ~40", tm.FPS)
	}
}

// TestCase2And3Timing reproduces Table V rows 2-3: adding classifiers
// adds 5.5 ms each and pushes h to 35 and 40 ms.
func TestCase2And3Timing(t *testing.T) {
	p := Xavier()
	tm2, _ := p.TimingFor("S0", 1)
	if math.Abs(tm2.TauMs-30.1025) > 0.01 || tm2.HMs != 35 {
		t.Fatalf("case 2 timing = %+v, want tau ~30.1 h 35", tm2)
	}
	tm3, _ := p.TimingFor("S0", 2)
	if math.Abs(tm3.TauMs-35.6025) > 0.01 || tm3.HMs != 40 {
		t.Fatalf("case 3 timing = %+v, want tau ~35.6 h 40", tm3)
	}
}

// TestCase4Timing: approximate ISP (S3) with all three classifiers gives
// tau ~ 22.9 and h = 25 (Table III reports 23.1 for profiling noise).
func TestCase4Timing(t *testing.T) {
	p := Xavier()
	tm, _ := p.TimingFor("S3", 3)
	if math.Abs(tm.TauMs-22.9025) > 0.01 || tm.HMs != 25 {
		t.Fatalf("case 4 timing = %+v, want tau ~22.9 h 25", tm)
	}
}

// TestVariableInvocationTiming: one classifier per frame with an
// approximate ISP runs at h = 15 ms — the mechanism behind the 32 %
// improvement of Sec. IV-E.
func TestVariableInvocationTiming(t *testing.T) {
	p := Xavier()
	tm, _ := p.TimingFor("S3", 1)
	if math.Abs(tm.TauMs-11.9025) > 0.01 || tm.HMs != 15 {
		t.Fatalf("variable timing = %+v, want tau ~11.9 h 15", tm)
	}
}

func TestTimingUnknownISP(t *testing.T) {
	if _, err := Xavier().TimingFor("S9", 0); err == nil {
		t.Fatal("unknown ISP accepted")
	}
}

func TestCeilToStep(t *testing.T) {
	p := Xavier()
	cases := [][2]float64{{24.6, 25}, {25, 25}, {0.1, 5}, {35.6, 40}, {40.7, 45}}
	for _, c := range cases {
		if got := p.CeilToStep(c[0]); got != c[1] {
			t.Fatalf("CeilToStep(%v) = %v, want %v", c[0], got, c[1])
		}
	}
}

func TestPipelineTaskMapping(t *testing.T) {
	tasks, err := PipelineTasksPrecision("S0", 3, knobs.PrecisionFP32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 6 {
		t.Fatalf("task count = %d, want 6", len(tasks))
	}
	// Fig. 4b: image tasks on GPU, control on CPU.
	for _, task := range tasks[:5] {
		if task.Resource != GPU {
			t.Fatalf("%s mapped to %v, want GPU", task.Name, task.Resource)
		}
	}
	if tasks[5].Resource != CPU {
		t.Fatalf("control mapped to %v, want CPU", tasks[5].Resource)
	}
}

func TestResourceString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("resource stringer broken")
	}
}

// TestPowerModesStretchTiming: tighter power budgets stretch tau and h —
// the hardware-awareness axis beyond the paper's fixed 30 W point.
func TestPowerModesStretchTiming(t *testing.T) {
	base := Xavier()
	tm30, _ := base.WithPowerMode(Mode30W).TimingFor("S0", 0)
	tm15, _ := base.WithPowerMode(Mode15W).TimingFor("S0", 0)
	tm10, _ := base.WithPowerMode(Mode10W).TimingFor("S0", 0)
	if !(tm30.TauMs < tm15.TauMs && tm15.TauMs < tm10.TauMs) {
		t.Fatalf("tau not monotone in power: %v %v %v", tm30.TauMs, tm15.TauMs, tm10.TauMs)
	}
	if tm30.HMs != 25 {
		t.Fatalf("30W case-1 h = %v", tm30.HMs)
	}
	if tm10.HMs <= tm30.HMs {
		t.Fatalf("10W h (%v) not above 30W h (%v)", tm10.HMs, tm30.HMs)
	}
	// The 30 W mode is the identity: Table V timings unchanged.
	if math.Abs(tm30.TauMs-24.6025) > 0.01 {
		t.Fatalf("30W tau = %v", tm30.TauMs)
	}
	if base.WithPowerMode(Mode15W).PowerBudgetW != 15 {
		t.Fatal("budget not applied")
	}
}

// TestPrecisionTiming: the int8 classifier runtime (2.2 ms vs 5.5 ms
// float32) tightens tau and can drop the harmonized period h — the
// hardware lever the precision knob trades accuracy headroom for.
func TestPrecisionTiming(t *testing.T) {
	if ms, err := ClassifierRuntimeMsFor(""); err != nil || ms != ClassifierRuntimeMs {
		t.Fatalf("fp32 classifier runtime = %v, %v", ms, err)
	}
	if ms, err := ClassifierRuntimeMsFor("int8"); err != nil || ms != ClassifierRuntimeInt8Ms {
		t.Fatalf("int8 classifier runtime = %v, %v", ms, err)
	}
	if _, err := ClassifierRuntimeMsFor("int4"); err == nil {
		t.Fatal("unknown precision accepted")
	}

	p := Xavier()
	fp32, err := p.TimingForPrecision("S0", 3, "")
	if err != nil {
		t.Fatal(err)
	}
	int8, err := p.TimingForPrecision("S0", 3, "int8")
	if err != nil {
		t.Fatal(err)
	}
	// Three classifiers save 3 x 3.3 ms = 9.9 ms of tau.
	if math.Abs((fp32.TauMs-int8.TauMs)-3*(ClassifierRuntimeMs-ClassifierRuntimeInt8Ms)) > 1e-9 {
		t.Fatalf("int8 tau %v vs fp32 tau %v: wrong saving", int8.TauMs, fp32.TauMs)
	}
	if int8.HMs >= fp32.HMs {
		t.Fatalf("int8 h %v not below fp32 h %v for the 3-classifier case", int8.HMs, fp32.HMs)
	}
	if _, err := p.TimingForPrecision("S0", 3, "bf16"); err == nil {
		t.Fatal("TimingForPrecision accepted unknown precision")
	}

	// TimingFor is the fp32 special case.
	legacy, _ := p.TimingFor("S0", 3)
	if legacy != fp32 {
		t.Fatalf("TimingFor %+v != TimingForPrecision fp32 %+v", legacy, fp32)
	}

	// PipelineTasksPrecision swaps only the classifier runtimes.
	tasks, err := PipelineTasksPrecision("S0", 2, "int8")
	if err != nil {
		t.Fatal(err)
	}
	nInt8 := 0
	for _, task := range tasks {
		if task.RuntimeMs == ClassifierRuntimeInt8Ms {
			nInt8++
		}
	}
	if nInt8 != 2 {
		t.Fatalf("%d int8 classifier tasks, want 2 (tasks %+v)", nInt8, tasks)
	}
}
