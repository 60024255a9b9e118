// Package hsas is the public API of the hardware- and situation-aware
// sensing library, a reproduction of De et al., "Hardware- and
// Situation-Aware Sensing for Robust Closed-Loop Control Systems"
// (DATE 2021).
//
// The library provides, end to end:
//
//   - the situation taxonomy of Table I (road layout × lane marking ×
//     scene) and parametric tracks including the paper's 21 evaluation
//     situations and the nine-sector dynamic case study of Fig. 7;
//   - a synthetic RAW camera, the five-stage ISP with the approximate
//     configurations S0–S8 of Table II, and the sliding-window lane
//     perception stage with the five ROI knobs;
//   - delay-aware LQR control design annotated with (h, tau) pairs and a
//     switching-stability certificate (common quadratic Lyapunov
//     function);
//   - an NVIDIA AGX Xavier timing model seeded with the paper's profiled
//     runtimes, which turns knob choices into (tau, h, FPS);
//   - three light-weight CNN situation classifiers trained on synthetic
//     data (Table IV) with a from-scratch CNN framework;
//   - the design flow itself: design-time characterization regenerating
//     Table III, runtime reconfiguration with the one-cycle ISP delay,
//     and the classifier invocation policies including the variable
//     scheme of Sec. IV-E;
//   - a closed-loop hardware-in-the-loop substitute (fixed 5 ms step)
//     that evaluates all of the above and reproduces the paper's
//     experiments (see EXPERIMENTS.md).
//
// Most users start with Run (one closed-loop evaluation) or Characterize
// (the design-time flow):
//
//	track := hsas.NineSectorTrack()
//	res, err := hsas.Run(hsas.SimConfig{Track: track, Case: hsas.Case4})
//
// The contract: this package exports exactly the names that README.md or
// a program under examples/ uses, and TestFacadeMatchesContract enforces
// it. A new export comes with the README section or example that uses
// it. The commands under cmd/ and the tests import the internal packages
// directly.
package hsas

import (
	"hsas/internal/camera"
	"hsas/internal/control"
	"hsas/internal/core"
	"hsas/internal/fault"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/perception"
	"hsas/internal/platform"
	"hsas/internal/sim"
	"hsas/internal/vehicle"
	"hsas/internal/world"
)

// Situation taxonomy (Table I).
type (
	// Situation is a combination of environmental factors (Table I).
	Situation = world.Situation
	// LaneMarking is a marking's color and form.
	LaneMarking = world.LaneMarking
)

// Road layouts, lane colors and forms, and scenes.
const (
	Straight   = world.Straight
	RightTurn  = world.RightTurn
	White      = world.White
	Yellow     = world.Yellow
	Continuous = world.Continuous
	Day        = world.Day
	Dusk       = world.Dusk
)

// PaperSituations lists the 21 situations of Table III.
var PaperSituations = world.PaperSituations

// SituationTrack builds the single-situation track used by the static
// evaluation; NineSectorTrack is the Fig. 7 dynamic case study.
var (
	SituationTrack  = world.SituationTrack
	NineSectorTrack = world.NineSectorTrack
)

// Case is a Table V evaluation configuration.
type Case = knobs.Case

// Evaluation cases.
const (
	Case1        = knobs.Case1
	Case2        = knobs.Case2
	Case3        = knobs.Case3
	Case4        = knobs.Case4
	CaseVariable = knobs.CaseVariable
)

// PrecisionInt8 selects the quantized int8 classifier path.
const PrecisionInt8 = knobs.PrecisionInt8

// PaperTable returns Table III as a lookup table.
var PaperTable = knobs.PaperTable

// DefaultCamera is the paper's 512×256 front camera; ScaledCamera keeps
// the geometry at a different resolution. Xavier is the 30 W NVIDIA AGX
// Xavier; BMWX5 the plant driven in all experiments.
var (
	DefaultCamera = camera.Default
	ScaledCamera  = camera.Scaled
	Xavier        = platform.Xavier
	BMWX5         = vehicle.BMWX5
)

// LookAhead is the controller look-ahead distance LL (5.5 m).
const LookAhead = perception.LookAhead

// SimConfig parameterizes one closed-loop run (the HiL substitute).
type SimConfig = sim.Config

// Run executes one closed-loop evaluation.
var Run = sim.Run

// ParseFaultSpec parses the -faults text format (see the fault package
// for the grammar), e.g. "drop:p=0.02;noise:mag=0.2@200-400", into a
// schedule for SimConfig.Faults.
var ParseFaultSpec = fault.ParseSpec

// CharacterizeConfig parameterizes the design-time knob sweep.
type CharacterizeConfig = core.CharacterizeConfig

// Characterize runs the design-time flow; NewReconfigurator embeds the
// runtime reconfiguration; VerifySwitchingStability certifies the
// controller bank's common Lyapunov function.
var (
	Characterize             = core.Characterize
	NewReconfigurator        = core.NewReconfigurator
	VerifySwitchingStability = core.VerifySwitchingStability
)

// NoiseModel characterizes situation-dependent sensing noise for the LQG
// control extension (the paper's named future work).
type NoiseModel = control.NoiseModel

// NewLQGDesign builds a noise-aware controller design.
var NewLQGDesign = control.NewLQGDesign

// Observer bundles the optional telemetry sinks; set SimConfig.Obs or
// CharacterizeConfig.Obs to attach it. A nil Observer disables all
// instrumentation at negligible cost.
type Observer = obs.Observer

// NewMetricsRegistry, NewSpanTracer and StartMetricsServer build the
// telemetry sinks (Prometheus text exposition, Chrome trace-event spans,
// /metrics and /debug/vars over HTTP); NewObsLogger wraps a writer in a
// leveled slog logger.
var (
	NewMetricsRegistry = obs.NewRegistry
	NewSpanTracer      = obs.NewTracer
	StartMetricsServer = obs.StartServer
	NewObsLogger       = obs.NewLogger
)
