// Package knobs defines the system's configurable knobs (Table II) — ISP
// configuration, perception ROI and control knobs (vehicle speed, period
// h, delay tau) — the pre-characterized situation-specific tunings of
// Table III, and the four evaluation cases of Table V.
package knobs

import (
	"fmt"

	"hsas/internal/world"
)

// Setting is one complete knob assignment: what the runtime
// reconfiguration applies after situation identification.
type Setting struct {
	ISP       string  // Table II ISP knob, "S0".."S8"
	ROI       int     // Table II PR knob, 1..5
	SpeedKmph float64 // control knob: 30 or 50 km/h
	// Precision is the classifier arithmetic-precision knob: "" (the
	// canonical float32 default) or PrecisionInt8. The zero value is
	// float32 and is omitted from JSON so pre-precision campaign cache
	// keys stay byte-identical.
	Precision string `json:"Precision,omitempty"`
}

func (s Setting) String() string {
	if s.Precision != PrecisionFP32 {
		return fmt.Sprintf("{ISP %s, ROI %d, v %g km/h, %s}", s.ISP, s.ROI, s.SpeedKmph, s.Precision)
	}
	return fmt.Sprintf("{ISP %s, ROI %d, v %g km/h}", s.ISP, s.ROI, s.SpeedKmph)
}

// Precision knob values: the arithmetic precision the classifiers run
// at, the hardware-awareness axis extended to compute (cf. the quantized
// inference path in internal/cnn). The float32 canonical value is the
// empty string so that the zero Setting, every pre-existing literal, and
// every previously content-addressed campaign job mean float32
// unchanged.
const (
	PrecisionFP32 = ""     // float32 inference (canonical default)
	PrecisionInt8 = "int8" // quantize-after-training int8 inference
)

// ParsePrecision canonicalizes a user-facing precision name: "" and
// "fp32" (and "float32") mean the float32 default, "int8" the quantized
// path. Anything else is an error.
func ParsePrecision(s string) (string, error) {
	switch s {
	case "", "fp32", "float32":
		return PrecisionFP32, nil
	case PrecisionInt8:
		return PrecisionInt8, nil
	}
	return "", fmt.Errorf("knobs: unknown precision %q (want fp32 or int8)", s)
}

// PrecisionName returns the display name of a canonical precision value
// ("fp32" for the empty float32 default).
func PrecisionName(p string) string {
	if p == PrecisionFP32 {
		return "fp32"
	}
	return p
}

// Speeds are the control speed knob values of Table II.
var Speeds = []float64{30, 50}

// Case identifies the evaluation configurations of Table V plus the
// variable-invocation scheme of Sec. IV-E.
type Case int

// The four cases of Table V and the Sec. IV-E invocation scheme.
const (
	Case1        Case = iota + 1 // no classifiers: static S0, ROI 1, 50 km/h
	Case2                        // road classifier only: coarse ROI + speed
	Case3                        // road + lane classifiers: fine-grained ROI
	Case4                        // all three classifiers: ISP approximation too
	CaseVariable                 // case 4 + variable invocation frequency
)

func (c Case) String() string {
	switch c {
	case Case1:
		return "case 1 (no classifiers)"
	case Case2:
		return "case 2 (road classifier)"
	case Case3:
		return "case 3 (road+lane classifiers)"
	case Case4:
		return "case 4 (all classifiers)"
	case CaseVariable:
		return "variable invocation"
	}
	return fmt.Sprintf("Case(%d)", int(c))
}

// Table maps situations to their best pre-characterized knob setting
// (the product of the design-time characterization, Sec. III-B).
type Table map[world.Situation]Setting

// Lookup returns the setting for a situation, falling back to the static
// case-1 default for situations outside the table.
func (t Table) Lookup(sit world.Situation) Setting {
	if s, ok := t[sit]; ok {
		return s
	}
	return Setting{ISP: "S0", ROI: RoadROI(sit.Layout, sit.Lane.Form == world.Dotted), SpeedKmph: SpeedFor(sit.Layout)}
}

// RoadROI returns the layout-appropriate ROI: coarse per layout, fine
// (ROI 3/5) when the lane marking is dotted — the fine-grained switching
// that distinguishes case 3 from case 2 (Sec. IV-C).
func RoadROI(layout world.RoadLayout, dotted bool) int {
	switch layout {
	case world.RightTurn:
		if dotted {
			return 3
		}
		return 2
	case world.LeftTurn:
		if dotted {
			return 5
		}
		return 4
	default:
		return 1
	}
}

// CoarseROI returns the layout-appropriate ROI without lane-type
// knowledge (what case 2 can do with only the road classifier).
func CoarseROI(layout world.RoadLayout) int { return RoadROI(layout, false) }

// SpeedFor returns the speed knob the characterization selects per
// layout: 50 km/h on straights, 30 km/h in turns (Table III).
func SpeedFor(layout world.RoadLayout) float64 {
	if layout == world.Straight {
		return 50
	}
	return 30
}

// PaperTuning is one row of Table III.
type PaperTuning struct {
	Situation world.Situation
	ISP       string
	ROI       int
	SpeedKmph float64
	HMs       float64
	TauMs     float64
}

// PaperTable3 reproduces Table III verbatim: the paper's pre-characterized
// situation-specific knob tunings for best QoC. Our own characterization
// (core.Characterize) regenerates an equivalent table from the simulator;
// EXPERIMENTS.md compares the two.
var PaperTable3 = []PaperTuning{
	{world.PaperSituations[0], "S3", 1, 50, 25, 23.1},
	{world.PaperSituations[1], "S7", 1, 50, 25, 22.4},
	{world.PaperSituations[2], "S4", 1, 50, 25, 22.5},
	{world.PaperSituations[3], "S6", 1, 50, 25, 22.5},
	{world.PaperSituations[4], "S6", 1, 50, 25, 22.5},
	{world.PaperSituations[5], "S8", 1, 50, 25, 23.0},
	{world.PaperSituations[6], "S8", 1, 50, 25, 23.0},
	{world.PaperSituations[7], "S6", 2, 30, 25, 22.5},
	{world.PaperSituations[8], "S3", 2, 30, 25, 23.1},
	{world.PaperSituations[9], "S3", 2, 30, 25, 23.1},
	{world.PaperSituations[10], "S8", 2, 30, 25, 23.0},
	{world.PaperSituations[11], "S3", 2, 30, 25, 23.1},
	{world.PaperSituations[12], "S3", 3, 30, 25, 23.1},
	{world.PaperSituations[13], "S8", 3, 30, 25, 23.0},
	{world.PaperSituations[14], "S3", 4, 30, 25, 23.1},
	{world.PaperSituations[15], "S8", 4, 30, 25, 23.0},
	{world.PaperSituations[16], "S8", 4, 30, 25, 23.0},
	{world.PaperSituations[17], "S3", 4, 30, 25, 23.1},
	{world.PaperSituations[18], "S8", 4, 30, 25, 23.0},
	{world.PaperSituations[19], "S2", 5, 30, 45, 40.7},
	{world.PaperSituations[20], "S2", 5, 30, 45, 40.7},
}

// PaperTable returns Table III as a lookup table.
func PaperTable() Table {
	t := Table{}
	for _, row := range PaperTable3 {
		t[row.Situation] = Setting{ISP: row.ISP, ROI: row.ROI, SpeedKmph: row.SpeedKmph}
	}
	return t
}

// FallbackSetting is the graceful-degradation tuning the runtime drops
// to after consecutive sensing failures: the robust case-3 knobs — full
// ISP pipeline (S0), fine-grained ROI, conservative layout speed. It
// needs no characterized table and tolerates the largest sensing error
// of any case that still adapts to the road layout, which is what makes
// it the safe harbor when perception degrades (cf. Dean et al.'s bounded
// perception-error argument in PAPERS.md).
func FallbackSetting(sit world.Situation) Setting {
	return CaseSetting(Case3, sit, nil)
}

// CaseSetting resolves the knob setting a case applies for a (believed)
// situation, per Table V:
//
//	case 1: everything static (S0, ROI 1, 50 km/h)
//	case 2: S0; ROI and speed from the road classifier (coarse)
//	case 3: S0; ROI fine-grained from road + lane classifiers
//	case 4 / variable: full lookup in the characterized table
func CaseSetting(c Case, sit world.Situation, table Table) Setting {
	switch c {
	case Case1:
		return Setting{ISP: "S0", ROI: 1, SpeedKmph: 50}
	case Case2:
		return Setting{ISP: "S0", ROI: CoarseROI(sit.Layout), SpeedKmph: SpeedFor(sit.Layout)}
	case Case3:
		return Setting{ISP: "S0", ROI: RoadROI(sit.Layout, sit.Lane.Form == world.Dotted), SpeedKmph: SpeedFor(sit.Layout)}
	default:
		return table.Lookup(sit)
	}
}
