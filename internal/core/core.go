// Package core implements the paper's primary contribution: the
// hardware- and situation-aware design flow of Fig. 5.
//
//  1. Situation definition — the taxonomy lives in internal/world
//     (Table I) and is open for extension (Sec. V).
//  2. Hardware- and situation-aware characterization (Sec. III-B) —
//     Characterize sweeps the configurable knobs per situation through
//     closed-loop simulation and records the tuning with the best QoC,
//     regenerating Table III for this substrate.
//  3. Situation identification (Sec. III-C) — classifiers live in
//     internal/classifier; this package only consumes their outputs.
//  4. Dynamic runtime reconfiguration (Sec. III-D) — Reconfigurator
//     turns classifier outputs into knob settings with the one-cycle ISP
//     reconfiguration delay, for embedding into any control loop.
//
// VerifySwitchingStability implements the paper's stability argument: a
// common quadratic Lyapunov function across every controller the runtime
// can switch between.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hsas/internal/camera"
	"hsas/internal/campaign"
	"hsas/internal/control"
	"hsas/internal/isp"
	"hsas/internal/knobs"
	"hsas/internal/mat"
	"hsas/internal/obs"
	"hsas/internal/perception"
	"hsas/internal/platform"
	"hsas/internal/vehicle"
	"hsas/internal/world"
)

// CharacterizeConfig parameterizes the design-time knob sweep.
type CharacterizeConfig struct {
	// Situations to characterize; defaults to world.PaperSituations.
	Situations []world.Situation
	// ISPCandidates to sweep; defaults to all of Table II (S0–S8).
	ISPCandidates []string
	// Precisions lists the classifier arithmetic-precision knob values to
	// sweep per ISP candidate (any spelling knobs.ParsePrecision accepts).
	// The default sweeps float32 only, keeping the sweep — and its
	// campaign cache keys — identical to the pre-precision flow; add
	// knobs.PrecisionInt8 to let the characterization weigh the quantized
	// path's latency win against its accuracy cost per situation.
	Precisions []string
	// FullROISweep also sweeps all five ROIs instead of pruning to the
	// layout-appropriate candidates, and both speeds instead of the
	// layout rule. The pruned sweep mirrors the paper's Monte-Carlo
	// screening, which found ROI and speed to track the road layout.
	FullROISweep bool
	// Camera resolution for the closed-loop runs; defaults to a reduced
	// 256×128 (the sweep is hundreds of runs; Fig. 6/8 use full size).
	Camera camera.Camera
	Seed   int64
	// Runner executes the sweep's closed-loop jobs: a *campaign.Engine,
	// whose workers, cache, result lake, observer and hooks then apply to
	// the sweep, or a fabric coordinator. nil means
	// &campaign.Engine{Obs: Obs}: GOMAXPROCS workers, no cache, no lake.
	// The result is identical for any runner, worker count or cache
	// state.
	Runner campaign.Runner
	// Obs, when set, receives one log line and one span per
	// characterized situation.
	Obs *obs.Observer
	// Context cancels the sweep between runs; nil means
	// context.Background(). A cancelled engine sweep keeps every
	// checkpointed run in its cache.
	Context context.Context
}

// Candidate is one evaluated knob setting for a situation.
type Candidate struct {
	Setting knobs.Setting
	MAE     float64
	Crashed bool
	HMs     float64
	TauMs   float64
}

// Entry is the characterization outcome for one situation: our
// regenerated Table III row plus every candidate evaluated.
type Entry struct {
	Situation  world.Situation
	Best       Candidate
	Candidates []Candidate
}

// Result is the product of the characterization flow.
type Result struct {
	Entries []Entry
}

// Table returns the situation → best-setting lookup table used by the
// runtime reconfiguration (our regenerated Table III).
func (r *Result) Table() knobs.Table {
	t := knobs.Table{}
	for _, e := range r.Entries {
		t[e.Situation] = e.Best.Setting
	}
	return t
}

// FormatTable renders the result in the shape of the paper's Table III.
// When a precision other than the float32 default won a row, the ISP
// column carries a "/int8"-style marker so the quantized wins read off
// the table directly.
func (r *Result) FormatTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-38s %-9s %-5s %-18s %-8s\n", "Sit", "Situation Details", "ISP", "PR", "Tc [v, h, tau]", "MAE")
	for i, e := range r.Entries {
		crash := ""
		if e.Best.Crashed {
			crash = " CRASH"
		}
		ispCol := e.Best.Setting.ISP
		if p := e.Best.Setting.Precision; p != knobs.PrecisionFP32 {
			ispCol += "/" + knobs.PrecisionName(p)
		}
		fmt.Fprintf(&sb, "%-4d %-38s %-9s ROI %d [%g, %g, %.1f]      %.4f%s\n",
			i+1, e.Situation.String(), ispCol, e.Best.Setting.ROI,
			e.Best.Setting.SpeedKmph, e.Best.HMs, e.Best.TauMs, e.Best.MAE, crash)
	}
	return sb.String()
}

// Characterize runs the design-time sweep: for every situation, evaluate
// the candidate knob settings in closed loop (with the full three-
// classifier pipeline charged to the timing, as the runtime will pay it)
// and keep the setting with the best QoC. All situations' candidates are
// flattened into one job list for cfg.Runner and re-assembled in
// enumeration order, so the outcome is identical to a serial sweep for
// any runner, worker count or cache state.
func Characterize(cfg CharacterizeConfig) (*Result, error) {
	if cfg.Situations == nil {
		cfg.Situations = world.PaperSituations
	}
	if cfg.ISPCandidates == nil {
		cfg.ISPCandidates = tableIIISPs()
	}
	if len(cfg.Precisions) == 0 {
		cfg.Precisions = []string{knobs.PrecisionFP32}
	} else {
		canon := make([]string, len(cfg.Precisions))
		for i, p := range cfg.Precisions {
			cp, err := knobs.ParsePrecision(p)
			if err != nil {
				return nil, fmt.Errorf("core: characterize: %w", err)
			}
			canon[i] = cp
		}
		cfg.Precisions = canon
	}
	if cfg.Camera.Width == 0 {
		cfg.Camera = camera.Scaled(256, 128)
	}
	runner := cfg.Runner
	if runner == nil {
		runner = &campaign.Engine{Obs: cfg.Obs}
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	xavier := platform.Xavier()
	o := cfg.Obs

	// Flatten the sweep into campaign jobs. Timings are resolved per
	// candidate up front, so an unknown candidate fails fast before
	// anything simulates.
	type timingKey struct{ isp, precision string }
	timings := map[timingKey]platform.Timing{}
	perSit := make([][]knobs.Setting, len(cfg.Situations))
	var jobs []campaign.JobSpec
	for i, sit := range cfg.Situations {
		perSit[i] = candidateSettings(sit, cfg)
		for _, setting := range perSit[i] {
			tk := timingKey{setting.ISP, setting.Precision}
			if _, ok := timings[tk]; !ok {
				tm, err := xavier.TimingForPrecision(setting.ISP, 3, setting.Precision)
				if err != nil {
					return nil, fmt.Errorf("core: characterize %v with %v: %w", sit, setting, err)
				}
				timings[tk] = tm
			}
			jobs = append(jobs, sweepJob(sit, cfg.Camera, setting, cfg.Seed))
		}
	}

	sweepStart := o.Tracer().Begin()
	results, _, err := runner.Run(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("core: characterize: %w", err)
	}

	// Re-assemble in enumeration order: candidates within a situation
	// are scored independently, so the sweep outcome never depends on
	// completion order, worker count or cache state.
	res := &Result{}
	idx := 0
	for i, sit := range cfg.Situations {
		evalSector := world.SituationEvalSector(sit)
		cands := make([]Candidate, len(perSit[i]))
		for k, setting := range perSit[i] {
			r := results[idx]
			idx++
			tm := timings[timingKey{setting.ISP, setting.Precision}]
			cands[k] = Candidate{Setting: setting, HMs: tm.HMs, TauMs: tm.TauMs}
			cands[k].MAE, cands[k].Crashed = penalizedMAE(r.Sector(evalSector), r.Crashed)
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].MAE < cands[j].MAE })
		res.Entries = append(res.Entries, Entry{Situation: sit, Best: cands[0], Candidates: cands})
		o.Tracer().Span("situation", "characterize", 0, sweepStart,
			map[string]any{"situation": sit.String(), "candidates": len(cands)})
		o.Logger().Info("situation characterized",
			"situation", sit.String(), "candidates", len(cands),
			"best_isp", cands[0].Setting.ISP, "best_roi", cands[0].Setting.ROI,
			"best_speed_kmph", cands[0].Setting.SpeedKmph,
			"best_precision", knobs.PrecisionName(cands[0].Setting.Precision),
			"best_mae_m", cands[0].MAE)
	}
	return res, nil
}

// sweepJob is the closed-loop job both design-time sweeps evaluate: the
// situation's track at one fixed knob setting, with all three
// classifiers charged to the timing as the runtime pays them.
func sweepJob(sit world.Situation, cam camera.Camera, setting knobs.Setting, seed int64) campaign.JobSpec {
	return campaign.JobSpec{
		Situation:        &sit,
		Camera:           cam,
		Fixed:            &setting,
		FixedClassifiers: 3,
		Seed:             seed,
	}
}

// tableIIISPs lists the ISP configurations of Table II in order (S0–S8):
// the default candidates of both sweeps.
func tableIIISPs() []string {
	ids := make([]string, len(isp.Knobs))
	for i, k := range isp.Knobs {
		ids[i] = k.ID
	}
	return ids
}

// crashPenalty is added to a candidate's eval-sector MAE when its run
// crashed (or never produced an eval-sector sample), pushing it behind
// every surviving candidate while preserving the relative order among
// crashed ones.
const crashPenalty = 10

// penalizedMAE maps a candidate's eval-sector MAE and crash flag to its
// ranking score. Crashed candidates are penalized on the SAME sector
// basis as survivors — sectorMAE + crashPenalty — so two crashers still
// rank by how well they tracked the eval sector before failing. (The
// seed version penalized with the whole-track MAE instead, which ranked
// crashed candidates on an incomparable basis.) A zero sectorMAE means
// the run ended before sampling the eval sector and is treated as a
// crash there.
func penalizedMAE(sectorMAE float64, crashed bool) (float64, bool) {
	if crashed || sectorMAE == 0 {
		return sectorMAE + crashPenalty, true
	}
	return sectorMAE, false
}

// candidateSettings enumerates the knob space for one situation. The
// pruned default follows the paper's screening: ROI and speed track the
// road layout (Table III shows no exceptions), so only the ISP knob is
// swept; FullROISweep widens to the full Table II space.
func candidateSettings(sit world.Situation, cfg CharacterizeConfig) []knobs.Setting {
	precisions := cfg.Precisions
	if len(precisions) == 0 {
		precisions = []string{knobs.PrecisionFP32}
	}
	var out []knobs.Setting
	if cfg.FullROISweep {
		for _, ispID := range cfg.ISPCandidates {
			for roi := 1; roi <= 5; roi++ {
				for _, v := range knobs.Speeds {
					for _, p := range precisions {
						out = append(out, knobs.Setting{ISP: ispID, ROI: roi, SpeedKmph: v, Precision: p})
					}
				}
			}
		}
		return out
	}
	roi := knobs.RoadROI(sit.Layout, sit.Lane.Form == world.Dotted)
	speed := knobs.SpeedFor(sit.Layout)
	for _, ispID := range cfg.ISPCandidates {
		for _, p := range precisions {
			out = append(out, knobs.Setting{ISP: ispID, ROI: roi, SpeedKmph: speed, Precision: p})
		}
	}
	return out
}

// Reconfigurator implements the runtime reconfiguration of Sec. III-D for
// embedding in any control loop: feed it classifier outputs as they are
// produced and query the knobs to apply. PR and control knobs take effect
// immediately; the ISP knob one cycle later.
type Reconfigurator struct {
	Case  knobs.Case
	Table knobs.Table

	road, lane, scene int
	activeISP         string
	initialized       bool
}

// NewReconfigurator starts from the given initial belief.
func NewReconfigurator(c knobs.Case, table knobs.Table, initial world.Situation) *Reconfigurator {
	r := &Reconfigurator{Case: c, Table: table}
	r.road = int(initial.Layout)
	if lc, ok := world.LaneClass(initial.Lane); ok {
		r.lane = lc
	}
	r.scene = int(initial.Scene)
	r.activeISP = r.target().ISP
	r.initialized = true
	return r
}

// Observe folds in the classifier outputs that ran this frame (negative
// values mean "did not run").
func (r *Reconfigurator) Observe(road, lane, scene int) {
	if road >= 0 && road < world.NumRoadClasses {
		r.road = road
	}
	if lane >= 0 && lane < world.NumLaneClasses {
		r.lane = lane
	}
	if scene >= 0 && scene < world.NumSceneClasses {
		r.scene = scene
	}
}

// Believed returns the current believed situation.
func (r *Reconfigurator) Believed() world.Situation {
	return world.Situation{
		Layout: world.RoadLayout(r.road),
		Lane:   world.LaneMarkingForClass(r.lane),
		Scene:  world.Scene(r.scene),
	}
}

func (r *Reconfigurator) target() knobs.Setting {
	return knobs.CaseSetting(r.Case, r.Believed(), r.Table)
}

// Step advances one sensing cycle and returns the knobs for this cycle:
// the PR/control setting to use now, and the ISP configuration that was
// active when the current frame was captured (the newly selected ISP only
// applies from the next frame — the one-cycle delay of Sec. III-D).
func (r *Reconfigurator) Step() (current knobs.Setting, activeISP string) {
	t := r.target()
	active := r.activeISP
	r.activeISP = t.ISP
	return t, active
}

// VerifySwitchingStability checks the paper's switching-stability
// argument (Sec. III-D): every controller the runtime can select from the
// table — all (speed, h, tau) combinations across situations and both the
// full and variable invocation pipelines — must share a common quadratic
// Lyapunov function.
func VerifySwitchingStability(table knobs.Table, p vehicle.Params) error {
	xavier := platform.Xavier()
	type key struct {
		v, h, tau float64
	}
	seen := map[key]bool{}
	var loops []*control.Design
	for _, setting := range table {
		for _, nClassifiers := range []int{3, 1} {
			timing, err := xavier.TimingForPrecision(setting.ISP, nClassifiers, setting.Precision)
			if err != nil {
				return err
			}
			tau := xavier.CeilToStep(timing.TauMs)
			k := key{setting.SpeedKmph, timing.HMs, tau}
			if seen[k] {
				continue
			}
			seen[k] = true
			d, err := control.NewDesign(p, setting.SpeedKmph, timing.HMs/1000, tau/1000, perception.LookAhead)
			if err != nil {
				return fmt.Errorf("core: design for %+v: %w", k, err)
			}
			loops = append(loops, d)
		}
	}
	mats := make([]*mat.Mat, 0, len(loops))
	for _, d := range loops {
		mats = append(mats, d.ClosedLoop())
	}
	if _, err := control.FindCQLF(mats); err != nil {
		return fmt.Errorf("core: switching stability not certified over %d designs: %w", len(mats), err)
	}
	return nil
}
