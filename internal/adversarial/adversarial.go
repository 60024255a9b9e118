package adversarial

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"hsas/internal/camera"
	"hsas/internal/campaign"
	"hsas/internal/fault"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/sim"
	"hsas/internal/world"
)

// MagPlaceholder is the substring of a Grid fault template replaced by
// the search's magnitude scalar.
const MagPlaceholder = "$mag"

// Grid declares an adversarial search: the (situation x knob) cells to
// probe and the fault-magnitude range to search per cell. The zero
// value of every field except Fault has a usable default, so a minimal
// grid is just {"fault": "occlude:frac=$mag"}.
type Grid struct {
	// Situations are 1-based Table III situation indices
	// (world.PaperSituations[i-1]); empty means all 21.
	Situations []int `json:"situations,omitempty"`

	// Cases and Settings together form the knob axis: one cell per
	// situation per entry, cases first. Empty both defaults to the full
	// runtime-reconfiguration scheme, Cases = [4].
	Cases    []int           `json:"cases,omitempty"`
	Settings []knobs.Setting `json:"settings,omitempty"`
	// FixedClassifiers is the classifier count charged to fixed-setting
	// cells (campaign.JobSpec.FixedClassifiers); 0 defaults to 3.
	FixedClassifiers int `json:"fixed_classifiers,omitempty"`

	// Width and Height are the camera geometry; 0 defaults to 192x96,
	// the golden-test scale.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Seed drives every probe run; 0 defaults to 1.
	Seed int64 `json:"seed,omitempty"`

	// Fault is a fault.ParseSpec template containing MagPlaceholder
	// ("$mag"), e.g. "occlude:frac=$mag" or "noise:mag=$mag@100-300".
	// Required. Note the parser rejects p=0, so templates substituting
	// $mag into a probability need Lo > 0.
	Fault string `json:"fault"`
	// Lo and Hi bound the magnitude search range; an unset (0) Hi
	// defaults to 1.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Tol is the bisection tolerance; 0 defaults to (Hi-Lo)/64.
	Tol float64 `json:"tol,omitempty"`
	// Refine enables the non-monotone refinement pass (see Search).
	Refine int `json:"refine,omitempty"`

	// Degrade and UseFeedforward pass through to every probe JobSpec.
	Degrade        *sim.Degradation `json:"degrade,omitempty"`
	UseFeedforward bool             `json:"feedforward,omitempty"`
}

// knob is one resolved point on the knob axis.
type knob struct {
	kase  int
	fixed *knobs.Setting
}

func (k knob) String() string {
	if k.fixed != nil {
		return k.fixed.String()
	}
	return knobs.Case(k.kase).String()
}

// normalize validates the grid and fills defaults, returning the
// resolved cell axes.
func (g Grid) normalize() (Grid, []int, []knob, error) {
	if g.Width == 0 && g.Height == 0 {
		g.Width, g.Height = 192, 96
	}
	if g.Width <= 0 || g.Height <= 0 {
		return g, nil, nil, fmt.Errorf("adversarial: camera %dx%d: width and height must be positive", g.Width, g.Height)
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Hi == 0 {
		g.Hi = 1
	}
	if !(g.Hi > g.Lo) {
		return g, nil, nil, fmt.Errorf("adversarial: magnitude range [%g, %g] is empty", g.Lo, g.Hi)
	}
	if g.Tol == 0 {
		g.Tol = (g.Hi - g.Lo) / 64
	}
	if g.Tol <= 0 {
		return g, nil, nil, fmt.Errorf("adversarial: tolerance %g must be positive", g.Tol)
	}
	if g.Refine < 0 {
		return g, nil, nil, fmt.Errorf("adversarial: refine %d must be non-negative", g.Refine)
	}

	if !strings.Contains(g.Fault, MagPlaceholder) {
		return g, nil, nil, fmt.Errorf("adversarial: fault template %q does not contain %q", g.Fault, MagPlaceholder)
	}
	// Both range endpoints must substitute into a parseable spec, so a
	// bad template fails here rather than mid-search.
	for _, mag := range []float64{g.Lo, g.Hi} {
		if _, err := MagSpec(g.Fault, mag); err != nil {
			return g, nil, nil, fmt.Errorf("adversarial: fault template at magnitude %g: %w", mag, err)
		}
	}

	sits := g.Situations
	if len(sits) == 0 {
		sits = make([]int, len(world.PaperSituations))
		for i := range sits {
			sits[i] = i + 1
		}
	}
	for _, s := range sits {
		if s < 1 || s > len(world.PaperSituations) {
			return g, nil, nil, fmt.Errorf("adversarial: situation %d outside 1-%d", s, len(world.PaperSituations))
		}
	}

	if g.FixedClassifiers == 0 {
		g.FixedClassifiers = 3
	}
	var ks []knob
	cases := g.Cases
	if len(cases) == 0 && len(g.Settings) == 0 {
		cases = []int{4}
	}
	for _, c := range cases {
		if c < 1 || c > 5 {
			return g, nil, nil, fmt.Errorf("adversarial: case %d outside 1-5", c)
		}
		ks = append(ks, knob{kase: c})
	}
	for i := range g.Settings {
		ks = append(ks, knob{fixed: &g.Settings[i]})
	}
	return g, sits, ks, nil
}

// MagSpec substitutes mag for MagPlaceholder in the fault template and
// canonicalizes the result through the spec parser, so every probe's
// JobSpec carries the same canonical fault string the campaign cache
// would derive itself.
func MagSpec(template string, mag float64) (string, error) {
	spec := strings.ReplaceAll(template, MagPlaceholder, strconv.FormatFloat(mag, 'g', -1, 64))
	sched, err := fault.ParseSpec(spec)
	if err != nil {
		return "", err
	}
	return sched.Spec(), nil
}

// Cell is one completed (situation, knob) search.
type Cell struct {
	// SituationIndex is the 1-based Table III situation number.
	SituationIndex int `json:"situation"`
	// Situation is its human-readable name.
	Situation string `json:"situation_name"`
	// Knob names the cell's knob tuning (a case or a fixed setting).
	Knob string `json:"knob"`
	// Search is the cell's margin search outcome.
	Search SearchResult `json:"search"`
}

// Result is the full margin table plus aggregate campaign stats.
type Result struct {
	// Fault is the grid's fault template.
	Fault string `json:"fault"`
	// Cells is the margin table, ordered by (situation, knob) exactly
	// as the grid enumerates them — independent of worker counts.
	Cells []Cell `json:"cells"`
	// Stats aggregates the campaign runs behind every probe; a fully
	// warm search reports Simulated == 0.
	Stats campaign.RunStats `json:"stats"`
}

// Config parameterizes Run.
type Config struct {
	// Grid declares the search.
	Grid Grid
	// Runner executes probe jobs: a *campaign.Engine, a
	// fabric.Coordinator, or anything else satisfying the seam. The
	// margin table is bit-identical for any runner because probe
	// outcomes are. Required.
	Runner campaign.Runner
	// Obs receives hsas_adversarial_* metrics and progress logs.
	Obs *obs.Observer
	// Progress, when set, observes each completed cell. Cells are
	// searched one after another, in grid order, so Progress sees them
	// in the order of the Result's Cells.
	Progress func(Cell)
}

// Run executes the adversarial search and returns the margin table.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("adversarial: config needs a Runner")
	}
	g, sits, ks, err := cfg.Grid.normalize()
	if err != nil {
		return nil, err
	}

	reg := cfg.Obs.Registry()
	probesC := reg.Counter("hsas_adversarial_probes_total", "adversarial margin-search probes (campaign jobs submitted)")
	hitsC := reg.Counter("hsas_adversarial_cache_hits_total", "adversarial probes served from the campaign cache")
	marginH := reg.Histogram("hsas_adversarial_margin", "per-cell robustness margins",
		[]float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1})

	type cellAxes struct {
		sit  int
		knob knob
	}
	var axes []cellAxes
	for _, s := range sits {
		for _, k := range ks {
			axes = append(axes, cellAxes{sit: s, knob: k})
		}
	}

	res := &Result{Fault: g.Fault, Cells: make([]Cell, len(axes))}

	specFor := func(a cellAxes, mag float64) (campaign.JobSpec, error) {
		fs, err := MagSpec(g.Fault, mag)
		if err != nil {
			return campaign.JobSpec{}, err
		}
		sit := world.PaperSituations[a.sit-1]
		spec := campaign.JobSpec{
			Situation:      &sit,
			Camera:         camera.Camera{Width: g.Width, Height: g.Height},
			Seed:           g.Seed,
			Faults:         fs,
			Degrade:        g.Degrade,
			UseFeedforward: g.UseFeedforward,
		}
		if a.knob.fixed != nil {
			f := *a.knob.fixed
			spec.Fixed = &f
			spec.FixedClassifiers = g.FixedClassifiers
		} else {
			spec.Case = a.knob.kase
		}
		return spec, nil
	}
	runProbes := func(a cellAxes, mags []float64) ([]bool, error) {
		jobs := make([]campaign.JobSpec, len(mags))
		for i, m := range mags {
			spec, err := specFor(a, m)
			if err != nil {
				return nil, err
			}
			jobs[i] = spec
		}
		results, stats, err := cfg.Runner.Run(ctx, jobs)
		res.Stats.Jobs += stats.Jobs
		res.Stats.Unique += stats.Unique
		res.Stats.CacheHits += stats.CacheHits
		res.Stats.Simulated += stats.Simulated
		probesC.Add(int64(len(mags)))
		hitsC.Add(int64(stats.CacheHits))
		if err != nil {
			return nil, err
		}
		verdicts := make([]bool, len(results))
		for i, r := range results {
			if r == nil {
				return nil, fmt.Errorf("adversarial: probe %d of %d returned no result", i, len(results))
			}
			verdicts[i] = !r.Crashed && r.Degraded.FallbackEntries == 0
		}
		return verdicts, nil
	}

	search := Search{Lo: g.Lo, Hi: g.Hi, Tol: g.Tol, Refine: g.Refine}
	for i, a := range axes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sr, err := search.FindMargin(func(mags []float64) ([]bool, error) { return runProbes(a, mags) })
		if err != nil {
			return nil, fmt.Errorf("adversarial: situation %d, %s: %w", a.sit, a.knob, err)
		}
		cell := Cell{
			SituationIndex: a.sit,
			Situation:      world.PaperSituations[a.sit-1].String(),
			Knob:           a.knob.String(),
			Search:         sr,
		}
		res.Cells[i] = cell
		marginH.Observe(sr.Margin)
		cfg.Obs.Logger().Info("adversarial cell done",
			"situation", a.sit, "knob", cell.Knob,
			"margin", sr.Margin, "status", sr.Status, "probes", sr.Probes)
		if cfg.Progress != nil {
			cfg.Progress(cell)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
