// Package campaign is the simulation-campaign engine behind the mass
// closed-loop sweeps of the design flow (Sec. III-B): it expands a
// declarative grid (cases × situations/tracks × seeds × fault specs ×
// camera sizes) into jobs, runs them on a bounded sharded worker pool,
// and persists every result in a content-addressed cache keyed by a
// canonical hash of everything that determines the outcome. Because a
// run is bit-deterministic in (config, seed, fault schedule) for any
// worker count (the determinism contract from internal/sim and
// internal/fault), the cache is sound: re-running a campaign after an
// interrupt resumes from the checkpointed results, and resubmitting a
// finished campaign performs zero simulations.
//
// core.Characterize and core.AnalyzeSensitivity run on this engine, the
// golden end-to-end sweep pins its behavior, and cmd/lkas-serve exposes
// it as an HTTP service.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"hsas/internal/camera"
	"hsas/internal/fault"
	"hsas/internal/isp"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/sim"
	"hsas/internal/trace"
	"hsas/internal/world"
)

// Cache-key versioning. SimVersion names the closed-loop semantics a
// cached result was produced under; bump it whenever a change makes
// sim.Run produce different numbers for the same JobSpec (new physics,
// retuned controller, changed crash rule, ...), so stale results can
// never be served for new code. CacheSchema versions the JobResult
// encoding itself.
const (
	SimVersion  = 5
	CacheSchema = 1
)

// Track selectors for JobSpec.Track.
const (
	// TrackSituation is the single-situation track of
	// world.SituationTrack (the Table III / Fig. 6 course).
	TrackSituation = "situation"
	// TrackNineSector is the Fig. 7 nine-sector dynamic case study.
	TrackNineSector = "nine-sector"
)

// JobSpec declares one deterministic closed-loop run. It is fully
// declarative — everything that affects the run's outcome is a field —
// so specs can be hashed (Key), persisted, and shipped over HTTP.
// Fields that only change wall-clock (worker counts) are deliberately
// absent: the determinism contract makes them irrelevant to the result.
type JobSpec struct {
	// Track selects the course: TrackSituation (default) or
	// TrackNineSector.
	Track string `json:"track,omitempty"`
	// Situation is the situation driven on a TrackSituation course.
	// Required there; must be nil for TrackNineSector.
	Situation *world.Situation `json:"situation,omitempty"`
	// Camera is the synthetic front camera. Width and Height are
	// required; zero geometry fields adopt the paper camera's (the
	// camera.Scaled convention).
	Camera camera.Camera `json:"camera"`
	// Case is the Table V evaluation case (1–4, 5 = variable
	// invocation), driving runtime reconfiguration against the paper
	// table. Exactly one of Case and Fixed must be set.
	Case int `json:"case,omitempty"`
	// Fixed pins the knob setting for the whole run — the design-time
	// characterization mode (Sec. III-B).
	Fixed *knobs.Setting `json:"fixed,omitempty"`
	// FixedClassifiers is the per-frame classifier count charged to the
	// pipeline timing in fixed mode (0–3).
	FixedClassifiers int `json:"fixed_classifiers,omitempty"`
	// Seed drives every stochastic element of the run.
	Seed int64 `json:"seed"`
	// Faults is a declarative fault schedule in the fault.ParseSpec
	// grammar ("" = fault-free). Normalize canonicalizes it.
	Faults string `json:"faults,omitempty"`
	// Degrade tunes the graceful-degradation policies.
	Degrade *sim.Degradation `json:"degrade,omitempty"`
	// UseFeedforward enables the curvature feedforward ablation.
	UseFeedforward bool `json:"feedforward,omitempty"`
	// RecordTrace also captures the per-cycle trace CSV as a cache
	// artifact (served by lkas-serve). Part of the cache key: a job
	// whose trace must exist is distinct content from one without.
	RecordTrace bool `json:"record_trace,omitempty"`
}

// Normalize validates the spec and returns its canonical form: defaults
// filled in, the fault spec round-tripped through its parser, the
// camera geometry resolved. Two specs describing the same run normalize
// to identical values, which is what makes Key content-addressed.
func (j JobSpec) Normalize() (JobSpec, error) {
	switch j.Track {
	case "", TrackSituation:
		j.Track = TrackSituation
		if j.Situation == nil {
			return j, fmt.Errorf("campaign: job needs a situation on the %q track", TrackSituation)
		}
		if err := validateSituation(*j.Situation); err != nil {
			return j, err
		}
		sit := *j.Situation // don't alias the caller's pointer
		j.Situation = &sit
	case TrackNineSector:
		if j.Situation != nil {
			return j, fmt.Errorf("campaign: the %q track fixes its own situations; drop the situation field", TrackNineSector)
		}
	default:
		return j, fmt.Errorf("campaign: unknown track %q (want %q or %q)", j.Track, TrackSituation, TrackNineSector)
	}

	if j.Camera.Width <= 0 || j.Camera.Height <= 0 {
		return j, fmt.Errorf("campaign: camera %dx%d: width and height must be positive", j.Camera.Width, j.Camera.Height)
	}
	if j.Camera.FOVDeg == 0 && j.Camera.MountHeight == 0 && j.Camera.PitchDeg == 0 && j.Camera.MaxDist == 0 {
		j.Camera = camera.Scaled(j.Camera.Width, j.Camera.Height)
	}

	switch {
	case j.Fixed != nil && j.Case != 0:
		return j, fmt.Errorf("campaign: job sets both case %d and a fixed setting; pick one", j.Case)
	case j.Fixed != nil:
		f := *j.Fixed
		if _, ok := isp.ByID(f.ISP); !ok {
			return j, fmt.Errorf("campaign: fixed setting names unknown ISP config %q (want S0–S8)", f.ISP)
		}
		if f.ROI < 1 || f.ROI > 5 {
			return j, fmt.Errorf("campaign: fixed setting ROI %d outside 1–5", f.ROI)
		}
		if f.SpeedKmph <= 0 {
			return j, fmt.Errorf("campaign: fixed setting speed %g must be positive", f.SpeedKmph)
		}
		// Canonicalize the precision knob ("fp32"/"float32" → ""), so two
		// spellings of the same run share one content address — and the
		// canonical float32 empty string keeps pre-precision cache keys
		// byte-identical.
		p, err := knobs.ParsePrecision(f.Precision)
		if err != nil {
			return j, fmt.Errorf("campaign: fixed setting: %w", err)
		}
		f.Precision = p
		if j.FixedClassifiers < 0 || j.FixedClassifiers > 3 {
			return j, fmt.Errorf("campaign: fixed_classifiers %d outside 0–3", j.FixedClassifiers)
		}
		j.Fixed = &f
	case j.Case >= 1 && j.Case <= 5:
		if j.FixedClassifiers != 0 {
			return j, fmt.Errorf("campaign: fixed_classifiers applies only to fixed-setting jobs")
		}
	default:
		return j, fmt.Errorf("campaign: case %d outside 1–5 (5 = variable invocation) and no fixed setting", j.Case)
	}

	if j.Faults != "" {
		sched, err := fault.ParseSpec(j.Faults)
		if err != nil {
			return j, fmt.Errorf("campaign: %w", err)
		}
		j.Faults = sched.Spec()
	}
	if j.Degrade != nil {
		if err := j.Degrade.Validate(); err != nil {
			return j, fmt.Errorf("campaign: %w", err)
		}
		d := *j.Degrade
		j.Degrade = &d
	}
	return j, nil
}

func validateSituation(s world.Situation) error {
	if int(s.Layout) >= world.NumRoadClasses {
		return fmt.Errorf("campaign: situation layout %d outside the taxonomy", s.Layout)
	}
	if s.Lane.Color > world.Yellow || s.Lane.Form > world.DoubleContinuous {
		return fmt.Errorf("campaign: situation lane marking %+v outside the taxonomy", s.Lane)
	}
	if int(s.Scene) >= world.NumSceneClasses {
		return fmt.Errorf("campaign: situation scene %d outside the taxonomy", s.Scene)
	}
	return nil
}

// Key returns the job's content address: a SHA-256 over the canonical
// JSON of (cache schema, sim semantics version, normalized spec). Any
// field that can change the run's outcome feeds the hash; worker counts
// do not (results are bit-identical for any worker split).
func (j JobSpec) Key() (string, error) {
	n, err := j.Normalize()
	if err != nil {
		return "", err
	}
	payload := struct {
		Schema int     `json:"schema"`
		Sim    int     `json:"sim"`
		Job    JobSpec `json:"job"`
	}{CacheSchema, SimVersion, n}
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("campaign: hashing job spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ValidKey reports whether s has the form Key produces: 64 lowercase
// hex digits. Keys arriving from outside the program are checked with
// it before they name anything on disk.
func ValidKey(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// JobResult is the cached outcome of one closed-loop run: everything
// downstream consumers (Table III assembly, the Fig. 6/8 analyses, the
// HTTP API) need, without re-simulating.
type JobResult struct {
	// MAE is the whole-track mean absolute lateral deviation (Eq. 1).
	MAE     float64 `json:"mae"`
	Crashed bool    `json:"crashed,omitempty"`
	// CrashSector and CrashTimeS locate a crash (zero otherwise).
	CrashSector int     `json:"crash_sector,omitempty"`
	CrashTimeS  float64 `json:"crash_time_s,omitempty"`
	CompletedS  float64 `json:"completed_m"`
	Frames      int     `json:"frames"`
	DetectFails int     `json:"detect_fails"`
	// SectorMAE and SectorN carry the per-sector aggregation (1-based
	// sector i at index i-1) for eval-sector scoring.
	SectorMAE []float64 `json:"sector_mae"`
	SectorN   []int     `json:"sector_n"`
	// Reconfigurations counts knob-setting changes during the run.
	Reconfigurations int `json:"reconfigurations"`
	// Faults tallies injected fault events by kind; Degraded summarizes
	// the graceful-degradation activity.
	Faults   fault.Counts         `json:"faults"`
	Degraded sim.DegradationStats `json:"degraded"`
	// WallMS is the simulation wall time. Informational only: a cached
	// result reports the wall time of the run that produced it.
	WallMS float64 `json:"wall_ms"`
}

// Sector returns the MAE of the 1-based sector (0 when out of range or
// unsampled).
func (r *JobResult) Sector(i int) float64 {
	if i < 1 || i > len(r.SectorMAE) {
		return 0
	}
	return r.SectorMAE[i-1]
}

// simConfig lowers a normalized spec into the sim.Run configuration.
func (j *JobSpec) simConfig(kernelWorkers int, inner *obs.Observer) sim.Config {
	cfg := sim.Config{
		Camera:        j.Camera,
		Seed:          j.Seed,
		KernelWorkers: kernelWorkers,
		Obs:           inner,
	}
	if j.Track == TrackNineSector {
		cfg.Track = world.NineSectorTrack()
	} else {
		cfg.Track = world.SituationTrack(*j.Situation)
	}
	if j.Fixed != nil {
		setting := *j.Fixed
		cfg.FixedSetting = &setting
		cfg.FixedClassifiers = j.FixedClassifiers
	} else {
		cfg.Case = knobs.Case(j.Case)
	}
	if j.Faults != "" {
		// Normalize already round-tripped the spec; a parse failure here
		// would be a bug in Spec().
		sched, err := fault.ParseSpec(j.Faults)
		if err != nil {
			panic(fmt.Sprintf("campaign: canonical fault spec %q failed to reparse: %v", j.Faults, err))
		}
		cfg.Faults = sched
	}
	if j.Degrade != nil {
		cfg.Degrade = *j.Degrade
	}
	cfg.UseFeedforward = j.UseFeedforward
	return cfg
}

// run executes one normalized job and packages the result (plus the
// per-cycle trace points and their CSV encoding when requested).
func (j *JobSpec) run(kernelWorkers int, inner *obs.Observer) (*JobResult, []sim.TracePoint, []byte, error) {
	cfg := j.simConfig(kernelWorkers, inner)
	var rec trace.Recorder
	if j.RecordTrace {
		cfg.Trace = rec.Add
	}
	start := time.Now()
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	out := &JobResult{
		MAE:              res.MAE,
		Crashed:          res.Crashed,
		CrashSector:      res.CrashSector,
		CrashTimeS:       res.CrashTimeS,
		CompletedS:       res.CompletedS,
		Frames:           res.Frames,
		DetectFails:      res.DetectFails,
		Reconfigurations: len(res.SettingsUsed) - 1,
		Faults:           res.Faults,
		Degraded:         res.Degraded,
		WallMS:           float64(time.Since(start)) / float64(time.Millisecond),
	}
	n := res.PerSector.Len()
	out.SectorMAE = make([]float64, n)
	out.SectorN = make([]int, n)
	for i := 1; i <= n; i++ {
		out.SectorMAE[i-1] = res.PerSector.Sector(i)
		out.SectorN[i-1] = res.PerSector.SectorN(i)
	}
	var traceCSV []byte
	if j.RecordTrace {
		var buf bytes.Buffer
		if err := rec.WriteCSV(&buf); err != nil {
			return nil, nil, nil, fmt.Errorf("campaign: encoding trace: %w", err)
		}
		traceCSV = buf.Bytes()
	}
	return out, rec.Points, traceCSV, nil
}
