// Package adversarial searches for per-cell robustness margins: for
// each (situation, knob-tuning) cell of a campaign grid, the largest
// fault magnitude that still yields a non-crash, non-fallback run — a
// Table III analogue for worst-case rather than mean QoC.
//
// Every probe of the search is an ordinary campaign.JobSpec, so probes
// are content-addressed: re-running a search against a warm cache
// performs zero simulations, and the search distributes over the
// fabric unchanged. Probe outcomes are bit-deterministic for any
// worker count (the simulator's contract), which makes the whole
// search — probe sequence, margins, table bytes — deterministic too.
package adversarial

import "fmt"

// Probe evaluates magnitudes and returns one verdict per magnitude, in
// order: pass reports a non-crash, non-fallback run at that magnitude.
// Bisection passes one magnitude at a time; the refinement pass passes
// all its samples at once, so they can run as one campaign run.
type Probe func(mags []float64) (pass []bool, err error)

// Search configures a margin search over the magnitude range [Lo, Hi].
type Search struct {
	// Lo and Hi bound the magnitude range. Lo is the "benign" end: a
	// cell that fails at Lo has no margin at all (StatusUnsafe).
	Lo, Hi float64
	// Tol is the bisection convergence width: the search stops when the
	// bracketing interval [pass, fail] is narrower than Tol. The
	// bisection performs exactly ceil(log2((Hi-Lo)/Tol)) midpoint
	// probes.
	Tol float64
	// Refine, when positive, adds an evolutionary refinement pass: after
	// bisection converges (or when Hi itself passes), Refine stratified
	// samples below the candidate margin hunt for non-monotone failure
	// islands — a gate that recovers at high magnitude would otherwise
	// hide a failing band under a passing Hi. Any failure found
	// re-brackets and re-bisects, so the search converges on the
	// CONSERVATIVE (lowest) margin. All Refine samples of a pass go to
	// the probe in one call and are always evaluated (no early exit), so
	// probe counts and cache contents do not depend on how the runner
	// orders them.
	Refine int
}

// Search outcome statuses.
const (
	// StatusUnsafe: the cell fails at Lo — no magnitude in the range is
	// survivable. Margin and FailAt both report Lo.
	StatusUnsafe = "unsafe"
	// StatusBounded: the cell passes at Margin and fails at FailAt,
	// with FailAt-Margin <= Tol.
	StatusBounded = "bounded"
	// StatusSaturated: the cell survives the whole range (Hi passes and
	// refinement found no failure island). Margin reports Hi; FailAt is
	// meaningless and reports 0.
	StatusSaturated = "saturated"
)

// SearchResult is the outcome of one cell's margin search.
type SearchResult struct {
	// Margin is the largest magnitude confirmed to pass (see Status).
	Margin float64 `json:"margin"`
	// FailAt is the smallest confirmed-failing magnitude above Margin
	// (only meaningful for StatusBounded and StatusUnsafe).
	FailAt float64 `json:"fail_at"`
	// Status is one of StatusUnsafe, StatusBounded, StatusSaturated.
	Status string `json:"status"`
	// Probes counts magnitude evaluations performed by this search.
	Probes int `json:"probes"`
}

// FindMargin runs the search.
func (s Search) FindMargin(probe Probe) (SearchResult, error) {
	var res SearchResult
	if !(s.Hi > s.Lo) {
		return res, fmt.Errorf("adversarial: magnitude range [%g, %g] is empty", s.Lo, s.Hi)
	}
	if !(s.Tol > 0) {
		return res, fmt.Errorf("adversarial: tolerance %g must be positive", s.Tol)
	}

	evalAll := func(mags []float64) ([]bool, error) {
		res.Probes += len(mags)
		out, err := probe(mags)
		if err == nil && len(out) != len(mags) {
			err = fmt.Errorf("adversarial: probe returned %d verdicts for %d magnitudes", len(out), len(mags))
		}
		return out, err
	}
	eval := func(mag float64) (bool, error) {
		out, err := evalAll([]float64{mag})
		if err != nil {
			return false, err
		}
		return out[0], nil
	}

	// bisect narrows a bracket with lo passing and hi failing down to
	// Tol and returns it.
	bisect := func(lo, hi float64) (float64, float64, error) {
		for hi-lo > s.Tol {
			mid := lo + (hi-lo)/2
			if mid <= lo || mid >= hi { // float exhaustion below Tol
				break
			}
			pass, err := eval(mid)
			if err != nil {
				return 0, 0, err
			}
			if pass {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo, hi, nil
	}

	passLo, err := eval(s.Lo)
	if err != nil {
		return res, err
	}
	if !passLo {
		res.Margin, res.FailAt, res.Status = s.Lo, s.Lo, StatusUnsafe
		return res, nil
	}

	passHi, err := eval(s.Hi)
	if err != nil {
		return res, err
	}

	margin, failAt := s.Hi, 0.0
	bounded := false
	if !passHi {
		if margin, failAt, err = bisect(s.Lo, s.Hi); err != nil {
			return res, err
		}
		bounded = true
	}

	// Refinement: stratified samples strictly inside (Lo, margin) hunt
	// for failure islands the bisection bracket skipped over. Each
	// iteration shrinks margin-Lo by at least a factor Refine/(Refine+1)
	// when a failure is found, so the loop terminates.
	for s.Refine > 0 && margin-s.Lo > s.Tol {
		step := (margin - s.Lo) / float64(s.Refine+1)
		mags := make([]float64, s.Refine)
		for i := range mags {
			mags[i] = s.Lo + step*float64(i+1)
		}
		verdicts, err := evalAll(mags)
		if err != nil {
			return res, err
		}
		failIdx := -1
		for i, ok := range verdicts {
			if !ok {
				failIdx = i
				break
			}
		}
		if failIdx < 0 {
			break // no island below the candidate margin
		}
		lo := s.Lo // known passing
		if failIdx > 0 {
			lo = mags[failIdx-1]
		}
		if margin, failAt, err = bisect(lo, mags[failIdx]); err != nil {
			return res, err
		}
		bounded = true
	}

	res.Margin, res.FailAt = margin, failAt
	if bounded {
		res.Status = StatusBounded
	} else {
		res.Status = StatusSaturated
	}
	return res, nil
}
