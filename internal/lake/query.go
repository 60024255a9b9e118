package lake

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Axes are the result-row dimensions a Query may group by — the grid
// axes of the campaign design space plus the campaign label itself.
var Axes = []string{
	"campaign", "track", "situation", "camera", "case",
	"isp", "roi", "speed", "seed", "faults", "cached",
}

// axisValue renders one row's value on a named axis as the group label.
func axisValue(axis string, r *ResultRow) string {
	switch axis {
	case "campaign":
		return r.Campaign
	case "track":
		return r.Track
	case "situation":
		return r.Situation
	case "camera":
		return fmt.Sprintf("%dx%d", r.CamW, r.CamH)
	case "case":
		return strconv.FormatInt(r.Case, 10)
	case "isp":
		return r.ISP
	case "roi":
		return strconv.FormatInt(r.ROI, 10)
	case "speed":
		return strconv.FormatFloat(r.SpeedKmph, 'g', -1, 64)
	case "seed":
		return strconv.FormatInt(r.Seed, 10)
	case "faults":
		return r.Faults
	case "cached":
		return strconv.FormatBool(r.Cached)
	}
	return ""
}

// Query selects and groups result rows for aggregation.
type Query struct {
	// GroupBy lists the axes (see Axes) whose value combinations form
	// the output groups; empty aggregates everything into one group.
	GroupBy []string
	// Campaign, when non-empty, restricts the scan to that campaign's
	// rows.
	Campaign string
	// Dedup keeps only the first row per content-address key, so a job
	// that appears in several campaigns (or was re-listed by a resumed
	// one) counts once.
	Dedup bool
}

// Validate checks the GroupBy axes against Axes.
func (q Query) Validate() error {
	for _, g := range q.GroupBy {
		if !slicesContains(Axes, g) {
			return fmt.Errorf("lake: unknown group-by axis %q (valid: %s)", g, strings.Join(Axes, ", "))
		}
	}
	return nil
}

func slicesContains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// Percentiles summarizes a value distribution with nearest-rank order
// statistics (exact, not estimated — every value of the scan feeds in).
type Percentiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// percentile is the nearest-rank order statistic over sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summarize computes Percentiles over (and sorts, in place) values.
func summarize(values []float64) Percentiles {
	if len(values) == 0 {
		return Percentiles{}
	}
	sort.Float64s(values)
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return Percentiles{
		P50:  percentile(values, 0.50),
		P90:  percentile(values, 0.90),
		P95:  percentile(values, 0.95),
		P99:  percentile(values, 0.99),
		Max:  values[len(values)-1],
		Mean: sum / float64(len(values)),
	}
}

// GroupStats is the aggregation output for one group: the Table III-
// style fleet summary — QoC percentiles, crash and fault-activation
// rates, degradation dwell, detection-coast counts — over every job
// that fell into the group.
type GroupStats struct {
	// Group maps each GroupBy axis to this group's value on it.
	Group map[string]string `json:"group"`
	Jobs  int64             `json:"jobs"`
	// Crashes counts crashed jobs; CrashRate is Crashes/Jobs.
	Crashes   int64   `json:"crashes"`
	CrashRate float64 `json:"crash_rate"`
	// MAE summarizes the QoC (mean absolute lateral deviation, Eq. 1).
	MAE Percentiles `json:"mae"`
	// Wall summarizes per-job simulation wall time in milliseconds.
	Wall Percentiles `json:"wall_ms"`
	// FaultEvents totals injected fault events; FaultJobs counts jobs
	// with at least one, and FaultActivationRate is FaultJobs/Jobs.
	FaultEvents         int64   `json:"fault_events"`
	FaultJobs           int64   `json:"fault_jobs"`
	FaultActivationRate float64 `json:"fault_activation_rate"`
	// DetectFails totals coasted cycles (perception misses plus
	// innovation-gate rejections) across the group's jobs.
	DetectFails int64 `json:"detect_fails"`
	// FallbackEntries/FallbackCycles total the robust-fallback
	// degradation activity; DwellCycles is the mean dwell per entry
	// (cycles spent degraded each time the fallback engaged).
	FallbackEntries int64   `json:"fallback_entries"`
	FallbackCycles  int64   `json:"fallback_cycles"`
	DwellCycles     float64 `json:"dwell_cycles"`
	// HeldFrames and DeadlineMisses total the other degradation paths.
	HeldFrames     int64 `json:"held_frames"`
	DeadlineMisses int64 `json:"deadline_misses"`
}

// groupAcc accumulates one group during the scan.
type groupAcc struct {
	stats GroupStats
	mae   []float64
	wall  []float64
}

// groupSep joins axis values into map keys; axis labels (situation
// strings, fault specs) never contain it.
const groupSep = "\x1f"

// Aggregate answers a Query from one sequential scan of the lake's
// result segments. Groups are returned sorted by their axis values.
func Aggregate(dir string, q Query) ([]GroupStats, ScanStats, error) {
	if err := q.Validate(); err != nil {
		return nil, ScanStats{}, err
	}
	groups := map[string]*groupAcc{}
	var seen map[string]bool
	if q.Dedup {
		seen = map[string]bool{}
	}
	parts := make([]string, len(q.GroupBy))
	scan, err := ScanResults(dir, func(r *ResultRow) error {
		if q.Campaign != "" && r.Campaign != q.Campaign {
			return nil
		}
		if q.Dedup {
			if seen[r.Key] {
				return nil
			}
			seen[r.Key] = true
		}
		for i, axis := range q.GroupBy {
			parts[i] = axisValue(axis, r)
		}
		key := strings.Join(parts, groupSep)
		g := groups[key]
		if g == nil {
			g = &groupAcc{stats: GroupStats{Group: map[string]string{}}}
			for i, axis := range q.GroupBy {
				g.stats.Group[axis] = parts[i]
			}
			groups[key] = g
		}
		s := &g.stats
		s.Jobs++
		if r.Crashed {
			s.Crashes++
		}
		g.mae = append(g.mae, r.MAE)
		g.wall = append(g.wall, r.WallMS)
		s.FaultEvents += r.FaultEvents
		if r.FaultEvents > 0 {
			s.FaultJobs++
		}
		s.DetectFails += r.DetectFails
		s.FallbackEntries += r.FallbackEntries
		s.FallbackCycles += r.FallbackCycles
		s.HeldFrames += r.HeldFrames
		s.DeadlineMisses += r.DeadlineMisses
		return nil
	})
	if err != nil {
		return nil, scan, err
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]GroupStats, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		s := g.stats
		s.MAE = summarize(g.mae)
		s.Wall = summarize(g.wall)
		s.CrashRate = float64(s.Crashes) / float64(s.Jobs)
		s.FaultActivationRate = float64(s.FaultJobs) / float64(s.Jobs)
		if s.FallbackEntries > 0 {
			s.DwellCycles = float64(s.FallbackCycles) / float64(s.FallbackEntries)
		}
		out = append(out, s)
	}
	return out, scan, nil
}

// TraceSummary aggregates the per-frame trace table: the cycle-level
// counters that results alone cannot expose, most importantly the
// innovation-gate trips (the detector reported a lane but the gate
// rejected it as an outlier).
type TraceSummary struct {
	Rows int64 `json:"rows"`
	// GateTrips counts cycles with raw_det_ok && !det_ok.
	GateTrips int64 `json:"gate_trips"`
	// CoastedCycles counts cycles the controller coasted (!det_ok).
	CoastedCycles int64 `json:"coasted_cycles"`
	// DegradedCycles counts cycles governed by the robust fallback;
	// FaultCycles cycles with at least one injected fault.
	DegradedCycles int64 `json:"degraded_cycles"`
	FaultCycles    int64 `json:"fault_cycles"`
}

// SummarizeTraces scans the trace table once, optionally filtered to
// one campaign.
func SummarizeTraces(dir, campaign string) (TraceSummary, ScanStats, error) {
	var sum TraceSummary
	scan, err := ScanTraces(dir, func(r *TraceRow) error {
		if campaign != "" && r.Campaign != campaign {
			return nil
		}
		sum.Rows++
		if r.RawDetOK && !r.DetOK {
			sum.GateTrips++
		}
		if !r.DetOK {
			sum.CoastedCycles++
		}
		if r.Degraded {
			sum.DegradedCycles++
		}
		if r.Fault != "" {
			sum.FaultCycles++
		}
		return nil
	})
	return sum, scan, err
}

// Summary is the rollup of one campaign, or of the whole lake when
// Campaign is empty: its result rows as one group (nil when there are
// none) and its trace table's summary.
type Summary struct {
	Campaign string       `json:"campaign,omitempty"`
	Results  *GroupStats  `json:"results"`
	Traces   TraceSummary `json:"traces"`
}

// Summarize scans the result table and then the trace table, each once,
// and returns their Summary with the two scans' statistics summed.
func Summarize(dir, campaign string) (Summary, ScanStats, error) {
	sum := Summary{Campaign: campaign}
	groups, scan, err := Aggregate(dir, Query{Campaign: campaign})
	if err != nil {
		return sum, scan, fmt.Errorf("lake scan: %w", err)
	}
	if len(groups) > 0 {
		sum.Results = &groups[0]
	}
	var tscan ScanStats
	if sum.Traces, tscan, err = SummarizeTraces(dir, campaign); err != nil {
		return sum, scan, fmt.Errorf("trace scan: %w", err)
	}
	scan.Segments += tscan.Segments
	scan.Rows += tscan.Rows
	scan.Bytes += tscan.Bytes
	scan.Corrupt += tscan.Corrupt
	return sum, scan, nil
}
