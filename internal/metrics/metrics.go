// Package metrics implements the paper's quality-of-control and
// robustness measures: mean absolute error of the lateral deviation
// (Eq. 1), per-sector aggregation for the Fig. 6/8 analyses, and
// normalization against a baseline case.
package metrics

import "math"

// MAE accumulates the mean absolute error of a signal.
type MAE struct {
	sum float64
	n   int
}

// Add accumulates one sample.
func (m *MAE) Add(v float64) {
	m.sum += math.Abs(v)
	m.n++
}

// Value returns the mean absolute error (0 when empty).
func (m *MAE) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// N returns the number of accumulated samples.
func (m *MAE) N() int { return m.n }

// Merge folds another accumulator into m.
func (m *MAE) Merge(o MAE) {
	m.sum += o.sum
	m.n += o.n
}

// PerSector accumulates MAE per 1-based sector index.
type PerSector struct {
	sectors []MAE
}

// NewPerSector returns an accumulator for n sectors.
func NewPerSector(n int) *PerSector {
	return &PerSector{sectors: make([]MAE, n)}
}

// Add accumulates a sample for the given 1-based sector.
func (p *PerSector) Add(sector int, v float64) {
	if sector < 1 || sector > len(p.sectors) {
		return
	}
	p.sectors[sector-1].Add(v)
}

// Sector returns the MAE of a 1-based sector.
func (p *PerSector) Sector(i int) float64 { return p.sectors[i-1].Value() }

// SectorN returns the sample count of a 1-based sector.
func (p *PerSector) SectorN(i int) int { return p.sectors[i-1].N() }

// Len returns the number of sectors.
func (p *PerSector) Len() int { return len(p.sectors) }

// Overall returns the MAE across all sectors' samples.
func (p *PerSector) Overall() float64 {
	var all MAE
	for _, s := range p.sectors {
		all.Merge(s)
	}
	return all.Value()
}

// NormalizeTo returns values[i] / base[i], with NaN where base is zero —
// the Fig. 6 / Fig. 8 presentation ("all values are normalized to case 3").
func NormalizeTo(values, base []float64) []float64 {
	out := make([]float64, len(values))
	for i := range values {
		if i < len(base) && base[i] != 0 {
			out[i] = values[i] / base[i]
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// Improvement returns the fractional QoC improvement of a over b using
// mean MAE over the sectors where both completed (the paper's "on
// average, X% better" aggregation, footnote 7: only sectors with no
// failure).
func Improvement(better, baseline []float64) float64 {
	var sb, sB float64
	n := 0
	for i := range better {
		if i >= len(baseline) {
			break
		}
		if math.IsNaN(better[i]) || math.IsNaN(baseline[i]) || better[i] == 0 || baseline[i] == 0 {
			continue
		}
		sb += better[i]
		sB += baseline[i]
		n++
	}
	if n == 0 || sB == 0 {
		return 0
	}
	return 1 - sb/sB
}

// DetectionAccuracy counts measurements within tol of the truth.
type DetectionAccuracy struct {
	ok, total int
	Tol       float64
}

// Add records one (measured, truth) pair; failed detections count as
// misses when detected is false.
func (d *DetectionAccuracy) Add(measured, truth float64, detected bool) {
	d.total++
	if detected && math.Abs(measured-truth) <= d.Tol {
		d.ok++
	}
}

// Value returns the fraction of accurate detections.
func (d *DetectionAccuracy) Value() float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.ok) / float64(d.total)
}
