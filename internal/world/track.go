package world

import (
	"fmt"
	"math"
)

// StandardLaneWidth is the lane width used throughout the paper's
// experiments (Sec. IV-A, "as per standard road safety guidelines").
const StandardLaneWidth = 3.25 // meters

// MarkingWidth is the painted width of a single lane-marking stripe.
const MarkingWidth = 0.15 // meters

// Dash geometry of dotted markings (3 m paint, 9 m gap — the US broken
// line standard). A dotted lane is paint-free over windows up to 9 m
// long: this is why turns with dotted markings demand the longer-reach
// fine ROIs (Sec. IV-C).
const (
	DashLength = 3.0  // meters painted
	DashPeriod = 12.0 // meters painted + gap
)

// DoubleGap is the gap between the two stripes of a double marking.
const DoubleGap = 0.25 // meters

// Segment is one homogeneous piece of track: constant curvature and a
// constant situation. Curvature is signed, positive for left turns
// (counter-clockwise), in 1/m.
type Segment struct {
	Length    float64
	Curvature float64
	Situation Situation
	// RightLane is the right-hand marking. The paper's experiments keep it
	// white dotted ("the right lane is always set to white dotted", Sec.
	// IV-A) except where the situation narrative needs both lanes dotted
	// (Fig. 8, sector 6 discussion).
	RightLane LaneMarking
}

// Pose is a position + heading on the ground plane.
type Pose struct {
	X, Y, Theta float64
}

// Track is a sequence of segments laid end-to-end starting at the origin
// heading along +X. Sector i (1-based) corresponds to Segments[i-1].
type Track struct {
	Segments  []Segment
	LaneWidth float64

	starts []Pose     // pose of the centerline at the start of each segment
	cum    []float64  // cumulative arclength at the start of each segment
	frames []segFrame // per-segment constants of Locate
	total  float64
}

// segFrame holds what projecting a point onto a segment needs from its
// start pose alone, computed once in NewTrack: the heading's cosine and
// sine on a straight; the arc centre, the signed radius and the start's
// polar angle about the centre on an arc.
type segFrame struct {
	cos, sin  float64 // straight
	cx, cy, r float64 // arc: centre and signed radius 1/k
	phi0      float64 // arc: Atan2 of the start point about the centre
}

func newSegFrame(start Pose, k float64) segFrame {
	if math.Abs(k) < 1e-12 {
		return segFrame{cos: math.Cos(start.Theta), sin: math.Sin(start.Theta)}
	}
	r := 1 / k
	cx := start.X - r*math.Sin(start.Theta)
	cy := start.Y + r*math.Cos(start.Theta)
	return segFrame{cx: cx, cy: cy, r: r, phi0: math.Atan2(start.Y-cy, start.X-cx)}
}

// NewTrack assembles a track from segments, precomputing segment start
// poses. LaneWidth defaults to StandardLaneWidth when zero.
func NewTrack(segments []Segment, laneWidth float64) *Track {
	if len(segments) == 0 {
		panic("world: track needs at least one segment")
	}
	if laneWidth == 0 {
		laneWidth = StandardLaneWidth
	}
	t := &Track{Segments: segments, LaneWidth: laneWidth}
	p := Pose{}
	for _, seg := range segments {
		if seg.Length <= 0 {
			panic(fmt.Sprintf("world: segment length %v must be positive", seg.Length))
		}
		t.starts = append(t.starts, p)
		t.frames = append(t.frames, newSegFrame(p, seg.Curvature))
		t.cum = append(t.cum, t.total)
		t.total += seg.Length
		p = advance(p, seg.Curvature, seg.Length)
	}
	return t
}

// advance moves a pose along a constant-curvature path for distance s.
func advance(p Pose, k, s float64) Pose {
	if math.Abs(k) < 1e-12 {
		return Pose{
			X:     p.X + s*math.Cos(p.Theta),
			Y:     p.Y + s*math.Sin(p.Theta),
			Theta: p.Theta,
		}
	}
	// Arc center is at signed radius 1/k along the left normal.
	r := 1 / k
	cx := p.X - r*math.Sin(p.Theta)
	cy := p.Y + r*math.Cos(p.Theta)
	th := p.Theta + k*s
	return Pose{
		X:     cx + r*math.Sin(th),
		Y:     cy - r*math.Cos(th),
		Theta: th,
	}
}

// Length returns the total centerline length.
func (t *Track) Length() float64 { return t.total }

// SectorAt returns the 1-based sector index containing arclength s
// (clamped to the track).
func (t *Track) SectorAt(s float64) int {
	return t.segIndex(s) + 1
}

func (t *Track) segIndex(s float64) int {
	if s <= 0 {
		return 0
	}
	if s >= t.total {
		return len(t.Segments) - 1
	}
	// Linear scan: tracks have at most a handful of segments.
	for i := len(t.cum) - 1; i >= 0; i-- {
		if s >= t.cum[i] {
			return i
		}
	}
	return 0
}

// SituationAt returns the situation of the segment containing s.
func (t *Track) SituationAt(s float64) Situation {
	return t.Segments[t.segIndex(s)].Situation
}

// SituationAhead returns the situation at preview meters ahead of s
// (clamped to the track) — what a forward-looking camera actually frames,
// and therefore what the situation classifiers report while approaching a
// sector transition.
func (t *Track) SituationAhead(s, preview float64) Situation {
	return t.SituationAt(s + preview)
}

// CameraSituationAhead returns the situation a forward camera's frame
// depicts over the ground window [s+near, s+far]. Curved geometry
// dominates the appearance of a road image, so if any turn segment
// overlaps the window by more than turnSalience meters the frame
// classifies as that turn — engaging turn handling early on approach and
// releasing it only when the curve has almost completely passed — while
// otherwise the dominant segment wins (lane and scene attributes follow
// the chosen segment).
func (t *Track) CameraSituationAhead(s, near, far float64) Situation {
	const turnSalience = 2.0 // meters of visible curve that flip the label
	lo, hi := s+near, s+far
	bestTurn := Situation{}
	bestTurnLen := 0.0
	for i, seg := range t.Segments {
		if seg.Situation.Layout == Straight {
			continue
		}
		a := math.Max(lo, t.cum[i])
		b := math.Min(hi, t.cum[i]+seg.Length)
		if b-a > bestTurnLen {
			bestTurnLen = b - a
			bestTurn = seg.Situation
		}
	}
	if bestTurnLen > turnSalience {
		return bestTurn
	}
	return t.DominantSituationAhead(s, near, far)
}

// DominantSituationAhead returns the situation occupying the most
// arclength in the window [s+near, s+far] — the label a classifier
// assigns to a frame whose ground view spans that distance range. Near a
// transition the majority flips roughly mid-window: early enough to brake
// before a curve, late enough not to accelerate while still inside it.
func (t *Track) DominantSituationAhead(s, near, far float64) Situation {
	lo, hi := s+near, s+far
	best := t.SituationAt(lo)
	bestLen := 0.0
	covered := map[int]float64{}
	for i, seg := range t.Segments {
		a := math.Max(lo, t.cum[i])
		b := math.Min(hi, t.cum[i]+seg.Length)
		if b > a {
			covered[i] += b - a
		}
	}
	// The last segment also absorbs any window part beyond the track end.
	if hi > t.total {
		covered[len(t.Segments)-1] += hi - math.Max(lo, t.total)
	}
	for i, l := range covered {
		if l > bestLen {
			bestLen = l
			best = t.Segments[i].Situation
		}
	}
	return best
}

// RightLaneAt returns the right-hand marking of the segment containing s.
func (t *Track) RightLaneAt(s float64) LaneMarking {
	return t.Segments[t.segIndex(s)].RightLane
}

// CurvatureAt returns the signed centerline curvature at s.
func (t *Track) CurvatureAt(s float64) float64 {
	return t.Segments[t.segIndex(s)].Curvature
}

// Pose returns the centerline pose at arclength s (clamped to the track).
func (t *Track) Pose(s float64) Pose {
	i := t.segIndex(s)
	local := s - t.cum[i]
	if local < 0 {
		local = 0
	}
	if local > t.Segments[i].Length {
		local = t.Segments[i].Length
	}
	return advance(t.starts[i], t.Segments[i].Curvature, local)
}

// Point returns the world position at arclength s and signed lateral
// offset lat (positive = left of the centerline).
func (t *Track) Point(s, lat float64) (x, y float64) {
	p := t.Pose(s)
	return p.X - lat*math.Sin(p.Theta), p.Y + lat*math.Cos(p.Theta)
}

// Locate projects the world point (x, y) onto the track and returns the
// arclength s and the signed lateral offset lat (positive left). hint is
// the caller's best guess of s (e.g. the vehicle's current arclength); the
// search is restricted to segments overlapping [hint-behind, hint+ahead].
// ok is false when the point is not within maxLat of any candidate
// segment's centerline.
func (t *Track) Locate(x, y, hint, behind, ahead, maxLat float64) (s, lat float64, ok bool) {
	lo, hi := hint-behind, hint+ahead
	bestLat := math.Inf(1)
	found := false
	for i, seg := range t.Segments {
		if t.cum[i]+seg.Length < lo || t.cum[i] > hi {
			continue
		}
		sl, la, in := t.frames[i].locate(t.starts[i], seg.Curvature, seg.Length, x, y)
		if !in || math.Abs(la) > maxLat {
			continue
		}
		if abs := t.cum[i] + sl; abs < lo || abs > hi {
			continue
		}
		if math.Abs(la) < math.Abs(bestLat) {
			bestLat = la
			s = t.cum[i] + sl
			found = true
		}
	}
	if !found {
		return 0, 0, false
	}
	return s, bestLat, true
}

// locate projects (x, y) into the (s, lat) frame of the segment that
// starts at start with curvature k and the given length.
func (f *segFrame) locate(start Pose, k, length, x, y float64) (s, lat float64, ok bool) {
	if math.Abs(k) < 1e-12 {
		dx, dy := x-start.X, y-start.Y
		s = f.cos*dx + f.sin*dy
		lat = -f.sin*dx + f.cos*dy
		return s, lat, s >= -1e-9 && s <= length+1e-9
	}
	vx, vy := x-f.cx, y-f.cy
	rad := math.Hypot(vx, vy)
	if rad < 1e-9 {
		return 0, 0, false
	}
	// lat = 1/k - sign(k)*radius (positive left of travel direction).
	if k > 0 {
		lat = f.r - rad
	} else {
		lat = rad + f.r // r negative
	}
	phi := math.Atan2(vy, vx)
	s = normAngle(phi-f.phi0) / k
	return s, lat, s >= -1e-9 && s <= length+1e-9
}

// normAngle wraps an angle into (-pi, pi].
func normAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
