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
	return t.segIndexFrom(s, len(t.Segments)-1)
}

// segIndexFrom is segIndex with its downward scan started at segment
// from, which must be at or past the segment containing s.
func (t *Track) segIndexFrom(s float64, from int) int {
	if s <= 0 {
		return 0
	}
	if s >= t.total {
		return len(t.Segments) - 1
	}
	// Linear scan: tracks have at most a handful of segments.
	for i := from; i >= 0; i-- {
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
// Of segments with equal cover the first one wins.
func (t *Track) DominantSituationAhead(s, near, far float64) Situation {
	lo, hi := s+near, s+far
	best := t.SituationAt(lo)
	bestLen := 0.0
	last := len(t.Segments) - 1
	// Segments are scanned in index order and only a strictly longer
	// cover replaces the best, so on a tie the lowest index wins.
	for i, seg := range t.Segments {
		covered := 0.0
		a := math.Max(lo, t.cum[i])
		b := math.Min(hi, t.cum[i]+seg.Length)
		if b > a {
			covered = b - a
		}
		// The last segment also absorbs any window part beyond the track end.
		if i == last && hi > t.total {
			covered += hi - math.Max(lo, t.total)
		}
		if covered > bestLen {
			bestLen = covered
			best = seg.Situation
		}
	}
	return best
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
	v := t.View(hint, behind, ahead)
	return v.Locate(x, y, maxLat)
}

// View is the part of a track that a fixed arclength window
// [hint-behind, hint+ahead] can see. A caller that locates many points
// against one window (the renderer, once per frame) builds the View once
// instead of letting every Locate call re-test all segments. The zero
// View locates nothing.
type View struct {
	t          *Track
	lo, hi     float64
	first, end int // candidate segments [first, end)
}

// View returns the window [hint-behind, hint+ahead] of the track: the
// segments Locate would consider for that hint, found once. They are a
// contiguous index range, because segment starts and ends both grow with
// the index (a NaN bound keeps every segment, as it does in Locate).
func (t *Track) View(hint, behind, ahead float64) View {
	v := View{t: t, lo: hint - behind, hi: hint + ahead}
	for i, seg := range t.Segments {
		if t.cum[i]+seg.Length < v.lo || t.cum[i] > v.hi {
			continue
		}
		if v.first == v.end {
			v.first = i
		}
		v.end = i + 1
	}
	return v
}

// Locate is Track.Locate over the view's window: it scans the candidate
// segments in index order and keeps the first of the smallest |lat|.
func (v *View) Locate(x, y, maxLat float64) (s, lat float64, ok bool) {
	t := v.t
	bestLat := math.Inf(1)
	found := false
	for i := v.first; i < v.end; i++ {
		seg := &t.Segments[i]
		sl, la, in := t.frames[i].locate(t.starts[i], seg.Curvature, seg.Length, x, y, maxLat)
		if !in || math.Abs(la) > maxLat {
			continue
		}
		if abs := t.cum[i] + sl; abs < v.lo || abs > v.hi {
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

// SurfaceAt classifies the ground at arclength s, lateral offset lat
// (positive left) of the ego-lane center. Its segment search starts at
// the view's last candidate instead of the track's last segment: an s
// that Locate returned lies at or below the window's end, and every later
// segment starts beyond it. An s past the next segment's start takes the
// whole search, so the result equals a search from the track's last
// segment for every s.
func (v *View) SurfaceAt(s, lat float64) Surface {
	from := len(v.t.Segments) - 1
	if v.end <= from && !(s >= v.t.cum[v.end]) {
		from = v.end - 1
	}
	return v.t.surfaceAt(s, lat, from)
}

// locate projects (x, y) into the (s, lat) frame of the segment that
// starts at start with curvature k and the given length. On an arc a
// point whose |lat| exceeds maxLat is rejected before the Atan2 (ok
// false, s zero); a NaN lat is never rejected early.
func (f *segFrame) locate(start Pose, k, length, x, y, maxLat float64) (s, lat float64, ok bool) {
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
	if math.Abs(lat) > maxLat {
		return 0, lat, false
	}
	phi := math.Atan2(vy, vx)
	s = NormAngle(phi-f.phi0) / k
	return s, lat, s >= -1e-9 && s <= length+1e-9
}

// NormAngle wraps an angle into (-pi, pi].
func NormAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
