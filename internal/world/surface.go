package world

import "math"

// SurfaceKind classifies what lies at a track-relative point.
type SurfaceKind uint8

// Surface kinds, from the center of the lane outwards.
const (
	SurfaceAsphalt SurfaceKind = iota
	SurfaceMarking
	SurfaceShoulder
	SurfaceOffRoad
)

// Surface describes the ground at one track-relative point.
type Surface struct {
	Kind  SurfaceKind
	Color LaneColor // valid when Kind == SurfaceMarking
}

// RoadHalfWidth is the paved half-width beyond the lane markings.
const RoadHalfWidth = 5.0 // meters from the ego-lane center

// surfaceAt classifies the ground at arclength s, lateral offset lat
// (positive left) of the ego-lane center, with the segment search started
// at from (see segIndexFrom). The ego lane is bounded by the situation's
// left marking at +LaneWidth/2 and the segment's right marking at
// -LaneWidth/2.
func (t *Track) surfaceAt(s, lat float64, from int) Surface {
	if math.Abs(lat) > RoadHalfWidth {
		return Surface{Kind: SurfaceOffRoad}
	}
	seg := t.Segments[t.segIndexFrom(s, from)]
	half := t.LaneWidth / 2
	if onMarking(seg.Situation.Lane, s, lat-half) {
		return Surface{Kind: SurfaceMarking, Color: seg.Situation.Lane.Color}
	}
	// The right marking's dash phase is offset half a period from the
	// left's (dashes on opposite lane edges of real roads are not painted
	// in lockstep), so a lane with both markings dotted is never entirely
	// paint-free over windows longer than DashPeriod/2.
	if onMarking(seg.RightLane, s+DashPeriod/2, lat+half) {
		return Surface{Kind: SurfaceMarking, Color: seg.RightLane.Color}
	}
	if math.Abs(lat) > half+1.2 {
		return Surface{Kind: SurfaceShoulder}
	}
	return Surface{Kind: SurfaceAsphalt}
}

// onMarking reports whether the offset d (meters, relative to the marking
// centerline) at arclength s falls on painted marking of the given form.
func onMarking(m LaneMarking, s, d float64) bool {
	switch m.Form {
	case Continuous:
		return math.Abs(d) <= MarkingWidth/2
	case Dotted:
		if math.Abs(d) > MarkingWidth/2 {
			return false
		}
		phase := math.Mod(s, DashPeriod)
		if phase < 0 {
			phase += DashPeriod
		}
		return phase < DashLength
	case DoubleContinuous:
		off := (MarkingWidth + DoubleGap) / 2
		return math.Abs(d-off) <= MarkingWidth/2 || math.Abs(d+off) <= MarkingWidth/2
	}
	return false
}
