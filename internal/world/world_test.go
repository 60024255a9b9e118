package world

import (
	"math"
	"math/rand"
	"testing"
)

func straightTrack(length float64) *Track {
	return NewTrack([]Segment{{
		Length:    length,
		Situation: Situation{Straight, LaneMarking{White, Continuous}, Day},
		RightLane: rightDotted,
	}}, StandardLaneWidth)
}

func TestStraightPose(t *testing.T) {
	tr := straightTrack(100)
	p := tr.Pose(40)
	if math.Abs(p.X-40) > 1e-12 || math.Abs(p.Y) > 1e-12 || math.Abs(p.Theta) > 1e-12 {
		t.Fatalf("pose = %+v", p)
	}
}

func TestArcPoseQuarterCircle(t *testing.T) {
	r := 10.0
	tr := NewTrack([]Segment{{
		Length:    r * math.Pi / 2,
		Curvature: 1 / r,
		Situation: Situation{LeftTurn, LaneMarking{White, Continuous}, Day},
	}}, 0)
	p := tr.Pose(tr.Length())
	// Quarter circle left from origin heading +X ends at (r, r) heading +Y.
	if math.Abs(p.X-r) > 1e-9 || math.Abs(p.Y-r) > 1e-9 || math.Abs(p.Theta-math.Pi/2) > 1e-9 {
		t.Fatalf("pose = %+v, want (10, 10, pi/2)", p)
	}
}

func TestArcPoseRightTurn(t *testing.T) {
	r := 20.0
	tr := NewTrack([]Segment{{
		Length:    r * math.Pi / 2,
		Curvature: -1 / r,
		Situation: Situation{RightTurn, LaneMarking{White, Continuous}, Day},
	}}, 0)
	p := tr.Pose(tr.Length())
	if math.Abs(p.X-r) > 1e-9 || math.Abs(p.Y+r) > 1e-9 || math.Abs(p.Theta+math.Pi/2) > 1e-9 {
		t.Fatalf("pose = %+v, want (20, -20, -pi/2)", p)
	}
}

func TestPointLeftIsPositive(t *testing.T) {
	tr := straightTrack(100)
	x, y := tr.Point(10, 2)
	if math.Abs(x-10) > 1e-12 || math.Abs(y-2) > 1e-12 {
		t.Fatalf("Point(10, 2) = (%v, %v), want (10, 2)", x, y)
	}
}

func TestLocateRoundTripStraight(t *testing.T) {
	tr := straightTrack(100)
	s, lat, ok := tr.Locate(30, -1.5, 25, 20, 40, 8)
	if !ok || math.Abs(s-30) > 1e-9 || math.Abs(lat+1.5) > 1e-9 {
		t.Fatalf("Locate = (%v, %v, %v)", s, lat, ok)
	}
}

func TestLocateRoundTripProperty(t *testing.T) {
	// Point() then Locate() must recover (s, lat) on a mixed track.
	tr := NineSectorTrack()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		s := rng.Float64() * tr.Length()
		lat := (rng.Float64() - 0.5) * 8
		x, y := tr.Point(s, lat)
		gs, glat, ok := tr.Locate(x, y, s, 15, 15, 10)
		if !ok {
			t.Fatalf("trial %d: Locate failed for s=%v lat=%v", trial, s, lat)
		}
		if math.Abs(gs-s) > 1e-6 || math.Abs(glat-lat) > 1e-6 {
			t.Fatalf("trial %d: round trip (%v,%v) -> (%v,%v)", trial, s, lat, gs, glat)
		}
	}
}

func TestLocateHintWindow(t *testing.T) {
	tr := straightTrack(100)
	// Point at s=90 but hint at s=10 with a narrow window: must miss.
	if _, _, ok := tr.Locate(90, 0, 10, 5, 5, 8); ok {
		t.Fatal("Locate found a point outside its hint window")
	}
}

func TestLocateMaxLat(t *testing.T) {
	tr := straightTrack(100)
	if _, _, ok := tr.Locate(50, 25, 50, 10, 10, 8); ok {
		t.Fatal("Locate accepted a point beyond maxLat")
	}
}

func TestSectorBoundaries(t *testing.T) {
	tr := NineSectorTrack()
	if got := tr.SectorAt(0); got != 1 {
		t.Fatalf("SectorAt(0) = %d", got)
	}
	if got := tr.SectorAt(tr.Length() - 0.01); got != 9 {
		t.Fatalf("SectorAt(end) = %d", got)
	}
	if got := tr.SectorAt(tr.Length() + 5); got != 9 {
		t.Fatalf("SectorAt(beyond) = %d", got)
	}
	if got := tr.SectorAt(-3); got != 1 {
		t.Fatalf("SectorAt(-3) = %d", got)
	}
	// Monotone non-decreasing along the track.
	prev := 0
	for s := 0.0; s < tr.Length(); s += 1 {
		sec := tr.SectorAt(s)
		if sec < prev {
			t.Fatalf("sector decreased at s=%v: %d -> %d", s, prev, sec)
		}
		prev = sec
	}
}

func TestNineSectorTrackNarrative(t *testing.T) {
	tr := NineSectorTrack()
	if len(tr.Segments) != NumSectors {
		t.Fatalf("sector count = %d", len(tr.Segments))
	}
	// Sector 2 is a turn (case 1 crash point).
	if tr.Segments[1].Situation.Layout == Straight {
		t.Fatal("sector 2 must be a turn")
	}
	// Sector 6 is a turn with both markings dotted (case 2 crash point).
	s6 := tr.Segments[5]
	if s6.Situation.Layout == Straight || s6.Situation.Lane.Form != Dotted || s6.RightLane.Form != Dotted {
		t.Fatalf("sector 6 must be a dotted-lane turn, got %+v right=%v", s6.Situation, s6.RightLane)
	}
	// Night -> dark transition from sector 8 to 9.
	if tr.Segments[7].Situation.Scene != Night || tr.Segments[8].Situation.Scene != Dark {
		t.Fatal("sector 8->9 must transition night->dark")
	}
	// Sector 4 is a left turn with dotted lane (variable-scheme penalty).
	if tr.Segments[3].Situation.Layout != LeftTurn || tr.Segments[3].Situation.Lane.Form != Dotted {
		t.Fatalf("sector 4 must be a dotted left turn, got %+v", tr.Segments[3].Situation)
	}
}

func TestSituationTrackLeadIn(t *testing.T) {
	sit := Situation{RightTurn, LaneMarking{White, Continuous}, Day}
	tr := SituationTrack(sit)
	if len(tr.Segments) != 3 {
		t.Fatalf("turn situation track needs a lead-in and run-out, got %d segments", len(tr.Segments))
	}
	if tr.Segments[0].Curvature != 0 || tr.Segments[0].Situation.Layout != Straight {
		t.Fatal("lead-in must be straight")
	}
	if tr.Segments[2].Curvature != 0 || tr.Segments[2].Situation.Layout != Straight {
		t.Fatal("run-out must be straight")
	}
	if tr.Segments[0].Situation.Scene != sit.Scene || tr.Segments[0].Situation.Lane != sit.Lane {
		t.Fatal("lead-in must share markings and scene")
	}
	if SituationEvalSector(sit) != 2 || SituationEvalSector(Situation{Straight, sit.Lane, sit.Scene}) != 1 {
		t.Fatal("SituationEvalSector wrong")
	}
	straight := SituationTrack(Situation{Straight, LaneMarking{White, Dotted}, Night})
	if len(straight.Segments) != 1 {
		t.Fatalf("straight situation track should be one segment, got %d", len(straight.Segments))
	}
}

func TestSurfaceAtMarkings(t *testing.T) {
	tr := straightTrack(100)
	half := tr.LaneWidth / 2
	// Lane center is asphalt.
	if got := tr.surfaceAt(10, 0, len(tr.Segments)-1); got.Kind != SurfaceAsphalt {
		t.Fatalf("center = %+v", got)
	}
	// Left marking (white continuous) painted at +half.
	if got := tr.surfaceAt(10, half, len(tr.Segments)-1); got.Kind != SurfaceMarking || got.Color != White {
		t.Fatalf("left marking = %+v", got)
	}
	// Right marking is dotted with a half-period phase offset: painted at
	// the offset dash phase, bare in the gap.
	if got := tr.surfaceAt(DashPeriod/2, -half, len(tr.Segments)-1); got.Kind != SurfaceMarking {
		t.Fatalf("right dash = %+v", got)
	}
	if got := tr.surfaceAt(DashPeriod/2+DashLength+1, -half, len(tr.Segments)-1); got.Kind == SurfaceMarking {
		t.Fatalf("right gap painted = %+v", got)
	}
	// Far off-road.
	if got := tr.surfaceAt(10, RoadHalfWidth+1, len(tr.Segments)-1); got.Kind != SurfaceOffRoad {
		t.Fatalf("off-road = %+v", got)
	}
}

func TestSurfaceDoubleMarking(t *testing.T) {
	sit := Situation{Straight, LaneMarking{Yellow, DoubleContinuous}, Day}
	tr := NewTrack([]Segment{{Length: 50, Situation: sit, RightLane: rightDotted}}, 0)
	half := tr.LaneWidth / 2
	off := (MarkingWidth + DoubleGap) / 2
	if got := tr.surfaceAt(5, half+off, len(tr.Segments)-1); got.Kind != SurfaceMarking || got.Color != Yellow {
		t.Fatalf("outer stripe = %+v", got)
	}
	if got := tr.surfaceAt(5, half-off, len(tr.Segments)-1); got.Kind != SurfaceMarking {
		t.Fatalf("inner stripe = %+v", got)
	}
	if got := tr.surfaceAt(5, half, len(tr.Segments)-1); got.Kind == SurfaceMarking {
		t.Fatalf("gap between stripes painted = %+v", got)
	}
}

func TestLaneClassRoundTrip(t *testing.T) {
	for c := 0; c < NumLaneClasses; c++ {
		m := LaneMarkingForClass(c)
		got, ok := LaneClass(m)
		if !ok || got != c {
			t.Fatalf("class %d round trip -> %d (%v)", c, got, ok)
		}
	}
	if _, ok := LaneClass(LaneMarking{White, DoubleContinuous}); ok {
		t.Fatal("white double should not be a classifier class")
	}
}

func TestPaperSituationsTable3(t *testing.T) {
	if len(PaperSituations) != 21 {
		t.Fatalf("PaperSituations = %d, want 21", len(PaperSituations))
	}
	// Spot-check against Table III rows.
	checks := map[int]Situation{
		0:  {Straight, LaneMarking{White, Continuous}, Day},
		6:  {Straight, LaneMarking{White, Continuous}, Dark},
		12: {RightTurn, LaneMarking{White, Dotted}, Day},
		20: {LeftTurn, LaneMarking{White, Dotted}, Night},
	}
	for i, want := range checks {
		if PaperSituations[i] != want {
			t.Fatalf("situation %d = %v, want %v", i+1, PaperSituations[i], want)
		}
	}
	// All lane markings in Table III must be classifiable (Table IV).
	for i, sit := range PaperSituations {
		if _, ok := LaneClass(sit.Lane); !ok {
			t.Fatalf("situation %d lane %v not classifiable", i+1, sit.Lane)
		}
	}
}

func TestStringers(t *testing.T) {
	sit := Situation{LeftTurn, LaneMarking{Yellow, DoubleContinuous}, Dusk}
	if got := sit.String(); got != "left, yellow double, dusk" {
		t.Fatalf("String = %q", got)
	}
	if Scene(99).String() == "" || RoadLayout(99).String() == "" {
		t.Fatal("unknown enum stringers must not be empty")
	}
}

func TestNewTrackValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-length segment accepted")
		}
	}()
	NewTrack([]Segment{{Length: 0}}, 0)
}

func TestAdvanceContinuity(t *testing.T) {
	// Advancing in two half-steps equals one full step (any curvature).
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		p := Pose{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.Float64()*2*math.Pi - math.Pi}
		k := (rng.Float64() - 0.5) * 0.1
		s := rng.Float64() * 50
		one := advance(p, k, s)
		two := advance(advance(p, k, s/2), k, s/2)
		if math.Abs(one.X-two.X) > 1e-9 || math.Abs(one.Y-two.Y) > 1e-9 || math.Abs(NormAngle(one.Theta-two.Theta)) > 1e-9 {
			t.Fatalf("trial %d: advance not additive: %+v vs %+v", trial, one, two)
		}
	}
}
