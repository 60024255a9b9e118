package world

import "testing"

func turnApproachTrack() *Track {
	sit := Situation{RightTurn, LaneMarking{White, Continuous}, Day}
	return SituationTrack(sit) // lead-in 30 m, arc, run-out
}

func TestCameraSituationAheadEngagesEarly(t *testing.T) {
	tr := turnApproachTrack()
	// 12 m before the arc with a 16 m window: 4 m of curve visible.
	got := tr.CameraSituationAhead(LeadInLength-12, 4, 16)
	if got.Layout != RightTurn {
		t.Fatalf("turn not detected on approach: %v", got)
	}
	// 30 m before the arc: nothing but straight in view.
	got = tr.CameraSituationAhead(0, 4, 16)
	if got.Layout != Straight {
		t.Fatalf("turn reported far too early: %v", got)
	}
}

func TestCameraSituationAheadReleasesLate(t *testing.T) {
	tr := turnApproachTrack()
	arcEnd := LeadInLength + TurnArcLength
	// 8 m of arc remaining: still inside, must stay "turn".
	got := tr.CameraSituationAhead(arcEnd-8, 4, 16)
	if got.Layout != RightTurn {
		t.Fatalf("turn released while still inside: %v", got)
	}
	// Past the arc with none of it in the window: straight again.
	got = tr.CameraSituationAhead(arcEnd+1, 4, 16)
	if got.Layout != Straight {
		t.Fatalf("turn held after the curve: %v", got)
	}
}

func TestDominantSituationAheadMajority(t *testing.T) {
	tr := turnApproachTrack()
	// Window fully inside the lead-in.
	got := tr.DominantSituationAhead(2, 4, 12)
	if got.Layout != Straight {
		t.Fatalf("lead-in window = %v", got)
	}
	// Window fully inside the arc.
	mid := LeadInLength + TurnArcLength/2
	got = tr.DominantSituationAhead(mid-8, 4, 10)
	if got.Layout != RightTurn {
		t.Fatalf("arc window = %v", got)
	}
}

func TestDominantSituationAheadBeyondTrackEnd(t *testing.T) {
	tr := turnApproachTrack()
	// A window overhanging the end attributes the overhang to the last
	// segment instead of dropping it.
	got := tr.DominantSituationAhead(tr.Length()-2, 4, 30)
	if got.Layout != Straight {
		t.Fatalf("end-of-track window = %v", got)
	}
}

// TestDominantSituationAheadTieIsDeterministic: a window split exactly
// between two segments must name the same one on every call (the first,
// by index), whatever order a map would have visited them in.
func TestDominantSituationAheadTieIsDeterministic(t *testing.T) {
	a := Situation{Straight, LaneMarking{White, Continuous}, Day}
	b := Situation{Straight, LaneMarking{Yellow, Dotted}, Night}
	tr := NewTrack([]Segment{
		{Length: 10, Situation: a, RightLane: rightDotted},
		{Length: 10, Situation: b, RightLane: rightDotted},
	}, 0)
	for i := 0; i < 200; i++ {
		if got := tr.CameraSituationAhead(5, 0, 10); got != a {
			t.Fatalf("call %d: tied window labelled %v, want the first segment's %v", i, got, a)
		}
		if got := tr.DominantSituationAhead(5, 0, 10); got != a {
			t.Fatalf("call %d: DominantSituationAhead gave %v, want %v", i, got, a)
		}
	}
	// Without a tie the longer cover still wins.
	if got := tr.DominantSituationAhead(6, 0, 10); got != b {
		t.Fatalf("window mostly on the second segment labelled %v, want %v", got, b)
	}
}
